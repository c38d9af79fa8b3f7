"""Decoder tests: buffer state machine, greedy structure decode, parallel vs
sequential cell decoding, and the recognize() pipeline."""

import numpy as np
import pytest

from tabmark import autodiff as ad
from tabmark import synth
from tabmark import vocab as V
from tabmark.bench import make_scripted_step
from tabmark.decoding import (
    DecodeState,
    decode_cells_parallel,
    decode_cells_sequential,
    decode_html,
    recognize,
)
from tabmark.model import DecodeCache, ModelConfig, TableModel, cell_buffer_layout


def tiny_cfg(**kw):
    base = dict(
        image_side=32,
        d=16,
        heads=2,
        html_blocks=1,
        cell_blocks=1,
        refiner_blocks=1,
        ffn_mult=2,
        enc_channels=(4, 8, 16),
        seed=5,
    )
    base.update(kw)
    return ModelConfig(**base)


MICRO = synth.GenSpec(
    rows=(1, 2), cols=(2, 2), content_len=(1, 3), glyph_scale=2, image_side=32, margin=2
)


def content_ids(text):
    return list(V.tokenize_content(text).ids)


def conditioned(model, record):
    """Teacher-forced conditioning features and image features for a record."""
    img = synth.prepare_image(record.image, model.cfg.image_side)
    with ad.no_grad():
        feats = model.encode_image(img)
        body = list(record.structure_ids)
        _, hidden = model.html_step([V.STRUCTURE.sos] + body, "ltor", feats)
        token_hidden = ad.take_rows(hidden, np.arange(1, len(body) + 1))
        sf = model.struct_features(body, token_hidden)
        refined = model.refine(model.fetch_cells(sf))
        boxes = model.bbox_head(refined)
        cond = model.cell_conditioning(refined, boxes)
    return cond, feats


class TestDecodeState:
    def test_initial_layout(self):
        st = DecodeState.initial(2)
        assert st.buffer == [V.CONTENT.sos, V.SEP_ID, V.SEP_ID]
        assert st.cursors == [1, 2]
        assert st.frozen == [False, False]
        assert st.lengths == [0, 0]
        st.check_pattern()

    def test_initial_empty(self):
        st = DecodeState.initial(0)
        assert st.buffer == [V.CONTENT.sos]
        st.check_pattern()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            DecodeState.initial(-1)

    def test_insert_shifts_cursors(self):
        st = DecodeState.initial(2)
        st.insert(0, 7)
        assert st.buffer == [V.CONTENT.sos, 7, V.SEP_ID, V.SEP_ID]
        assert st.cursors == [2, 3]
        assert st.lengths == [1, 0]
        st.insert(1, 9)
        assert st.buffer == [V.CONTENT.sos, 7, V.SEP_ID, 9, V.SEP_ID]
        assert st.cursors == [2, 4]
        st.check_pattern()

    def test_read_position_is_before_the_sep(self):
        st = DecodeState.initial(2)
        assert st.read_position(0) == 0  # SOS boundary while empty
        assert st.read_position(1) == 1  # cell 0's SEP boundary
        st.insert(0, 7)
        assert st.buffer[st.read_position(0)] == 7
        st.insert(0, 8)
        assert st.buffer[st.read_position(0)] == 8
        assert st.buffer[st.read_position(1)] == V.SEP_ID

    def test_segments(self):
        st = DecodeState.initial(3)
        for t in (5, 6):
            st.insert(0, t)
        st.insert(2, 9)
        assert st.segment(0) == [5, 6]
        assert st.segment(1) == []
        assert st.segment(2) == [9]

    def test_frozen_cell_rejects_insert(self):
        st = DecodeState.initial(1)
        st.freeze(0)
        with pytest.raises(ValueError, match="frozen"):
            st.insert(0, 5)

    def test_boundary_tokens_not_insertable(self):
        st = DecodeState.initial(1)
        with pytest.raises(ValueError):
            st.insert(0, V.SEP_ID)
        with pytest.raises(ValueError):
            st.insert(0, V.CONTENT.sos)

    def test_pattern_fuzz_random_insertion_orders(self):
        # the invariant must hold after every single insertion, whatever the
        # interleaving across cells
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(1, 7))
            want = [
                [int(t) for t in rng.integers(4, 40, size=rng.integers(0, 6))]
                for _ in range(n)
            ]
            queues = [list(w) for w in want]
            st = DecodeState.initial(n)
            while any(queues):
                k = int(rng.choice([j for j in range(n) if queues[j]]))
                st.insert(k, queues[k].pop(0))
                st.check_pattern()
            # same-cell order is preserved even though cells interleave
            got = [st.segment(k) for k in range(n)]
            assert got == want

    def test_check_pattern_catches_corruption(self):
        st = DecodeState.initial(2)
        st.insert(0, 7)
        st.buffer[0] = V.SEP_ID
        with pytest.raises(AssertionError):
            st.check_pattern()
        st2 = DecodeState.initial(2)
        st2.buffer[1] = 9  # content where a SEP belongs, bookkeeping unaware
        with pytest.raises(AssertionError):
            st2.check_pattern()


def force_structure(model, token_id):
    """Surgery: make the structure head emit token_id at every position."""
    model.params["html.out.w"].data[:] = 0.0
    b = model.params["html.out.b"].data
    b[:] = 0.0
    b[token_id] = 1.0


class TestDecodeHtml:
    def test_immediate_eos_gives_empty_body(self):
        m = TableModel(tiny_cfg())
        force_structure(m, V.STRUCTURE.eos)
        feats = m.encode_image(np.zeros((32, 32)))
        hd = decode_html(m, feats)
        assert hd.seq.ids == ()
        assert hd.passes == 1
        assert not hd.truncated

    def test_pass_count_is_length_plus_one(self):
        # this seed pair is known to reach EOS well before the cap
        m = TableModel(tiny_cfg(seed=3, struct_cap=120))
        rec = synth.generate(MICRO, seed=11)
        feats = m.encode_image(synth.prepare_image(rec.image, 32))
        hd = decode_html(m, feats)
        assert not hd.truncated
        assert len(hd.seq.ids) > 0
        assert hd.passes == len(hd.seq.ids) + 1

    def test_truncation_freezes_and_aligns_features(self):
        m = TableModel(tiny_cfg(struct_cap=8))
        force_structure(m, V.STRUCTURE["</td>"])
        feats = m.encode_image(np.zeros((32, 32)))
        hd = decode_html(m, feats)
        assert hd.truncated
        assert len(hd.seq.ids) == 7  # cap includes the SOS slot
        assert hd.passes == 7  # no EOS pass when cut off
        # features still cover every emitted token: the fetcher can run
        fetched = m.fetch_cells(hd.struct)
        assert fetched.shape == (7, m.cfg.d)


class TestScriptedDecoding:
    def setup_method(self):
        self.model = TableModel(tiny_cfg())

    def run_both(self, scripts, cap=None, model=None):
        m = model or self.model
        if cap is not None:
            m = TableModel(tiny_cfg(content_cap=cap))
        step = make_scripted_step(None, scripts)
        cond = np.zeros((len(scripts), m.cfg.d))
        par = decode_cells_parallel(m, cond, None, step_fn=step)
        seq = decode_cells_sequential(m, cond, None, step_fn=step)
        return par, seq

    def test_pass_laws_on_mixed_lengths(self):
        scripts = [content_ids("ab"), content_ids("hello"), content_ids("xyz")]
        par, seq = self.run_both(scripts)
        assert [list(c.ids) for c in par.cells] == scripts
        assert [list(c.ids) for c in seq.cells] == scripts
        assert par.passes == 6  # max(2, 5, 3) + 1
        assert seq.passes == 13  # (2+1) + (5+1) + (3+1)
        assert not par.truncated and not seq.truncated

    def test_equal_lengths_ratio_is_cell_count(self):
        scripts = [content_ids("abcd") for _ in range(5)]
        par, seq = self.run_both(scripts)
        assert par.passes == 5
        assert seq.passes == 25
        assert seq.passes / par.passes == len(scripts)

    def test_no_cells_no_passes(self):
        m = self.model
        cond = np.zeros((0, m.cfg.d))
        for fn in (decode_cells_parallel, decode_cells_sequential):
            out = fn(m, cond, None)
            assert out.cells == [] and out.passes == 0 and not out.truncated

    def test_tie_break_prefers_lowest_token_id(self):
        def step(buffer, layout, cond, img_feats):
            logits = np.zeros((len(buffer), len(V.CONTENT)))
            for p in range(len(buffer)):
                if p == 0:
                    logits[p, 5] = 1.0
                    logits[p, 9] = 1.0  # tie: 5 must win
                else:
                    logits[p, V.SEP_ID] = 1.0
            return logits

        cond = np.zeros((1, self.model.cfg.d))
        out = decode_cells_parallel(self.model, cond, None, step_fn=step)
        assert list(out.cells[0].ids) == [5]
        assert out.passes == 2

    def test_freezing_is_monotone(self):
        scripts = [content_ids("a"), content_ids("abc"), content_ids("ab")]
        base = make_scripted_step(None, scripts)
        sizes = []

        def spy(buffer, layout, cond, img_feats):
            sizes.append(len(buffer))
            return base(buffer, layout, cond, img_feats)

        cond = np.zeros((3, self.model.cfg.d))
        decode_cells_parallel(self.model, cond, None, step_fn=spy)
        grown = [b - a for a, b in zip(sizes, sizes[1:])]
        # the number of open cells (buffer growth per pass) never increases
        assert all(b <= a for a, b in zip(grown, grown[1:]))

    def test_parallel_truncation_freezes_everything(self):
        scripts = [content_ids("a" * 50), content_ids("b" * 50)]
        par, _ = self.run_both(scripts, cap=12)
        assert par.truncated
        assert par.passes == 4  # 3 -> 5 -> 7 -> 9 -> 11, then 11 + 2 > 12
        assert [list(c.ids) for c in par.cells] == [s[:4] for s in scripts]

    def test_sequential_truncation_freezes_everything(self):
        scripts = [content_ids("a" * 50), content_ids("b" * 50)]
        _, seq = self.run_both(scripts, cap=12)
        assert seq.truncated
        assert [list(c.ids) for c in seq.cells] == [scripts[0][:9], []]

    def test_scripts_followed_with_real_model_in_the_loop(self):
        # the benchmark's honest-timing mode: cell_step runs, lengths obey
        # the scripts regardless
        scripts = [content_ids("ab"), content_ids("wxyz")]
        m = self.model
        step = make_scripted_step(m, scripts)
        cond = ad.Tensor(np.zeros((2, m.cfg.d)))
        feats = m.encode_image(np.zeros((32, 32)))
        par = decode_cells_parallel(m, cond, feats, step_fn=step)
        seq = decode_cells_sequential(m, cond, feats, step_fn=step)
        assert [list(c.ids) for c in par.cells] == scripts
        assert [list(c.ids) for c in seq.cells] == scripts
        assert par.passes == 5 and seq.passes == 8


class TestParallelSequentialEquivalence:
    def test_empty_cells_with_untouched_model(self):
        # pumping the SEP bias makes every cell empty through the real
        # decoder path; the pass laws still apply
        m = TableModel(tiny_cfg())
        m.params["cell.out.b"].data[:] = 0.0
        m.params["cell.out.b"].data[V.SEP_ID] = 10.0
        rec = synth.generate(MICRO, seed=2)
        cond, feats = conditioned(m, rec)
        par = decode_cells_parallel(m, cond, feats)
        seq = decode_cells_sequential(m, cond, feats)
        n = rec.n_cells()
        assert all(c.ids == () for c in par.cells)
        assert [c.ids for c in par.cells] == [c.ids for c in seq.cells]
        assert par.passes == 1 and seq.passes == n

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_real_logits_agree_across_schedules(self, seed):
        # genuine model logits decide the first tokens; a relative-position
        # stop at 2 bounds the decode so the test stays fast
        m = TableModel(tiny_cfg(seed=seed))
        rec = synth.generate(MICRO, seed=seed)
        cond, feats = conditioned(m, rec)
        n = rec.n_cells()

        def bounded(buffer, layout, cond_, img_feats):
            logits = m.cell_step(buffer, layout, cond_, img_feats).data.copy()
            for p in range(len(buffer)):
                if p > 0 and layout.mask_cells[p] < n and layout.rel_pos[p] >= 2:
                    logits[p, :] = 0.0
                    logits[p, V.SEP_ID] = 1.0
            return logits

        par = decode_cells_parallel(m, cond, feats, step_fn=bounded)
        seq = decode_cells_sequential(m, cond, feats, step_fn=bounded)
        assert [c.ids for c in par.cells] == [c.ids for c in seq.cells]
        lengths = [len(c.ids) for c in par.cells]
        assert all(l <= 3 for l in lengths)
        assert par.passes == max(lengths) + 1
        assert seq.passes == sum(l + 1 for l in lengths)


class TestTrainInferParity:
    def test_decode_buffer_logits_match_training_buffer(self):
        # teacher forcing scores the full buffer once; greedy decoding reads
        # one position of a shorter mid-decode buffer.  Cell isolation must
        # make those logits agree at every (cell, prefix-length) read point.
        m = TableModel(tiny_cfg())
        rec = synth.generate(MICRO, seed=7)
        cond, feats = conditioned(m, rec)
        cells = [V.tokenize_content(c) for c in rec.cells]
        n = len(cells)

        concat = V.concat_cells(cells)
        buf = [V.CONTENT.sos] + list(concat.ids)
        with ad.no_grad():
            train_logits = m.cell_step(
                buf, cell_buffer_layout(buf, n), cond, feats
            ).data

        starts = np.cumsum([0] + [len(c.ids) + 1 for c in cells])
        for k in range(n):
            for ell in range(len(cells[k].ids) + 1):
                st = DecodeState.initial(n)
                for j in range(k):
                    for t in cells[j].ids:
                        st.insert(j, t)
                for t in cells[k].ids[:ell]:
                    st.insert(k, t)
                with ad.no_grad():
                    mid_logits = m.cell_step(
                        st.buffer, cell_buffer_layout(st.buffer, n), cond, feats
                    ).data
                got = mid_logits[st.read_position(k)]
                want = train_logits[starts[k] + ell]
                assert np.allclose(got, want, rtol=0.0, atol=1e-10)


class TestRecognize:
    def test_empty_structure_yields_bare_table(self):
        m = TableModel(tiny_cfg())
        force_structure(m, V.STRUCTURE.eos)
        out = recognize(m, np.zeros((32, 32)))
        assert out.html == "<table></table>"
        assert out.boxes == [] and out.cells == []
        assert out.passes == {"structure": 1, "cell": 0}

    def test_timings_are_cumulative(self):
        m = TableModel(tiny_cfg(struct_cap=40, content_cap=40))
        rec = synth.generate(MICRO, seed=4)
        out = recognize(m, rec.image)
        t = out.timings
        assert 0 < t["html"] <= t["bbox"] <= t["cell"]

    def test_as_dict_can_drop_timings(self):
        m = TableModel(tiny_cfg())
        force_structure(m, V.STRUCTURE.eos)
        out = recognize(m, np.zeros((32, 32)), parallel=False)
        d = out.as_dict()
        assert "timings" in d and d["parallel"] is False
        d2 = out.as_dict(timings=False)
        assert "timings" not in d2
        d["timings"] = None
        assert d2 == {k: v for k, v in d.items() if k != "timings"}

    def test_structure_truncation_is_reported(self):
        m = TableModel(tiny_cfg(struct_cap=8, content_cap=30))
        force_structure(m, V.STRUCTURE["</td>"])
        rec = synth.generate(MICRO, seed=4)
        out = recognize(m, rec.image)
        assert out.truncated["structure"] is True
        assert len(out.structure.ids) == 7


class Recorded:
    """Installed as model.html_step and model.cell_step: records a copy of
    every pass's real logits, then hands the logits on.

    plain=True is the reference path: each pass gets the bare image memory,
    so it scores the whole buffer with no cache.  steer, when given, maps a
    pass's input ids to the structure token to force: the last logits row is
    overwritten in place, as the benchmark's structure stand-in does.
    """

    def __init__(self, model, plain, steer=None):
        self.model, self.plain, self.steer = model, plain, steer
        self.html_step, self.cell_step = model.html_step, model.cell_step
        self.html, self.cell = [], []
        model.html_step, model.cell_step = self._html, self._cell

    def _memory(self, memory):
        assert isinstance(memory, DecodeCache)
        return memory.memory if self.plain else memory

    def _html(self, ids, direction, memory):
        logits, hidden = self.html_step(ids, direction, self._memory(memory))
        self.html.append(logits.data.copy())
        if self.steer is not None:
            last = logits.data[-1]
            last[:] = 0.0
            last[self.steer(ids)] = 1.0
        return logits, hidden

    def _cell(self, buffer, layout, cond, memory):
        logits = self.cell_step(buffer, layout, cond, self._memory(memory))
        self.cell.append(logits.data.copy())
        return logits

    def remove(self):
        del self.model.html_step, self.model.cell_step


def steer_to(body):
    """The structure stand-in's rule: emit body, then EOS."""
    return lambda ids: body[len(ids) - 1] if len(ids) - 1 < len(body) else V.STRUCTURE.eos


def recorded_recognize(model, image, parallel, plain, steer=None, scripts=None):
    rec = Recorded(model, plain, steer)
    try:
        step = make_scripted_step(model, scripts) if scripts is not None else None
        res = recognize(model, image, parallel=parallel, cell_step_fn=step)
    finally:
        rec.remove()
    return res, rec


def assert_cache_exact(model, image, steer=None, scripts=None):
    """The cached decode equals the uncached reference under both schedules:
    same tokens and pass counts, logits within 1e-12 at every pass."""
    for parallel in (True, False):
        got, got_log = recorded_recognize(model, image, parallel, False, steer, scripts)
        want, want_log = recorded_recognize(model, image, parallel, True, steer, scripts)
        assert got.structure.ids == want.structure.ids
        assert [c.ids for c in got.cell_seqs] == [c.ids for c in want.cell_seqs]
        assert got.passes == want.passes and got.truncated == want.truncated
        for a_log, b_log in ((got_log.html, want_log.html), (got_log.cell, want_log.cell)):
            assert len(a_log) == len(b_log)
            for a, b in zip(a_log, b_log):
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-12


class TestDecodeCache:
    def test_trained_toy_cached_equals_uncached(self, trained_toy, wide_corpus):
        model, _ = trained_toy
        for _, rec in wide_corpus:
            assert_cache_exact(model, rec.image)

    def test_dense_tables_cached_equals_uncached(self):
        # structure steered to the true table, cells to their first 4 tokens,
        # which bounds the sequential reference's passes over a 150-row buffer
        model = TableModel(tiny_cfg(image_side=64, html_blocks=2))
        spec = synth.PRESETS["dense"]
        for seed in range(20):
            rec = synth.generate(spec, seed=seed)
            scripts = [content_ids(c)[:4] for c in rec.cells]
            body = list(rec.structure_ids)
            assert_cache_exact(model, rec.image, steer_to(body), scripts)

    def test_window_eviction(self):
        m = TableModel(tiny_cfg(window=2))
        rec = synth.generate(synth.PRESETS["wide"], seed=3)
        body = list(rec.structure_ids)
        assert len(body) >= 12
        scripts = [content_ids(c) for c in rec.cells]  # cells longer than the window
        assert max(len(s) for s in scripts) > 3
        assert_cache_exact(m, rec.image, steer_to(body), scripts)
        # only the last `window` positions keep keys and values
        feats = m.encode_image(synth.prepare_image(rec.image, 32))
        cache = DecodeCache(feats)
        with ad.no_grad():
            for k in range(1, len(body) + 2):
                m.html_step([V.STRUCTURE.sos] + body[: k - 1], "ltor", cache)
        assert cache.first == len(body) + 1 - 2
        assert all(sk.size == 2 for sk in cache.self_keys)

    def test_in_place_overwrite_leaves_later_passes_unchanged(self):
        m = TableModel(tiny_cfg())
        rec = synth.generate(MICRO, seed=7)
        cond, feats = conditioned(m, rec)
        n = rec.n_cells()
        logs = {}

        for plain in (False, True):
            seen = logs[plain] = []

            def clobber(buffer, layout, cond_, memory):
                logits = m.cell_step(buffer, layout, cond_, memory.memory if plain else memory)
                seen.append(logits.data.copy())
                out = logits.data
                keep = out.copy()
                out[:] = -1.0  # the caller owns the returned rows
                for p in range(len(buffer)):
                    if layout.rel_pos[p] >= 2 and layout.mask_cells[p] < n:
                        keep[p, :] = 0.0
                        keep[p, V.SEP_ID] = 1.0
                return keep

            decode_cells_parallel(m, cond, feats, step_fn=clobber)
        assert len(logs[False]) == len(logs[True]) > 1
        for a, b in zip(logs[False], logs[True]):
            assert np.abs(a - b).max() <= 1e-12

    def scored_cell_cache(self, model, cond, feats, buf, n_cells):
        cache = DecodeCache(feats)
        with ad.no_grad():
            model.cell_step(buf, cell_buffer_layout(buf, n_cells), cond, cache)
        return cache

    def test_buffer_that_does_not_extend_is_rejected(self):
        m = TableModel(tiny_cfg())
        rec = synth.generate(MICRO, seed=7)
        cond, feats = conditioned(m, rec)
        sos, sep = V.CONTENT.sos, V.SEP_ID
        buf = [sos, 5, 6, sep, 7, sep]
        longer = [sos, 5, 6, 8, sep, 7, 9, sep]
        step = m.cell_step
        with ad.no_grad():
            # a changed earlier token
            cache = self.scored_cell_cache(m, cond, feats, buf, 2)
            poked = [sos, 5, 30, 8, sep, 7, sep]
            with pytest.raises(ValueError, match="position 2 holds token 30"):
                step(poked, cell_buffer_layout(poked, 2), cond, cache)
            # a dropped position
            shorter = [sos, 5, sep, 7, sep]
            with pytest.raises(ValueError, match="scored positions"):
                step(shorter, cell_buffer_layout(shorter, 2), cond, cache)
            # another cell count
            three = ad.Tensor(np.vstack([cond.data, cond.data[:1]]))
            buf3 = longer + [sep]
            with pytest.raises(ValueError, match="scored for"):
                step(buf3, cell_buffer_layout(buf3, 3), three, cache)
            # another conditioning
            other = ad.Tensor(cond.data + 1.0)
            with pytest.raises(ValueError, match="conditioning"):
                step(longer, cell_buffer_layout(longer, 2), other, cache)
            # another step
            with pytest.raises(ValueError, match="scored for"):
                m.html_step([V.STRUCTURE.sos], "ltor", cache)
            # the cache survives every refusal and still extends exactly
            got = step(longer, cell_buffer_layout(longer, 2), cond, cache).data
            want = step(longer, cell_buffer_layout(longer, 2), cond, feats).data
            assert np.abs(got - want).max() <= 1e-12

    def test_structure_prefix_and_direction_are_checked(self):
        m = TableModel(tiny_cfg())
        feats = m.encode_image(np.zeros((32, 32)))
        sos = V.STRUCTURE.sos
        row = [V.STRUCTURE[t] for t in ("<tr>", "<td></td>", "<td></td>", "</tr>")]
        ids = [sos] + row * 2
        cache = DecodeCache(feats)
        with ad.no_grad():
            m.html_step(ids[:4], "ltor", cache)
            with pytest.raises(ValueError, match="rtol"):
                m.html_step(ids, "rtol", cache)
            changed = ids[:2] + [V.STRUCTURE["</tr>"]] + ids[3:]
            with pytest.raises(ValueError, match="position 2"):
                m.html_step(changed, "ltor", cache)
            with pytest.raises(ValueError, match="scored positions"):
                m.html_step(ids[:3], "ltor", cache)
            logits, hidden = m.html_step(ids, "ltor", cache)
            want_logits, want_hidden = m.html_step(ids, "ltor", feats)
        assert np.abs(logits.data - want_logits.data).max() <= 1e-12
        assert np.abs(hidden.data - want_hidden.data).max() <= 1e-12

    def test_cached_rows_refuse_gradients(self):
        m = TableModel(tiny_cfg())
        feats = m.encode_image(np.zeros((32, 32)))
        cache = DecodeCache(feats)
        with ad.no_grad():
            m.html_step([V.STRUCTURE.sos], "ltor", cache)
        with pytest.raises(ValueError, match="no_grad"):
            m.html_step([V.STRUCTURE.sos, V.STRUCTURE["<tr>"]], "ltor", cache)
