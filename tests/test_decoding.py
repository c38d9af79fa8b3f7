"""Decoder tests: buffer state machine, greedy structure decode, parallel vs
sequential cell decoding, and the recognize() pipeline."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from tabmark import autodiff as ad
from tabmark import decoding
from tabmark import layers as L
from tabmark import synth
from tabmark import vocab as V
from tabmark.bench import make_scripted_step
from tabmark.decoding import (
    _CELL_STOP,
    DecodeState,
    decode_cells_parallel,
    decode_cells_sequential,
    decode_html,
    recognize,
)
from tabmark.model import (
    BufferLayout,
    DecodeCache,
    ModelConfig,
    TableModel,
    content_buffer,
)
from test_model import grown_rows, loop_keys


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
        refined = model.refine(model.fetch_cells(body, token_hidden))
        boxes = model.bbox_head(refined)
        cond = model.cell_conditioning(refined, boxes)
    return cond, feats


def flat_buffer(cells):
    """[SOS] + (cell + [SEP]) for each cell: the content buffer pattern."""
    return [V.CONTENT.sos] + [tok for cell in cells for tok in list(cell) + [V.SEP_ID]]


def buffer_of(st):
    return content_buffer(st.cells)[0]


def assert_state_pattern(st):
    """The buffer is built from the cells, and the position before each
    cell's SEP holds the cell's last token, or the boundary before the cell
    while it is empty."""
    buf = buffer_of(st)
    assert buf == flat_buffer(st.cells)
    seps = [p for p, t in enumerate(buf) if t == V.SEP_ID]
    assert len(seps) == len(st.cells)
    for k, pos in enumerate(p - 1 for p in seps):
        want = st.cells[k][-1] if st.cells[k] else (V.SEP_ID if k else V.CONTENT.sos)
        assert buf[pos] == want
        assert buf[pos + 1] == V.SEP_ID  # the cell's trailing SEP follows
        assert buf[pos + 1 - len(st.cells[k]) : pos + 1] == st.cells[k]


class TestDecodeState:
    def test_initial_layout(self):
        st = DecodeState.initial(2)
        assert buffer_of(st) == [V.CONTENT.sos, V.SEP_ID, V.SEP_ID]
        assert st.cells == [[], []]
        assert st.frozen == [False, False]
        assert_state_pattern(st)

    def test_initial_empty(self):
        st = DecodeState.initial(0)
        assert buffer_of(st) == [V.CONTENT.sos]
        assert st.unfrozen() == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            DecodeState.initial(-1)

    def test_insert_appends_before_the_sep(self):
        st = DecodeState.initial(2)
        st.insert(0, 7)
        assert buffer_of(st) == [V.CONTENT.sos, 7, V.SEP_ID, V.SEP_ID]
        assert st.cells == [[7], []]
        st.insert(1, 9)
        assert buffer_of(st) == [V.CONTENT.sos, 7, V.SEP_ID, 9, V.SEP_ID]
        assert_state_pattern(st)

    def test_segments(self):
        st = DecodeState.initial(3)
        for t in (5, 6):
            st.insert(0, t)
        st.insert(2, 9)
        assert st.cells == [[5, 6], [], [9]]
        assert buffer_of(st) == [V.CONTENT.sos, 5, 6, V.SEP_ID, V.SEP_ID, 9, V.SEP_ID]
        assert_state_pattern(st)

    def test_frozen_cell_rejects_insert(self):
        st = DecodeState.initial(2)
        st.freeze(0)
        assert st.unfrozen() == [1]
        with pytest.raises(ValueError, match="frozen"):
            st.insert(0, 5)
        assert st.cells == [[], []]

    def test_boundary_tokens_not_insertable(self):
        st = DecodeState.initial(1)
        with pytest.raises(ValueError):
            st.insert(0, V.SEP_ID)
        with pytest.raises(ValueError):
            st.insert(0, V.CONTENT.sos)
        assert st.cells == [[]]

    def test_pattern_fuzz_random_insertion_orders(self):
        # the pattern must hold after every single insertion, whatever the
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
                assert_state_pattern(st)
            # same-cell order is preserved even though cells interleave
            assert st.cells == want
            assert buffer_of(st) == flat_buffer(want)


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
        assert hd.hidden.shape == (7, m.cfg.d)
        fetched = m.fetch_cells(hd.seq.ids, hd.hidden)
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
                if layout.seq[p] == 0:  # the root
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
        grown = sizes[1:]  # a pass hands over one row per cell the last one grew
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


def loop_decode_reference(cap, n, step, parallel):
    """The two cell-decode loops as they were before both schedules shared
    one loop over per-cell token lists: a flat buffer that each token is
    inserted into, with every later cell's SEP cursor shifted by one."""
    if n == 0:
        return [], 0, False
    buffer = [V.CONTENT.sos] + [V.SEP_ID] * n
    cursors, lengths, frozen = list(range(1, n + 1)), [0] * n, [False] * n
    passes, truncated = 0, False

    def insert(k, token):
        buffer.insert(cursors[k], token)
        lengths[k] += 1
        for j in range(k, n):
            cursors[j] += 1

    def advance(k, token):
        if token in _CELL_STOP:
            frozen[k] = True
        else:
            insert(k, token)

    if parallel:
        while True:
            active = [k for k in range(n) if not frozen[k]]
            if not active:
                break
            if len(buffer) + len(active) > cap:
                truncated = True
                for k in active:
                    frozen[k] = True
                break
            logits = step(buffer, loop_keys(buffer, n), None, None)
            passes += 1
            tokens = np.argmax(logits[np.take(cursors, active) - 1], axis=1).tolist()
            for k, token in zip(active, tokens):
                advance(k, token)
    else:
        for k in range(n):
            while not frozen[k]:
                if len(buffer) + 1 > cap:
                    truncated = True
                    frozen = [True] * n
                    break
                logits = step(buffer, loop_keys(buffer, n), None, None)
                passes += 1
                advance(k, int(np.argmax(logits[cursors[k] - 1])))
            if truncated:
                break
    cells = [buffer[c - ell : c] for c, ell in zip(cursors, lengths)]
    return cells, passes, truncated


def buffer_positions(full, layout):
    """The position in a full buffer, laid out as full, of each row of
    layout, found by its (sequence, position) key."""
    where = {key: p for p, key in enumerate(zip(full.seq.tolist(), full.pos.tolist()))}
    return [where[key] for key in zip(layout.seq.tolist(), layout.pos.tolist())]


class Replay:
    """The full buffer of a cached cell decode, rebuilt from the rows each
    pass hands over: the first pass gives a whole buffer, every later one
    new rows, each appended to its cell's token list.  A new cache starts a
    new decode."""

    def __init__(self):
        self.cache, self.cells = None, []

    def __call__(self, ids, layout, n_cells, cache):
        """Replay one pass: the full buffer, its layout and the position of
        each given row in it, whose token and conditioning must match."""
        if cache is not self.cache:
            self.cache, self.cells = cache, [[] for _ in range(n_cells)]
        for token, s, r in zip(ids, layout.seq.tolist(), layout.pos.tolist()):
            if 1 <= s <= n_cells:  # a token of cell s - 1
                assert r == len(self.cells[s - 1]), (s, r)
                self.cells[s - 1].append(int(token))
        buffer, full = content_buffer(self.cells)
        positions = buffer_positions(full, layout)
        assert [buffer[p] for p in positions] == [int(t) for t in ids]
        assert np.array_equal(full.cond_cells(n_cells)[positions], layout.cond_cells(n_cells))
        return buffer, full, positions


def plain_rows(cell_step, replay, ids, layout, cond, cache):
    """The reference for a cached pass's rows: the replayed full buffer,
    scored by a plain full pass, at the given rows' positions."""
    buffer, full, positions = replay(ids, layout, cond.shape[0], cache)
    return ad.Tensor(cell_step(buffer, full, cond, cache.memory).data[positions])


def stop_step(scripts, stops, seen, replay=None):
    """A scripted cell step that records a copy of every buffer it is given,
    or, with a Replay, of the full buffer after replaying the rows it is
    given.  Each row's logits argmax to the next token of the cell it
    predicts, or to that cell's stop token once its script is done."""
    n = len(scripts)
    longest = max((len(s) for s in scripts), default=0)
    table = np.repeat(np.array(stops, dtype=np.int64)[:, None], longest + 1, axis=1)
    for c, script in enumerate(scripts):
        table[c, : len(script)] = script

    def step(buffer, layout, cond, memory):
        seen.append(list(buffer) if replay is None else replay(buffer, layout, n, memory)[0])
        boundary = (layout.seq == 0) | (layout.seq > n)  # the root and the SEPs
        nxt = np.where(boundary, 0, np.minimum(layout.pos + 1, longest))
        cell = layout.cond_cells(n)
        live = cell < n
        tokens = np.full(len(buffer), V.CONTENT.eos)
        tokens[live] = table[cell[live], nxt[live]]
        logits = np.zeros((len(buffer), len(V.CONTENT)))
        logits[np.arange(len(buffer)), tokens] = 1.0
        return logits

    return step


class TestOneLoop:
    def test_both_schedules_equal_the_two_loop_reference(self):
        # 0-8 cells of 0-12 tokens, each ended by a stop token drawn from
        # _CELL_STOP; a third of the caps cut the decode short
        rng = np.random.default_rng(8)
        content = [t for t in range(len(V.CONTENT)) if t not in _CELL_STOP]
        stops = sorted(_CELL_STOP)
        truncated = 0
        for trial in range(300):
            n = int(rng.integers(0, 9))
            scripts = [
                [int(t) for t in rng.choice(content, size=rng.integers(0, 13))] for _ in range(n)
            ]
            ends = [int(rng.choice(stops)) for _ in range(n)]
            full = 1 + sum(len(s) + 1 for s in scripts)
            cap = int(rng.integers(1, full + 2)) if trial % 3 == 0 else 8000
            model = SimpleNamespace(cfg=SimpleNamespace(content_cap=cap))
            for parallel, decode in ((True, decode_cells_parallel), (False, decode_cells_sequential)):
                want_seen, got_seen = [], []
                want = loop_decode_reference(cap, n, stop_step(scripts, ends, want_seen), parallel)
                step = stop_step(scripts, ends, got_seen, Replay())
                got = decode(model, np.zeros((n, 4)), None, step_fn=step)
                assert ([list(c.ids) for c in got.cells], got.passes, got.truncated) == want
                assert got_seen == want_seen
                if not want[2]:
                    assert want[0] == scripts
                truncated += want[2]
        assert truncated > 100


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
                if layout.seq[p] <= n and layout.pos[p] >= 2:
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
        cells = [content_ids(c) for c in rec.cells]
        n = len(cells)

        with ad.no_grad():
            train_logits = m.cell_step(*content_buffer(cells), cond, feats).data

        starts = np.cumsum([0] + [len(c) + 1 for c in cells])
        for k in range(n):
            for ell in range(len(cells[k]) + 1):
                st = DecodeState.initial(n)
                for j in range(k):
                    for t in cells[j]:
                        st.insert(j, t)
                for t in cells[k][:ell]:
                    st.insert(k, t)
                mid, layout = content_buffer(st.cells)
                with ad.no_grad():
                    mid_logits = m.cell_step(mid, layout, cond, feats).data
                pos = starts[k] + ell  # cell k's last token, or the boundary before it
                assert mid[pos] == (cells[k][ell - 1] if ell else (V.SEP_ID if k else V.CONTENT.sos))
                assert mid[pos + 1] == V.SEP_ID
                got = mid_logits[pos]
                want = train_logits[starts[k] + ell]
                assert np.allclose(got, want, rtol=0.0, atol=1e-10)


class TestRecognize:
    def test_empty_structure_yields_bare_table(self):
        m = TableModel(tiny_cfg())
        force_structure(m, V.STRUCTURE.eos)
        out = recognize(m, np.zeros((32, 32)))
        assert out.html == "<table></table>"
        assert out.boxes.shape == (0, 4) and out.cells == []
        assert out.as_dict()["boxes"] == []
        assert out.passes == {"structure": 1, "cell": 0}

    def test_boxes_are_one_clipped_row_per_cell(self):
        m = TableModel(tiny_cfg(struct_cap=8, content_cap=30))
        force_structure(m, V.STRUCTURE["</td>"])  # 7 cells
        image = synth.generate(MICRO, seed=4).image
        out = recognize(m, image)
        assert out.boxes.shape == (7, 4) and out.boxes.dtype == np.float64
        assert np.all((out.boxes >= 0.0) & (out.boxes <= 1.0))
        assert out.as_dict()["boxes"] == out.boxes.tolist()
        # a head output outside [0, 1] is clipped
        m.bbox_head = lambda feats: ad.Tensor(np.tile([1.2, -0.1, 0.5, 0.5], (feats.shape[0], 1)))
        assert recognize(m, image).boxes.tolist() == [[1.0, 0.0, 0.5, 0.5]] * 7

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
    the real logits of every row a pass scores, then hands them on.

    plain=True is the reference path: each pass gets the bare image memory,
    so it scores the whole buffer with no cache (the cell buffer replayed
    from the rows the decode hands over), and hands on the rows a cached
    pass would return.  steer, when given, maps a pass's input ids to the
    structure token to force: the last logits row is overwritten in place,
    as the benchmark's structure stand-in does.
    """

    def __init__(self, model, plain, steer=None):
        self.model, self.plain, self.steer = model, plain, steer
        self.html_step, self.cell_step = model.html_step, model.cell_step
        self.html, self.cell = [], []
        self.scored = None, 0  # plain: a structure decode's cache, and its rows handed on
        self.replay = Replay()
        model.html_step, model.cell_step = self._html, self._cell

    def _html(self, ids, direction, memory):
        assert isinstance(memory, DecodeCache)
        if self.plain:
            done = self.scored[1] if self.scored[0] is memory else 0
            self.scored = memory, len(ids)
            full = self.html_step(ids, direction, memory.memory)
            logits, hidden = (ad.Tensor(t.data[done:]) for t in full)
        else:
            logits, hidden = self.html_step(ids, direction, memory)
        self.html.append(logits.data.copy())
        if self.steer is not None:
            last = logits.data[-1]
            last[:] = 0.0
            last[self.steer(ids)] = 1.0
        return logits, hidden

    def _cell(self, ids, layout, cond, memory):
        assert isinstance(memory, DecodeCache)
        if self.plain:
            logits = plain_rows(self.cell_step, self.replay, ids, layout, cond, memory)
        else:
            logits = self.cell_step(ids, layout, cond, memory)
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
    same tokens and pass counts, logits within 1e-12 at every scored row."""
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
                assert np.abs(a - b).max(initial=0.0) <= 1e-12


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
        # held keys and values older than the window cannot reach a new row:
        # setting them to 1e6 leaves it bitwise unchanged, while poisoning a
        # key inside the window changes it
        feats = m.encode_image(synth.prepare_image(rec.image, 32))
        cache = DecodeCache(feats)
        checked = 0
        with ad.no_grad():
            for k in range(1, len(body) + 2):
                ids = [V.STRUCTURE.sos] + body[: k - 1]
                first = cache.held - 2
                if first > 0:
                    want = [t.data[-1] for t in m.html_step(ids, "ltor", copy.deepcopy(cache))]
                    for rows, changes in ((slice(0, first), False), (slice(first, first + 1), True)):
                        poisoned = copy.deepcopy(cache)
                        for sk in poisoned.self_keys:
                            sk.k[:, rows] = 1e6
                            sk.v[:, rows] = 1e6
                        got = m.html_step(ids, "ltor", poisoned)
                        same = [np.array_equal(t.data[-1], w) for t, w in zip(got, want)]
                        assert same == [not changes] * 2, (k, rows)
                    checked += 1
                m.html_step(ids, "ltor", cache)
        assert checked == len(body) + 1 - 3

    def test_in_place_overwrite_leaves_later_passes_unchanged(self):
        m = TableModel(tiny_cfg())
        rec = synth.generate(MICRO, seed=7)
        cond, feats = conditioned(m, rec)
        n = rec.n_cells()
        logs = {}

        for plain in (False, True):
            seen = logs[plain] = []
            replay = Replay()

            def clobber(buffer, layout, cond_, memory):
                if plain:
                    logits = plain_rows(m.cell_step, replay, buffer, layout, cond_, memory)
                else:
                    logits = m.cell_step(buffer, layout, cond_, memory)
                seen.append(logits.data.copy())
                out = logits.data
                keep = out.copy()
                out[:] = -1.0  # the caller owns the returned rows
                for p in range(len(buffer)):
                    if layout.pos[p] >= 2 and layout.seq[p] <= n:
                        keep[p, :] = 0.0
                        keep[p, V.SEP_ID] = 1.0
                return keep

            decode_cells_parallel(m, cond, feats, step_fn=clobber)
        assert len(logs[False]) == len(logs[True]) > 1
        for a, b in zip(logs[False], logs[True]):
            assert np.abs(a - b).max(initial=0.0) <= 1e-12

    def scored_cell_cache(self, model, cond, feats, cells):
        cache = DecodeCache(feats)
        with ad.no_grad():
            model.cell_step(*content_buffer(cells), cond, cache)
        return cache

    def test_buffer_that_does_not_extend_is_rejected(self):
        m = TableModel(tiny_cfg())
        rec = synth.generate(MICRO, seed=7)
        cond, feats = conditioned(m, rec)
        held, longer = [[5, 6], [7]], [[5, 6, 8], [7, 9]]
        step = m.cell_step
        with ad.no_grad():
            cache = self.scored_cell_cache(m, cond, feats, held)
            # a row that is held already: cell 0's second token again
            with pytest.raises(ValueError, match=r"row 0 \(sequence 1, position 1\) is scored"):
                step(*grown_rows([[5, 6]], [1]), cond, cache)
            # a row whose earlier row in its cell is not held: cell 1 skips position 1
            skipped = r"row 1 \(sequence 2, position 2\) is given twice or"
            with pytest.raises(ValueError, match=skipped):
                step(*grown_rows([[5, 6, 8], [7, 9, 10]], [2, 2]), cond, cache)
            # one row given twice in a pass
            twice = BufferLayout.cell_tokens([0, 0], [2, 2])
            given_twice = r"row 0 \(sequence 1, position 2\) is given twice"
            with pytest.raises(ValueError, match=given_twice):
                step([8, 8], twice, cond, cache)
            # another cell count
            three = ad.Tensor(np.vstack([cond.data, cond.data[:1]]))
            with pytest.raises(ValueError, match="scored for"):
                step(*grown_rows(longer + [[]], [2, 1, 0]), three, cache)
            # another conditioning
            other = ad.Tensor(cond.data + 1.0)
            with pytest.raises(ValueError, match="conditioning"):
                step(*grown_rows(longer, [2, 1]), other, cache)
            # another step
            with pytest.raises(ValueError, match="scored for"):
                m.html_step([V.STRUCTURE.sos], "ltor", cache)
            # the cache survives every refusal and still extends exactly
            assert cache.held == len(content_buffer(held)[0])
            got = step(*grown_rows(longer, [2, 1]), cond, cache).data
            buffer, full = content_buffer(longer)
            at = buffer_positions(full, grown_rows(longer, [2, 1])[1])
            assert [buffer[p] for p in at] == [8, 9]
            want = step(buffer, full, cond, feats).data[at]
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
            logits, hidden = m.html_step(ids, "ltor", cache)  # the new rows 4.. only
            want_logits, want_hidden = m.html_step(ids, "ltor", feats)
        assert logits.shape[0] == hidden.shape[0] == len(ids) - 4
        assert np.abs(logits.data - want_logits.data[4:]).max() <= 1e-12
        assert np.abs(hidden.data - want_hidden.data[4:]).max() <= 1e-12

    def test_memory_keys_held_as_contiguous_transposed_keys(self):
        m = TableModel(tiny_cfg(html_blocks=2))
        with ad.no_grad():
            feats = m.encode_image(np.zeros((32, 32)))
            cache = DecodeCache(feats)
            m.html_step([V.STRUCTURE.sos], "ltor", cache)
            for blk, held in zip(m.html_blocks, cache.memory_keys):
                (k, v), (want_k, want_v) = held.kv, blk.cross_attn._project(feats)
                assert np.swapaxes(k.data, 1, 2).flags.c_contiguous and v.data.flags.c_contiguous
                assert np.array_equal(k.data, want_k.data) and np.array_equal(v.data, want_v.data)

    def test_direction_vectors_mixed_once(self, monkeypatch):
        # held from the first pass on, and bitwise what a pass mixing them
        # again computes
        m = TableModel(tiny_cfg(html_blocks=2))
        sos = V.STRUCTURE.sos
        row = [V.STRUCTURE[t] for t in ("<tr>", "<td></td>", "<td></td>", "</tr>")]
        ids = [sos] + row * 2
        mixes = []
        matmul = ad.matmul
        monkeypatch.setattr(
            ad, "matmul", lambda a, b: (b is m.html_mix_dir and mixes.append(a)) or matmul(a, b)
        )
        with ad.no_grad():
            cache = DecodeCache(m.encode_image(np.zeros((32, 32))))
            for k in range(1, len(ids) + 1):
                fresh = copy.deepcopy(cache)
                fresh.cond_table = None
                want = m.html_step(ids[:k], "ltor", fresh)
                got = m.html_step(ids[:k], "ltor", cache)
                assert all(np.array_equal(g.data, w.data) for g, w in zip(got, want))
        assert len(mixes) == 1 + len(ids)  # the first held pass, and every fresh copy

    def test_one_row_structure_pass_attends_through_a_view(self, monkeypatch):
        # a pass that adds one structure row, as every greedy pass does, reads
        # its self-attention keys and values as a slice of the held ones, not
        # a gathered copy, under no mask; its rows equal the plain pass's
        m = TableModel(tiny_cfg(window=3, html_blocks=2))
        rec = synth.generate(synth.PRESETS["wide"], seed=3)
        ids = [V.STRUCTURE.sos] + list(rec.structure_ids)
        assert len(ids) > 6  # past the window
        calls = []
        attention = ad.attention
        monkeypatch.setattr(
            ad, "attention",
            lambda x, k, v, wq, wo, mask=None: calls.append((wq, k, v, mask))
            or attention(x, k, v, wq, wo, mask),
        )
        with ad.no_grad():
            feats = m.encode_image(synth.prepare_image(rec.image, 32))
            cache = DecodeCache(feats)
            for end in range(1, len(ids) + 1):
                calls.clear()
                got = m.html_step(ids[:end], "ltor", cache)
                for blk, store in zip(m.html_blocks, cache.self_keys):
                    [(k, v, mask)] = [c[1:] for c in calls if c[0] is blk.self_attn.wq]
                    assert mask is None
                    if end > 1:  # the first pass attends to its own new row
                        assert np.shares_memory(k.data, store.k)
                        assert np.shares_memory(v.data, store.v)
                want = m.html_step(ids[:end], "ltor", feats)
                for g, w in zip(got, want):
                    assert g.shape[0] == 1
                    assert np.abs(g.data - w.data[-1:]).max() <= 1e-12

    def test_first_cached_pass_refuses_gradients(self):
        # the held memory keys carry no gradient, so not even a first pass may tape
        m = TableModel(tiny_cfg())
        cache = DecodeCache(m.encode_image(np.zeros((32, 32))))
        with pytest.raises(ValueError, match="no_grad"):
            m.html_step([V.STRUCTURE.sos], "ltor", cache)

    def test_cached_rows_refuse_gradients(self):
        m = TableModel(tiny_cfg())
        feats = m.encode_image(np.zeros((32, 32)))
        cache = DecodeCache(feats)
        with ad.no_grad():
            m.html_step([V.STRUCTURE.sos], "ltor", cache)
        with pytest.raises(ValueError, match="no_grad"):
            m.html_step([V.STRUCTURE.sos, V.STRUCTURE["<tr>"]], "ltor", cache)


class TestScoredOnce:
    @pytest.mark.parametrize("parallel", [True, False])
    def test_each_row_is_handed_over_and_returned_once(self, parallel, monkeypatch):
        # an untruncated cached decode hands cell_step each row of its final
        # buffer once, 1 + n + sum(len) rows in all, and gets one logits row
        # back per row; html_step returns each of the len(body) + 1 structure
        # rows once; the content buffer is built once per cell decode
        model = TableModel(tiny_cfg(image_side=64, html_blocks=2))
        builds = []
        build = decoding.content_buffer
        monkeypatch.setattr(decoding, "content_buffer", lambda c: builds.append(1) or build(c))
        for seed in range(5):
            rec = synth.generate(synth.PRESETS["dense"], seed=seed)
            body = list(rec.structure_ids)
            scripts = [content_ids(c)[:4] for c in rec.cells]
            scripted, handed = make_scripted_step(model, scripts), []

            def step(ids, layout, cond, memory):
                handed.append(len(ids))
                return scripted(ids, layout, cond, memory)

            recorded = Recorded(model, False, steer_to(body))
            try:
                res = recognize(model, rec.image, parallel=parallel, cell_step_fn=step)
            finally:
                recorded.remove()
            assert not any(res.truncated.values())
            assert [list(c.ids) for c in res.cell_seqs] == scripts
            assert sum(handed) == 1 + len(scripts) + sum(map(len, scripts))
            assert [a.shape[0] for a in recorded.cell] == handed
            assert sum(a.shape[0] for a in recorded.html) == len(body) + 1
        assert len(builds) == 5


def recording_step(model, plain, logs, scripts=None):
    """A cell step that records a copy of the real logits of every row a
    pass scores.  plain scores the replayed full buffer on the bare memory
    (the dense-mask reference); scripts, when given, steer the decode as the
    benchmark's scripted step does."""
    scripted = make_scripted_step(None, scripts) if scripts is not None else None
    replay = Replay()

    def step(buffer, layout, cond, memory):
        if plain:
            logits = plain_rows(model.cell_step, replay, buffer, layout, cond, memory)
        else:
            logits = model.cell_step(buffer, layout, cond, memory)
        logs.append(logits.data.copy())
        return logits if scripted is None else scripted(buffer, layout, cond, memory)

    return step


def assert_gathered_equals_dense(model, rec, monkeypatch, scripts=None):
    """Cached cell decoding builds the dense cell-wise mask for its first pass
    only; every later pass attends through gathered keys.  Under both
    schedules it equals the uncached dense-mask reference: same tokens and
    pass counts, logits within 1e-12 at every scored row."""
    cond, feats = conditioned(model, rec)
    for decode in (decode_cells_parallel, decode_cells_sequential):
        runs = {}
        for plain in (False, True):
            logs, dense = [], []
            build = L.build_cellwise_mask
            with monkeypatch.context() as mp:
                mp.setattr(L, "build_cellwise_mask", lambda *a: dense.append(a) or build(*a))
                step = recording_step(model, plain, logs, scripts)
                res = decode(model, cond, feats, step_fn=step)
            runs[plain] = res, logs, len(dense)
        (got, got_logs, got_dense), (want, want_logs, want_dense) = runs[False], runs[True]
        assert [c.ids for c in got.cells] == [c.ids for c in want.cells]
        assert got.passes == want.passes == len(got_logs) == len(want_logs)
        assert got.truncated == want.truncated
        assert (got_dense, want_dense) == (min(got.passes, 1), want.passes)
        for a, b in zip(got_logs, want_logs):
            assert a.shape == b.shape
            assert np.abs(a - b).max(initial=0.0) <= 1e-12


class TestGatheredCellKeys:
    def test_trained_toy_equals_dense_reference(self, trained_toy, wide_corpus, monkeypatch):
        model, _ = trained_toy
        for _, rec in wide_corpus:
            assert_gathered_equals_dense(model, rec, monkeypatch)

    def test_dense_tables_equal_dense_reference(self, monkeypatch):
        model = TableModel(tiny_cfg(image_side=64, html_blocks=2))
        spec = synth.PRESETS["dense"]
        for seed in range(20):
            rec = synth.generate(spec, seed=seed)
            scripts = [content_ids(c)[:6] for c in rec.cells]
            assert_gathered_equals_dense(model, rec, monkeypatch, scripts)

    def test_other_cells_keys_cannot_leak(self):
        # before each pass, set the held keys and values of every cell but c
        # (SOS excepted) to 1e6: the rows the pass adds to cell c stay bitwise
        # equal.  Poisoning cell c's own held rows does change them.  Odd
        # cells grow two tokens a pass, so new rows have unequal key counts
        # and the padded key slots are exercised too.
        model = TableModel(tiny_cfg())
        rec = synth.generate(synth.PRESETS["wide"], seed=3)
        cond, feats = conditioned(model, rec)
        cells = [content_ids(c)[:6] for c in rec.cells]
        n = len(cells)

        def lengths(t):
            return [min(len(c), t * (1 + k % 2)) for k, c in enumerate(cells)]

        def grown(t):
            return [c[:cut] for c, cut in zip(cells, lengths(t))]

        cache = DecodeCache(feats)
        checked = 0
        with ad.no_grad():
            model.cell_step(*content_buffer(grown(0)), cond, cache)
            for t in range(1, max(map(len, cells)) + 1):
                last = content_buffer(grown(t - 1))[1]
                held = last.seq
                held_rows = cache.table[held, last.pos]  # row of each position of it
                cur, layout = grown_rows(grown(t), lengths(t - 1))
                want = model.cell_step(cur, layout, cond, copy.deepcopy(cache)).data
                buffer, full = content_buffer(grown(t))
                plain = model.cell_step(buffer, full, cond, feats).data
                assert np.abs(want - plain[buffer_positions(full, layout)]).max() <= 1e-12
                for c in range(n):
                    new = np.flatnonzero(layout.seq == c + 1)
                    if not new.size:
                        continue
                    for own in (False, True):
                        pick = held == c + 1 if own else (held != c + 1) & (held != 0)
                        if not pick.any():  # cell c holds no row yet
                            continue
                        poisoned = copy.deepcopy(cache)
                        for sk in poisoned.self_keys:
                            sk.k[:, held_rows[pick]] = 1e6
                            sk.v[:, held_rows[pick]] = 1e6
                        got = model.cell_step(cur, layout, cond, poisoned).data
                        assert np.array_equal(got[new], want[new]) != own, (t, c, own)
                    checked += new.size
                model.cell_step(cur, layout, cond, cache)
        assert checked == sum(map(len, cells)) > n
