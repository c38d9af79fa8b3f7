"""Benchmark harness tests: scripted steps, per-sample verification, reports."""

import numpy as np
import pytest

from tabmark import synth
from tabmark import vocab as V
from tabmark.bench import BenchMismatch, BenchReport, make_scripted_step, run_bench, verify_sample
from tabmark.decoding import RecognizeResult, decode_cells_parallel, decode_cells_sequential
from tabmark.model import ModelConfig, TableModel


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


def forced_cells_model(n_cells, **kw):
    """A model whose structure decoder always emits exactly n_cells anchors
    (it spams </td> into a truncating cap)."""
    m = TableModel(tiny_cfg(struct_cap=n_cells + 1, **kw))
    m.params["html.out.w"].data[:] = 0.0
    b = m.params["html.out.b"].data
    b[:] = 0.0
    b[V.STRUCTURE["</td>"]] = 1.0
    return m


def content_ids(text):
    return list(V.tokenize_content(text).ids)


def fake_result(cells, passes, parallel, truncated=False):
    seqs = [V.TokenSeq("content", tuple(c)) for c in cells]
    return RecognizeResult(
        html="<table></table>",
        boxes=np.zeros((0, 4)),
        structure=V.TokenSeq("structure", ()),
        cell_seqs=seqs,
        cells=[V.detokenize_content(s.ids) for s in seqs],
        passes={"structure": 1, "cell": passes},
        truncated={"structure": False, "cell": truncated},
        timings={"html": 0.01, "bbox": 0.02, "cell": 0.03},
        parallel=parallel,
    )


def looped_scripted_logits(scripts, buffer, layout):
    """The scripted logits built row by row: the reference for
    make_scripted_step, which is handed a pass's new rows."""
    n_cells = len(scripts)
    logits = np.zeros((len(buffer), len(V.CONTENT)))
    for p in range(len(buffer)):
        s, pos = int(layout.seq[p]), int(layout.pos[p])
        if 1 <= s <= n_cells:  # the pos-th token of cell s - 1 predicts the one after it
            cell, nxt = s - 1, pos + 1
        else:  # the root predicts cell 0's first token, the k-th SEP cell k + 1's
            cell, nxt = (s - n_cells if s else 0), 0
        if cell == n_cells:  # past the last cell
            logits[p, V.CONTENT.eos] = 1.0
            continue
        script = scripts[cell]
        logits[p, script[nxt] if nxt < len(script) else V.SEP_ID] = 1.0
    return logits


class TestScriptedStep:
    @pytest.mark.parametrize("decode", [decode_cells_parallel, decode_cells_sequential])
    def test_equals_looped_logits_on_dense_tables(self, decode):
        model = TableModel(tiny_cfg())
        for seed in range(20):
            record = synth.generate(synth.PRESETS["dense"], seed=seed)
            scripts = [content_ids(text) for text in record.cells]
            scripted = make_scripted_step(None, scripts)
            passes = 0

            def step(buffer, layout, cond, img_feats):
                nonlocal passes
                passes += 1
                logits = scripted(buffer, layout, cond, img_feats)
                assert np.array_equal(logits, looped_scripted_logits(scripts, buffer, layout))
                return logits

            cond = np.zeros((len(scripts), model.cfg.d))
            out = decode(model, cond, None, step_fn=step)
            assert [list(c.ids) for c in out.cells] == scripts
            assert passes == out.passes > 0


    def test_fewer_scripts_than_cells_names_both_counts(self):
        model = TableModel(tiny_cfg())
        record = synth.generate(synth.PRESETS["dense"], seed=0)
        scripts = [content_ids(text) for text in record.cells]
        step = make_scripted_step(None, scripts[:-2])
        cond = np.zeros((len(scripts), model.cfg.d))
        want = f"the structure has {len(scripts)} cells but there are {len(scripts) - 2} scripts"
        with pytest.raises(ValueError, match=want):
            decode_cells_parallel(model, cond, None, step_fn=step)


class TestVerifySample:
    def test_accepts_matching_results(self):
        cells = [content_ids("ab"), content_ids("xyz")]
        verify_sample(fake_result(cells, 4, True), fake_result(cells, 7, False))

    def test_rejects_token_mismatch(self):
        par = fake_result([content_ids("ab")], 3, True)
        seq = fake_result([content_ids("ac")], 3, False)
        with pytest.raises(BenchMismatch, match="differ"):
            verify_sample(par, seq)

    def test_rejects_broken_parallel_law(self):
        cells = [content_ids("ab"), content_ids("xyz")]
        with pytest.raises(BenchMismatch, match="parallel passes"):
            verify_sample(fake_result(cells, 5, True), fake_result(cells, 7, False))

    def test_rejects_broken_sequential_law(self):
        cells = [content_ids("ab"), content_ids("xyz")]
        with pytest.raises(BenchMismatch, match="sequential passes"):
            verify_sample(fake_result(cells, 4, True), fake_result(cells, 8, False))

    def test_truncated_samples_are_skipped(self):
        par = fake_result([content_ids("ab")], 99, True, truncated=True)
        seq = fake_result([content_ids("zzzz")], 1, False)
        verify_sample(par, seq)  # no raise: not comparable


class TestRunBench:
    def test_scripted_report(self):
        m = forced_cells_model(3)
        scripts = [content_ids("ab"), content_ids("hello"), content_ids("xyz")]
        images = [np.zeros((32, 32)) for _ in range(21)]
        fns = [make_scripted_step(None, scripts)] * len(images)
        report = run_bench(m, images, step_fns=fns)
        assert report.samples == 21
        assert report.modes["parallel"]["cell_passes"] == 6.0
        assert report.modes["sequential"]["cell_passes"] == 13.0
        assert report.pass_ratio == pytest.approx(13 / 6)
        assert report.cell_stage_speedup > 0
        for row in report.modes.values():
            assert 0 < row["html"] <= row["bbox"] <= row["cell"]

    def test_honest_timing_mode_runs_the_model(self):
        m = forced_cells_model(2)
        scripts = [content_ids("ab"), content_ids("wxyz")]
        images = [np.zeros((32, 32)) for _ in range(3)]
        fns = [make_scripted_step(m, scripts)] * len(images)
        report = run_bench(m, images, min_samples=3, step_fns=fns)
        assert report.modes["parallel"]["cell_passes"] == 5.0
        assert report.modes["sequential"]["cell_passes"] == 8.0

    def test_mismatching_decoder_fails_loudly(self):
        # buffer-length-dependent emissions diverge between the schedules
        m = forced_cells_model(2)
        sizes = {}  # per decode's cache: the buffer length, summed over the rows handed over

        def step(buffer, layout, cond, img_feats):
            size = sizes[img_feats] = sizes.get(img_feats, 0) + len(buffer)
            logits = np.zeros((len(buffer), len(V.CONTENT)))
            token = 6 if size < 5 else V.SEP_ID
            logits[:, token] = 1.0
            return logits

        images = [np.zeros((32, 32)) for _ in range(3)]
        with pytest.raises(BenchMismatch, match="differ"):
            run_bench(m, images, min_samples=3, step_fns=[step] * 3)

    def test_requires_enough_samples(self):
        m = forced_cells_model(1)
        with pytest.raises(ValueError, match="at least 20"):
            run_bench(m, [np.zeros((32, 32))] * 5)

    def test_step_fn_count_must_match(self):
        m = forced_cells_model(1)
        images = [np.zeros((32, 32))] * 3
        with pytest.raises(ValueError, match="per image"):
            run_bench(m, images, min_samples=3, step_fns=[None] * 2)


class TestBenchReport:
    def report(self):
        modes = {
            "parallel": dict(
                html=0.1, bbox=0.2, cell=0.3, cell_stage=0.1, structure_passes=9.0, cell_passes=5.0
            ),
            "sequential": dict(
                html=0.1, bbox=0.2, cell=0.7, cell_stage=0.5, structure_passes=9.0, cell_passes=20.0
            ),
        }
        return BenchReport(samples=4, modes=modes)

    def test_ratios(self):
        r = self.report()
        assert r.pass_ratio == 4.0
        assert r.cell_stage_speedup == pytest.approx(5.0)

    def test_as_dict_timing_toggle(self):
        r = self.report()
        full = r.as_dict()
        assert full["cell_stage_speedup"] == pytest.approx(5.0)
        lean = r.as_dict(timings=False)
        assert "cell_stage_speedup" not in lean
        assert lean["pass_ratio"] == 4.0
        for row in lean["modes"].values():
            assert set(row) == {"structure_passes", "cell_passes"}

    def test_to_text_mentions_both_modes(self):
        text = self.report().to_text()
        assert "parallel" in text and "sequential" in text
        assert "pass ratio" in text
