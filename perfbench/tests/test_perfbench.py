"""Tests of the benchmark harness: the scripted stand-ins, the per-operation
checks, input determinism, exact counts and the metric list."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from perfbench import spec
from perfbench import workloads as W
from perfbench.scripted import ScriptedStructure
from perfbench.tracer import Tracer, count_tape_nodes
from tabmark import autodiff, bench, decoding, synth, training
from tabmark.decoding import recognize
from tabmark.model import ModelConfig, TableModel

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def model():
    return TableModel(ModelConfig())


def small(name, pool=4):
    return replace(W.WORKLOADS[name], pool=pool)


def prepared(name, tmp_path, seed=3, pool=4):
    workload = small(name, pool)
    return workload, W.set_up(workload, seed, str(tmp_path / "model.ckpt"), repeats=1)


class TestScriptedStructure:
    def test_reproduces_true_structure_with_len_plus_one_real_calls(self, model, monkeypatch):
        real_calls = []
        real_step = TableModel.html_step

        def counting(self, *args):
            real_calls.append(len(args[0]))
            return real_step(self, *args)

        monkeypatch.setattr(TableModel, "html_step", counting)
        standin = ScriptedStructure(model)
        try:
            records = [synth.generate(synth.PRESETS["wide"], (11, i)) for i in range(3)]
            records.append(synth.generate(synth.PRESETS["dense"], (11, 0)))
            for record in records:
                real_calls.clear()
                standin.script(record.structure_ids)
                step = bench.make_scripted_step(model, W.content_scripts(record))
                res = recognize(model, record.image, parallel=True, cell_step_fn=step)
                body = record.structure_ids
                assert res.structure.ids == body
                assert len(real_calls) == len(body) + 1
                assert real_calls == list(range(1, len(body) + 2))
                assert res.html == record.html()
        finally:
            standin.remove()
        assert "html_step" not in vars(model)

    def test_refuses_a_second_stand_in(self, model):
        standin = ScriptedStructure(model)
        try:
            with pytest.raises(ValueError, match="already"):
                ScriptedStructure(model)
        finally:
            standin.remove()


class TestChecks:
    def test_wrong_output_is_counted_not_dropped(self, tmp_path, monkeypatch):
        workload, setup = prepared("recognize_wide", tmp_path)
        calls = []

        def corrupt_second(*args, **kwargs):
            res = recognize(*args, **kwargs)
            calls.append(1)
            if len(calls) == 2:
                res.html = res.html.replace("<td>", "<td>x", 1)
            return res

        monkeypatch.setattr(W, "recognize", corrupt_second)
        op = W.make_op(workload, setup)
        try:
            loop = W.run_loop(op, ops=3)
        finally:
            op.close()
        assert (loop.attempted, loop.failed) == (W.WARMUP_OPS + 3, 1)
        assert len(loop.samples) == 3
        assert loop.items_done == 2  # warm-up items are not timed, so not counted
        assert "rendered HTML differs" in loop.errors[0]

    def test_raising_operation_is_counted(self, tmp_path, monkeypatch):
        workload, setup = prepared("recognize_wide", tmp_path)

        def boom(*args, **kwargs):
            raise IndexError("injected")

        monkeypatch.setattr(W, "recognize", boom)
        op = W.make_op(workload, setup)
        try:
            loop = W.run_loop(op, ops=2)
        finally:
            op.close()
        assert loop.failed == loop.attempted == W.WARMUP_OPS + 2
        assert loop.items_done == 0
        assert "IndexError: injected" in loop.errors[0]

    def test_non_finite_training_loss_is_counted(self, tmp_path, monkeypatch):
        workload, setup = prepared("train_wide", tmp_path)
        monkeypatch.setattr(W, "train", lambda *a, **k: [{"total": math.nan}])
        loop = W.run_loop(W.make_op(workload, setup), ops=1)
        assert loop.failed == loop.attempted == W.WARMUP_OPS + 1
        assert "not finite" in loop.errors[0]

    def test_check_recognize_names_each_problem(self, model):
        record = synth.generate(synth.PRESETS["wide"], (5, 0))
        scripts = W.content_scripts(record)
        standin = ScriptedStructure(model)
        try:
            standin.script(record.structure_ids)
            step = bench.make_scripted_step(model, scripts)
            res = recognize(model, record.image, parallel=True, cell_step_fn=step)
        finally:
            standin.remove()
        n = len(record.structure_ids) + 1
        assert W.check_recognize(record, scripts, res, n) is None
        assert "html_step calls" in W.check_recognize(record, scripts, res, n + 1)
        res.passes["cell"] += 1
        assert "cell passes" in W.check_recognize(record, scripts, res, n)
        res.truncated["cell"] = True
        assert "truncated" in W.check_recognize(record, scripts, res, n)


class TestDeterminism:
    def test_same_seed_same_inputs(self):
        for name in W.WORKLOADS:
            workload = small(name, pool=6)
            a, b = W.generate_inputs(workload, 7), W.generate_inputs(workload, 7)
            for ra, rb in zip(a, b):
                assert np.array_equal(ra.image, rb.image)
                assert ra.structure_ids == rb.structure_ids
                assert ra.cells == rb.cells
                assert np.array_equal(ra.boxes, rb.boxes)
            other = W.generate_inputs(workload, 8)
            assert [r.cells for r in other] != [r.cells for r in a]

    @pytest.mark.parametrize(
        "name, ops, keys",
        [
            ("recognize_wide", 2, ("model.html_step.rows", "model.cell_step.rows",
                                   "decoding.cell_passes")),
            ("train_wide", 1, ("model.html_step.rows", "model.cell_step.rows",
                               "autodiff.tape_nodes")),
        ],
    )
    def test_exact_counts_repeat(self, name, ops, keys, tmp_path):
        def counts():
            workload, setup = prepared(name, tmp_path)
            op = W.make_op(workload, setup)
            tracer = Tracer()
            try:
                loop = W.run_loop(op, ops=ops, tracer=tracer)
            finally:
                op.close()
            assert loop.failed == 0
            return tracer, loop

        (first, loop), (second, _) = counts(), counts()
        for key in keys:
            assert first.counters[key] > 0
            assert first.counters[key] == second.counters[key], key

        # spans nest: self times of every span sum to the operations' wall time
        seconds, calls = first.self_times()
        op_total = sum(e - s for nid, _p, _o, s, e in first.spans if first.names[nid] == "op")
        assert sum(seconds.values()) == pytest.approx(op_total, rel=1e-9)
        assert calls["op"] == len(loop.traced_samples) == ops
        layer = W.per_layer(first, loop)
        assert set(layer) == set(W.PER_LAYER)
        assert 0.0 <= layer["trace.unaccounted_share"][0] < 0.2


class TestTracer:
    def test_every_wrapper_is_removed(self, model):
        standin = ScriptedStructure(model)
        before = {
            "matmul": autodiff.matmul,
            "backward": autodiff.Tensor.backward,
            "step": training.AdamW.step,
            "sample_loss": training.sample_loss,
            "state": decoding.DecodeState,
            "make": bench.make_scripted_step,
            "attn": model.html_blocks[0].self_attn,
        }
        try:
            with Tracer().installed(model, standin):
                assert autodiff.matmul is not before["matmul"]
                assert model.html_step is not standin
        finally:
            standin.remove()
        after = {
            "matmul": autodiff.matmul,
            "backward": autodiff.Tensor.backward,
            "step": training.AdamW.step,
            "sample_loss": training.sample_loss,
            "state": decoding.DecodeState,
            "make": bench.make_scripted_step,
            "attn": model.html_blocks[0].self_attn,
        }
        assert after == before
        assert not {"html_step", "cell_step", "encode_image"} & set(vars(model))

    def test_tape_walk_leaves_graph_alone(self):
        a = autodiff.Tensor(np.ones((2, 2)), requires_grad=True)
        loss = autodiff.mean(autodiff.matmul(a, a))
        parents = loss._parents
        assert count_tape_nodes(loss) == 3  # mean <- matmul <- a
        assert loss._parents is parents


def test_benchmark_json_matches_the_code():
    """BENCHMARK.json is what ``run.py --workload all --seed 1 --write-spec`` writes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        on_disk = json.load(fh)
    properties = {
        name: W.input_properties(W.generate_inputs(workload, 1))
        for name, workload in W.WORKLOADS.items()
    }
    assert on_disk == spec.build(properties)
    e2e = W.end_to_end(
        W.WORKLOADS["train_wide"],
        W.Setup([], None, [1.0]),
        W.Loop(samples=[1.0, 2.0], items_done=2, elapsed=1.0),
        1.0,
    )
    assert list(e2e) == [m["name"] for m in on_disk["end_to_end"]]
