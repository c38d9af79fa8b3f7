"""The benchmark's workloads: inputs, set-up, the timed operation, its checks,
and the closed loop that runs it.

Every workload uses the default ModelConfig with untrained weights and the
real forward passes.  Output lengths are scripted: the structure decoder
through ScriptedStructure, the cell decoder through bench.make_scripted_step
with the true transcripts, so an untrained model decodes real table lengths.
Load is a closed loop with one client: the next operation starts when the
previous one has returned, as in ``tabmark infer`` and ``tabmark train``.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from tabmark import bench, checkpoint, synth
from tabmark import vocab as V
from tabmark.decoding import recognize
from tabmark.model import ModelConfig, TableModel
from tabmark.training import TrainConfig, train

from .scripted import ScriptedStructure
from .tracer import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "recognize" or "train"
    preset: str
    pool: int  # distinct tables generated at set-up; operations cycle through them
    tail_pct: float  # fixed per workload, so that two commits compare one percentile
    # why the workload exists, recorded beside it in BENCHMARK.json; the fields
    # are filled from input_properties() of the generated inputs
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recognize_dense", "recognize", "dense", pool=64, tail_pct=75.0,
            why="dense preset, {structure_tokens:.1f} structure tokens, {cells:.1f} cells, "
            "{cell_buffer_rows:.0f}-row cell buffer per table: long prefixes make decoding "
            "and self-attention dominate; a KV cache shows here first",
        ),
        Workload(
            "recognize_wide", "recognize", "wide", pool=256, tail_pct=95.0,
            why="wide preset, {structure_tokens:.1f} structure tokens, {cells:.1f} cells, "
            "{cell_buffer_rows:.0f}-row cell buffer: short sequences make per-pass costs "
            "dominate (image cross-attention, masks, Python); added overhead shows here",
        ),
        Workload(
            "train_wide", "train", "wide", pool=256, tail_pct=80.0,
            why="wide preset ({structure_tokens:.1f} tokens, {cells:.1f} cells, "
            "{cell_buffer_rows:.0f}-row buffer) in minibatches of 8 through training.train: "
            "forward, backward, AdamW; a fused attention op or smaller tape shows here",
        ),
    )
}

# set-ups timed before the timed phase and again after it, so that setup_s
# samples the machine at both ends of a run, as the operation timings do
SETUP_REPEATS = 3
WARMUP_OPS = 1
# one train() call is one minibatch step of the default size
TRAIN_CONFIG = TrainConfig(epochs=1)


def content_scripts(record: synth.TableRecord) -> list[list[int]]:
    """The true content token ids of every cell, in reading order."""
    return [list(V.tokenize_content(text).ids) for text in record.cells]


def generate_inputs(workload: Workload, seed: int) -> list[synth.TableRecord]:
    spec = synth.PRESETS[workload.preset]
    return [synth.generate(spec, (seed, i)) for i in range(workload.pool)]


def input_properties(records) -> dict[str, float]:
    """Mean structure length, cells per table and final cell-buffer rows."""
    buffers = [1 + sum(len(s) + 1 for s in content_scripts(r)) for r in records]
    return {
        "structure_tokens": float(np.mean([len(r.structure_ids) for r in records])),
        "cells": float(np.mean([r.n_cells() for r in records])),
        "cell_buffer_rows": float(np.mean(buffers)),
    }


class SetupError(RuntimeError):
    """The set-up produced something the workload cannot run on."""


@dataclass
class Setup:
    records: list[synth.TableRecord]
    model: TableModel
    seconds: list[float]  # one per repetition


def set_up(workload: Workload, seed: int, ckpt_path: str, repeats: int = SETUP_REPEATS) -> Setup:
    """What ``tabmark infer`` pays before its first image, timed `repeats` times:
    input generation, model construction and a checkpoint save/load round trip.
    The last repetition's inputs and loaded model are used."""
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        records = generate_inputs(workload, seed)
        built = TableModel(ModelConfig())
        checkpoint.save(ckpt_path, built)
        model = checkpoint.load(ckpt_path)
        seconds.append(time.perf_counter() - t0)
    for name, tensor in built.params.items():
        if not np.array_equal(tensor.data, model.params[name].data):
            raise SetupError(f"checkpoint round trip changed tensor {name!r}")
    return Setup(records, model, seconds)


# -- operations -----------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    items: int
    error: str | None


def check_recognize(record, scripts, res, html_calls: int) -> str | None:
    """None when one recognize() result is right, else what is wrong."""
    want_struct = len(record.structure_ids) + 1
    want_cell = max((len(s) for s in scripts), default=-1) + 1
    problems = []
    if res.html != record.html():
        problems.append("rendered HTML differs from the record")
    if any(res.truncated.values()):
        problems.append(f"truncated {res.truncated}")
    if res.passes["structure"] != want_struct or html_calls != want_struct:
        problems.append(
            f"structure passes {res.passes['structure']} and html_step calls {html_calls}, "
            f"want {want_struct}"
        )
    if res.passes["cell"] != want_cell:
        problems.append(f"cell passes {res.passes['cell']}, want {want_cell}")
    return "; ".join(problems) or None


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class RecognizeOp:
    """One recognize(parallel=True) call per operation."""

    def __init__(self, setup: Setup):
        self.model = setup.model
        self.records = setup.records
        self.structure = ScriptedStructure(self.model)

    def __call__(self, i: int, tracer: Tracer | None = None) -> Outcome:
        record = self.records[i % len(self.records)]
        scripts = content_scripts(record)
        self.structure.script(record.structure_ids)
        traced = tracer.installed(self.model, self.structure) if tracer else nullcontext()
        res = error = None
        with traced:
            step = bench.make_scripted_step(self.model, scripts)
            t0 = time.perf_counter()
            try:
                with tracer.span("op") if tracer else nullcontext():
                    res = recognize(self.model, record.image, parallel=True, cell_step_fn=step)
            except Exception as exc:  # a failing operation is counted, not fatal
                error = _describe(exc)
            seconds = time.perf_counter() - t0
        if res is not None:
            error = check_recognize(record, scripts, res, self.structure.calls)
            if tracer:
                tracer.count("decoding.structure_passes", res.passes["structure"])
                tracer.count("decoding.cell_passes", res.passes["cell"])
                tracer.count("decoding.cell_passes_seq_law", sum(len(s) + 1 for s in scripts))
        return Outcome(seconds, 1, error)

    def close(self) -> None:
        self.structure.remove()


class TrainOp:
    """One training.train() call over one minibatch per operation."""

    def __init__(self, setup: Setup):
        self.model = setup.model
        self.records = setup.records

    def __call__(self, i: int, tracer: Tracer | None = None) -> Outcome:
        n = TRAIN_CONFIG.batch_size
        batch = [self.records[(i * n + j) % len(self.records)] for j in range(n)]
        traced = tracer.installed(self.model) if tracer else nullcontext()
        rows = error = None
        with traced:
            t0 = time.perf_counter()
            try:
                with tracer.span("op") if tracer else nullcontext():
                    rows = train(self.model, batch, TRAIN_CONFIG)
            except Exception as exc:  # a failing operation is counted, not fatal
                error = _describe(exc)
            seconds = time.perf_counter() - t0
        if rows is not None and not (len(rows) == 1 and math.isfinite(rows[0]["total"])):
            error = f"loss is not finite: {rows}"
        return Outcome(seconds, n, error)

    def close(self) -> None:
        pass


def make_op(workload: Workload, setup: Setup):
    return (RecognizeOp if workload.kind == "recognize" else TrainOp)(setup)


# -- the closed loop --------------------------------------------------------------


@dataclass
class Loop:
    """What one closed-loop run did.  Failed operations stay in the samples."""

    samples: list[float] = field(default_factory=list)  # seconds per timed op
    traced_samples: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    items_done: int = 0
    elapsed: float = 0.0
    errors: list[str] = field(default_factory=list)

    def record(self, i: int, out: Outcome, timed: bool = True) -> None:
        self.attempted += 1
        if out.error is not None:
            self.failed += 1
            self.errors.append(f"op {i}: {out.error}")
        elif timed:
            self.items_done += out.items


def run_loop(op, seconds: float | None = None, ops: int | None = None, tracer=None) -> Loop:
    """Run op(0), op(1), ... until `seconds` have passed or `ops` ran.

    WARMUP_OPS untimed operations come first; they are checked and counted as
    attempted like the rest.  With a tracer, every operation runs twice in a
    row, untraced then traced, so the two timings share their inputs and the
    difference of their medians is the tracing overhead.
    """
    if seconds is None and ops is None:
        raise ValueError("give seconds or ops")
    loop = Loop()
    for w in range(WARMUP_OPS):
        loop.record(w, op(w), timed=False)
    start = time.perf_counter()
    i = 0
    while (ops is None or i < ops) and (seconds is None or time.perf_counter() - start < seconds):
        out = op(i)
        loop.record(i, out)
        loop.samples.append(out.seconds)
        if tracer is not None:
            tracer.op = i
            out = op(i, tracer)
            loop.record(i, out)
            loop.traced_samples.append(out.seconds)
        i += 1
    loop.elapsed = time.perf_counter() - start
    return loop


# -- metrics ------------------------------------------------------------------------


def tail(samples, pct: float) -> tuple[float, int]:
    """(the pct-th percentile, how many samples lie above it)."""
    value = float(np.percentile(samples, pct))
    return value, int(sum(s > value for s in samples))


# name -> (unit, better, bound) of every end-to-end metric.  The bound is the
# share of the parent's median by which a change may worsen the metric.  The
# failed share is printed beside them but is not one: it is 0 on a correct run.
END_TO_END = {
    "op_s.p50": ("s", "lower", 0.25),
    "op_s.tail": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def end_to_end(workload: Workload, setup: Setup, loop: Loop, peak_rss_mb: float) -> dict:
    tail_s, _ = tail(loop.samples, workload.tail_pct)
    values = {
        "op_s.p50": statistics.median(loop.samples),
        "op_s.tail": tail_s,
        "items_per_s": loop.items_done / loop.elapsed,
        "setup_s": statistics.median(setup.seconds),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (values[name], END_TO_END[name][0]) for name in END_TO_END}


# name -> unit of every per-layer metric; seconds are self time per operation,
# counts are per operation, checkpoint seconds are per call (set-up only)
PER_LAYER = {
    **{f"{n}.s": "s" for n in (
        "model.html_step", "decoding.decode_html", "layers.build_local_mask",
        "layers.html.self_attn", "layers.html.cross_attn", "layers.html.ffn",
        "decoding.decode_cells_parallel", "model.cell_step", "layers.build_cellwise_mask",
        "layers.cell.self_attn", "layers.cell.cross_attn", "layers.cell.ffn",
        "autodiff.masked_softmax", "model.encode_image", "autodiff.conv2d",
        "synth.prepare_image", "model.refine", "layers.refiner.self_attn",
        "layers.refiner.ffn", "model.bbox_head", "training.sample_loss",
        "autodiff.backward", "training.AdamW.step", "autodiff.matmul",
        "autodiff.layer_norm", "checkpoint.save", "checkpoint.load", "bench.script",
    )},
    **{f"{n}.calls": "count" for n in (
        "model.html_step", "model.cell_step", "autodiff.masked_softmax", "autodiff.conv2d",
        "training.AdamW.step", "autodiff.matmul", "autodiff.layer_norm",
    )},
    "model.html_step.rows": "count",
    "model.cell_step.rows": "count",
    "autodiff.masked_softmax.elements": "count",
    "decoding.structure_passes": "count",
    "decoding.cell_passes": "count",
    "decoding.cell_passes_seq_law": "count",
    "decoding.read_rows": "count",
    "decoding.read_share": "ratio",
    "autodiff.tape_nodes": "count",
    "trace.overhead_s": "s",
    "trace.unaccounted_share": "ratio",
}
# the per-layer metrics on which a larger value is the better one
HIGHER_IS_BETTER = {"decoding.read_share"}

_PER_CALL = ("checkpoint.save", "checkpoint.load")  # set-up spans, not per operation


def per_layer(tracer: Tracer, loop: Loop) -> dict:
    seconds, calls = tracer.self_times()
    n_ops = len(loop.traced_samples)
    values: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if suffix == "s" and base in _PER_CALL:
            values[name] = seconds.get(base, 0.0) / max(calls.get(base, 0), 1)
        elif suffix == "s":
            values[name] = seconds.get(base, 0.0) / n_ops
        elif suffix == "calls":
            values[name] = calls.get(base, 0) / n_ops
        else:
            values[name] = tracer.counters.get(name, 0.0) / n_ops
    cell_rows = tracer.counters.get("model.cell_step.rows", 0.0)
    values["decoding.read_share"] = (
        tracer.counters.get("decoding.read_rows", 0.0) / cell_rows if cell_rows else 0.0
    )
    values["trace.overhead_s"] = statistics.median(loop.traced_samples) - statistics.median(
        loop.samples
    )
    op_total = sum(
        end - start for nid, _p, _op, start, end in tracer.spans if tracer.names[nid] == "op"
    )
    values["trace.unaccounted_share"] = seconds.get("op", 0.0) / op_total
    return {name: (values[name], PER_LAYER[name]) for name in PER_LAYER}
