"""scripts/bench_pairs.py's summary on synthetic runs: the no-regression
verdict per metric, under each metric's bound and direction."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "op_s.p50", "better": "lower", "bound": 0.25}
HIGHER = {"name": "items_per_s", "better": "higher", "bound": 0.25}


def runs(parent, change, name):
    out = []
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        for side, v in (("parent", p), ("change", c)):
            out.append({"seed": seed, "side": side, "failed": 0, "metrics": {name: v}})
    return out


def verdict(parent, change, metric):
    return bench_pairs.summarize(runs(parent, change, metric["name"]), {metric["name"]: metric})[
        metric["name"]
    ]["no_regression"]


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # IQR well inside 0.25
WIDE = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]  # IQR 0.4 > 0.25 of the median


@pytest.mark.parametrize(
    "parent, change, metric, want",
    [
        (TIGHT, TIGHT, LOWER, "ok"),
        (TIGHT, [v * 1.2 for v in TIGHT], LOWER, "ok"),  # worse, but inside the bound
        (TIGHT, [v * 1.3 for v in TIGHT], LOWER, "worse"),
        (TIGHT, [v * 0.7 for v in TIGHT], LOWER, "ok"),
        (TIGHT, [v * 0.7 for v in TIGHT], HIGHER, "worse"),  # direction decides
        (TIGHT, [v * 1.3 for v in TIGHT], HIGHER, "ok"),
        (WIDE, WIDE, LOWER, "unresolved"),  # spread wider than the bound
        (WIDE, [v * 0.3 for v in WIDE], LOWER, "ok"),  # every change run beats every parent run
        (WIDE, [v * 3.0 for v in WIDE], HIGHER, "ok"),
        (WIDE, [v * 1.3 for v in WIDE], LOWER, "worse"),  # worse beats unresolved
    ],
)
def test_no_regression_verdict(parent, change, metric, want):
    assert verdict(parent, change, metric) == want


def test_every_benchmark_metric_gets_a_verdict():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeded = []
    for seed in (1, 2, 3, 4):
        for side in ("parent", "change"):
            values = {name: 1.0 + seed / 100 for name in metrics}
            seeded.append({"seed": seed, "side": side, "failed": 0, "metrics": values})
    summary = bench_pairs.summarize(seeded, metrics)
    assert {summary[name]["no_regression"] for name in metrics} == {"ok"}
    assert summary["failed"] == {"parent": 0, "change": 0}
