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


def no_run(*_):
    raise AssertionError("a benchmark run started")


def main(monkeypatch, *args, run=no_run):
    """Run the script's main with args after the required ones."""
    monkeypatch.setattr(bench_pairs, "run", run)
    argv = ["bench_pairs.py", "--parent", "p", "--change", "c", "--parent-commit", "abc",
            "--slug", "t", "--what", "w"]
    monkeypatch.setattr("sys.argv", argv + list(args))
    bench_pairs.main()


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_rejected_before_running(monkeypatch, capsys, pairs):
    with pytest.raises(SystemExit) as e:
        main(monkeypatch, "--pairs", pairs, "--workloads", "recognize_dense")
    assert e.value.code == 2
    assert f"--pairs needs at least 2 pairs for quartiles, got {pairs}" in capsys.readouterr().err


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ["recognize_dense", "train_wide"]


@pytest.mark.parametrize(
    "claim, want",
    [
        (None, None),
        (["recognize_dense"], {"workload": "recognize_dense", "metric": "op_s.p50"}),
        (["recognize_dense", "setup_s"], {"workload": "recognize_dense", "metric": "setup_s"}),
        (["train_wide", "items_per_s"], {"workload": "train_wide", "metric": "items_per_s"}),
    ],
)
def test_claim_names_workload_and_metric(claim, want):
    assert bench_pairs.claim_of(claim, SPEC, RUN) == want


@pytest.mark.parametrize(
    "claim, fault",
    [
        (["recognize_dens"], "claimed workload 'recognize_dens' is not in BENCHMARK.json"),
        (["recognize_dense", "setup"], "claimed metric 'setup' is not in BENCHMARK.json"),
        (["recognize_wide"], "claimed workload 'recognize_wide' is not among --workloads"),
        (["recognize_dense", "setup_s", "x"], "--claim takes a workload and at most one metric"),
    ],
)
def test_bad_claim_rejected_before_running(monkeypatch, capsys, claim, fault):
    with pytest.raises(ValueError, match=fault.replace("(", r"\(")):
        bench_pairs.claim_of(claim, SPEC, RUN)
    with pytest.raises(SystemExit) as e:
        main(monkeypatch, "--workloads", *RUN, "--claim", *claim)
    assert e.value.code == 2 and fault in capsys.readouterr().err


def test_claimed_metric_is_written(monkeypatch, tmp_path):
    """The written JSON names the claimed metric, not op_s.p50 whatever is claimed."""
    results = iter(range(1000))

    def fake_run(tree, workload, seed):
        v = 1.0 + next(results) / 100
        metrics = {name: {"value": v} for name in (m["name"] for m in SPEC["end_to_end"])}
        record = {k: None for k in bench_pairs.MACHINE_KEYS}
        return {"correct": 1, "attempted": 1, "failed": 0, "metrics": metrics}, record

    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    main(monkeypatch, "--pairs", "2", "--workloads", "recognize_dense",
         "--claim", "recognize_dense", "setup_s", run=fake_run)
    out = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert out["claimed"] == {"workload": "recognize_dense", "metric": "setup_s"}
    assert out["command"].endswith("--claim recognize_dense setup_s")
    assert out["summary"]["recognize_dense"]["pairs"] == 2


def test_src_line_counts_are_written(monkeypatch, tmp_path):
    """Each tree's src/ line count, Python files only, nested ones too."""
    for tree, files in (("parent", {"a.py": 3, "pkg/b.py": 4, "notes.txt": 9}),
                        ("change", {"a.py": 2, "pkg/b.py": 4})):
        for name, n in files.items():
            path = tmp_path / tree / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x\n" * n, encoding="utf-8")
    assert bench_pairs.src_lines(str(tmp_path / "parent")) == 7
    assert bench_pairs.src_lines(str(tmp_path / "nowhere")) == 0

    def fake_run(tree, workload, seed):
        metrics = {m["name"]: {"value": 1.0 + seed / 100} for m in SPEC["end_to_end"]}
        record = {k: None for k in bench_pairs.MACHINE_KEYS}
        return {"correct": 1, "attempted": 1, "failed": 0, "metrics": metrics}, record

    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    main(monkeypatch, "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--pairs", "2", "--workloads", "recognize_wide", run=fake_run)
    out = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert out["src_lines"] == {"parent": 7, "change": 6}
