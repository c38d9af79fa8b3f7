"""Run perfbench/run.py on two trees in alternating pairs and write a BENCH_<slug>.json.

    git archive <parent-commit> | tar -x -C <parent-dir>
    git archive <change-commit> | tar -x -C <change-dir>
    python3 scripts/bench_pairs.py --parent <parent-dir> --change <change-dir> \\
        --parent-commit <sha> --slug <slug> --what "<one line>" --pairs 10 \\
        --workloads recognize_dense recognize_wide train_wide --claim recognize_dense setup_s

`--claim WORKLOAD [METRIC]` names the claimed workload and end-to-end metric
(op_s.p50 when no metric is named); both must be in BENCHMARK.json, and the
workload among those run.  At least 2 pairs are needed for quartiles.
Pair i runs seed i+1 on both sides with `--trace 0` and BENCHMARK.json's
run_seconds; the parent runs first in even pairs, the change in odd ones.
Every run is kept.  The summary gives, per workload and end-to-end metric,
each side's median and quartiles, the ratio of the medians (change over
parent) and the number of pairs the change won.  A claimed metric is met when
the change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range.  Every metric also gets the
no-regression verdict under its BENCHMARK.json bound (see `verdict`).  The
payload also gives each tree's `src/` line count (`src_lines`), so the net
`src/` delta of the change is measured, not typed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PREFIX = "run_record "
MACHINE_KEYS = ("nproc", "cpus_usable", "python", "numpy", "blas", "blas_threads_env",
                "model_config")


def run(tree: str, workload: str, seed: int) -> tuple[dict, dict]:
    """One perfbench run in tree: its result line and its run record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd + ["--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = next(ln for ln in lines if ln.startswith(RECORD_PREFIX))
    return json.loads(lines[-1]), json.loads(record[len(RECORD_PREFIX):])


def src_lines(tree: str) -> int:
    """Lines of the Python files under tree/src, as `wc -l` counts them."""
    total = 0
    for root, _dirs, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """"worse" when the change median is worse than the parent median by more
    than bound (relative to the parent median); otherwise "unresolved" when
    the parent's interquartile range exceeds bound relative to its median and
    not every change run beats every parent run; otherwise "ok"."""
    pq1, pmed, pq3 = quartiles(parent)
    cmed = quartiles(change)[1]
    worse_by = cmed - pmed if better == "lower" else pmed - cmed
    if worse_by > bound * abs(pmed):
        return "worse"
    beats_all = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if pq3 - pq1 > bound * abs(pmed) and not beats_all:
        return "unresolved"
    return "ok"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per end-to-end metric (name -> its BENCHMARK.json entry): both sides'
    quartiles, the median ratio, the change's wins, the claim rule and the
    no-regression verdict."""
    pairs = sorted({r["seed"] for r in runs})
    side = {s: {r["seed"]: r for r in runs if r["side"] == s} for s in ("parent", "change")}
    out: dict = {"pairs": len(pairs)}
    for name, m in metrics.items():
        direction = m["better"]
        p = [side["parent"][s]["metrics"][name] for s in pairs]
        c = [side["change"][s]["metrics"][name] for s in pairs]
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        out[name] = {
            "parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "ratio": cmed / pmed, "change_wins": wins,
            "claim_rule_met": wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1,
            "no_regression": verdict(p, c, direction, m["bound"]),
        }
    out["failed"] = {s: sum(side[s][k]["failed"] for k in pairs) for s in side}
    return out


def claim_of(claim: list[str] | None, spec: dict, workloads: list[str]) -> dict | None:
    """The claimed workload and metric from `--claim WORKLOAD [METRIC]`;
    ValueError names what BENCHMARK.json or the run does not have."""
    if claim is None:
        return None
    if len(claim) > 2:
        raise ValueError(f"--claim takes a workload and at most one metric, got {claim}")
    workload, metric = claim[0], claim[1] if len(claim) == 2 else "op_s.p50"
    known = {"workload": [w["name"] for w in spec["workloads"]],
             "metric": [m["name"] for m in spec["end_to_end"]]}
    for kind, name in (("workload", workload), ("metric", metric)):
        if name not in known[kind]:
            raise ValueError(f"claimed {kind} {name!r} is not in BENCHMARK.json: {known[kind]}")
    if workload not in workloads:
        raise ValueError(f"claimed workload {workload!r} is not among --workloads {workloads}")
    return {"workload": workload, "metric": metric}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--slug", required=True)
    ap.add_argument("--what", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--claim", nargs="+", default=None, metavar=("WORKLOAD", "METRIC"),
                    help="the claimed workload and metric (default metric op_s.p50)")
    ns = ap.parse_args()
    if ns.pairs < 2:
        ap.error(f"--pairs needs at least 2 pairs for quartiles, got {ns.pairs}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        claimed = claim_of(ns.claim, spec, ns.workloads)
    except ValueError as e:
        ap.error(str(e))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    command = (
        f"python3 scripts/bench_pairs.py --parent <parent-dir> --change <change-dir> "
        f"--parent-commit {ns.parent_commit} --slug {ns.slug} --pairs {ns.pairs} "
        f"--first-seed {ns.first_seed} --workloads {' '.join(ns.workloads)}"
        + (f" --claim {claimed['workload']} {claimed['metric']}" if claimed else "")
    )
    path = os.path.join(ROOT, f"BENCH_{ns.slug}.json")
    lines = {"parent": src_lines(ns.parent), "change": src_lines(ns.change)}
    runs: dict[str, list[dict]] = {w: [] for w in ns.workloads}
    machine = None
    for w in ns.workloads:
        for i in range(ns.pairs):
            seed = ns.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, record = run(getattr(ns, side), w, seed)
                machine = machine or {k: record[k] for k in MACHINE_KEYS}
                runs[w].append({
                    "seed": seed, "side": side, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                })
                print(w, seed, side, json.dumps(runs[w][-1]["metrics"]), flush=True)
        done = {k: v for k, v in runs.items() if v}
        payload = {
            "slug": ns.slug,
            "what": ns.what,
            "command": command,
            "parent_commit": ns.parent_commit,
            "src_lines": lines,
            "machine": machine,
            "inputs": "default ModelConfig (machine.model_config), untrained weights, "
                      "scripted structure and cell lengths",
            "run_seconds": spec["run_seconds"],
            "claimed": claimed,
            "summary": {k: summarize(v, metrics) for k, v in done.items()},
            "runs": done,
        }
        with open(path, "w", encoding="utf-8") as fh:  # rewritten after each workload
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
