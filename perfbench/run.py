"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload recognize_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 [--write-spec]

Run from the repository root.  Every line but the last is for people: the run
record, then one line per metric with its unit.  The last line is one JSON
object: correct, attempted, failed, and the metrics, which are the end-to-end
metrics of BENCHMARK.json with --trace 0 and its per-layer metrics with
--trace 1.  ``--workload all`` runs each workload in a process of its own;
with ``--write-spec`` it then writes BENCHMARK.json (see perfbench/spec.py).

BLAS is pinned to one thread before NumPy loads: the matrices are small, so
a second thread adds scheduling noise without speeding the operations up.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
RECORD_PREFIX = "run_record "


def _require_source() -> None:
    """The benchmark measures the checkout's own source tree, never an
    installed copy of the package."""
    if not os.path.isfile(os.path.join(SRC, "tabmark", "__init__.py")):
        sys.stderr.write(f"perfbench: no tabmark source under {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]


def _blas_runtime() -> dict:
    """Name, version and live thread count of the loaded OpenBLAS, if found."""
    import ctypes
    import glob

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["runtime_threads"] = fn()
                break
    return info


def run_record(workload, seed: int, seconds: int, trace: bool, setup, loop) -> dict:
    import dataclasses
    import platform

    import numpy as np

    from perfbench import workloads as W
    from tabmark.model import ModelConfig
    from tabmark.synth import PRESETS

    pct = workload.tail_pct
    _, beyond = W.tail(loop.samples, pct)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_runtime(),
        "blas_threads_env": BLAS_THREADS,
        "model_config": dataclasses.asdict(ModelConfig()),
        "preset": {workload.preset: dataclasses.asdict(PRESETS[workload.preset])},
        "train_config": dataclasses.asdict(W.TRAIN_CONFIG) if workload.kind == "train" else None,
        "input_properties": W.input_properties(setup.records),
        "samples": {
            "pool": workload.pool,
            "warmup_ops": W.WARMUP_OPS,
            "timed_ops": len(loop.samples),
            "traced_ops": len(loop.traced_samples),
            "attempted": loop.attempted,
            "failed": loop.failed,
            "tail_percentile": pct,
            "samples_beyond_tail": beyond,
            "setup_repeats": len(setup.seconds),
        },
    }


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    import json
    import resource
    from contextlib import nullcontext

    from perfbench import workloads as W
    from perfbench.tracer import Tracer

    workload = W.WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    ckpt = os.path.join(OUT_DIR, f"{name}-{seed}-{os.getpid()}.ckpt")
    tracer = Tracer() if trace else None

    def set_up():
        try:
            with tracer.installed() if tracer else nullcontext():
                return W.set_up(workload, seed, ckpt)
        finally:
            if os.path.exists(ckpt):
                os.remove(ckpt)

    setup = set_up()
    op = W.make_op(workload, setup)
    try:
        loop = W.run_loop(op, seconds=seconds, tracer=tracer)
    finally:
        op.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup.seconds += set_up().seconds

    record = run_record(workload, seed, seconds, trace, setup, loop)
    print(RECORD_PREFIX + json.dumps(record, sort_keys=True))
    for err in loop.errors[:10]:
        print(f"FAILED {err}", file=sys.stderr)
    failed_share = loop.failed / loop.attempted
    if tracer:
        metrics = W.per_layer(tracer, loop)
        path = os.path.join(OUT_DIR, f"trace-{name}-{seed}.json")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = W.end_to_end(workload, setup, loop, peak_rss_mb)
    print(f"{name}: failed_share = {failed_share:.6g} ratio "
          f"({loop.failed} of {loop.attempted} ops failed)")
    samples = record["samples"]
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "op_s.tail":
            note = (f" (p{workload.tail_pct:g}, {samples['samples_beyond_tail']} of "
                    f"{samples['timed_ops']} samples beyond)")
        print(f"{name}: {key} = {value:.6g} {unit}{note}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: bool, write_spec: bool) -> int:
    """Each workload in a child process, so peak memory is its own.  With
    write_spec, BENCHMARK.json is written from the input properties the runs
    measured, once every workload ran and every operation was correct."""
    import json
    import subprocess

    from perfbench import spec
    from perfbench import workloads as W

    status = 0
    summary = {}
    properties = {}
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        if not result["correct"]:
            status = 1
        for line in lines:
            if line.startswith(RECORD_PREFIX):
                properties[name] = json.loads(line[len(RECORD_PREFIX):])["input_properties"]
    print(json.dumps(summary))
    if write_spec and status == 0:
        path = os.path.join(ROOT, "BENCHMARK.json")
        spec.write(path, properties)
        print(f"wrote {os.path.relpath(path)}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed seconds per workload; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="with --workload all: write BENCHMARK.json after the runs")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.write_spec and args.workload != "all":
        parser.error("--write-spec needs --workload all")
    _require_source()
    from perfbench.spec import RUN_SECONDS
    from perfbench.workloads import WORKLOADS

    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace), args.write_spec)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    # before anything imports NumPy, which reads these once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
