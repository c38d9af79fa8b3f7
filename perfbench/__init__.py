"""The tabmark benchmark: end-to-end timings and a traced per-layer breakdown.

Run one workload from the repository root:

    python3 perfbench/run.py --workload recognize_dense --seed 1 --seconds 30 --trace 0

Run every workload, each in a process of its own, and rewrite BENCHMARK.json
from the declarations in perfbench/workloads.py and the measured inputs:

    python3 perfbench/run.py --workload all --seed 1 --write-spec

The benchmark tests live in perfbench/tests:

    python3 -m pytest -q perfbench/tests
"""
