"""BENCHMARK.json, built from the workloads and metrics this package declares.

``python3 perfbench/run.py --workload all --seed 1 --write-spec`` runs every
workload and, when every operation was correct, writes the file from
``build()`` with the input properties the runs measured.
"""

from __future__ import annotations

import json

from perfbench import workloads as W

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35
MAX_WHY = 200


def build(properties: dict[str, dict[str, float]]) -> dict:
    """The spec, given input_properties() of each workload's inputs by name."""
    workloads = []
    for name, workload in W.WORKLOADS.items():
        why = workload.why.format(**properties[name])
        if len(why) > MAX_WHY:
            raise ValueError(f"{name}: why has {len(why)} characters, more than {MAX_WHY}")
        workloads.append({"name": name, "why": why})
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in W.END_TO_END.items()
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name in W.HIGHER_IS_BETTER else "lower",
            }
            for name, unit in W.PER_LAYER.items()
        ],
    }


def write(path: str, properties: dict[str, dict[str, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(build(properties), fh, indent=2)
        fh.write("\n")
