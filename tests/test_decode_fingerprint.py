"""scripts/decode_fingerprint.py: a rerun prints the same bytes."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "decode_fingerprint.py"


def test_two_runs_on_two_tables_print_identical_bytes():
    cmd = [sys.executable, str(SCRIPT), "--tables", "2"]
    first, second = (subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2))
    assert first == second
    lines = [json.loads(line) for line in first.decode().splitlines()]
    # 2 presets x 2 tables x 2 schedules, and each table's schedules agree
    assert [(d["preset"], d["table"], d["parallel"]) for d in lines] == [
        (p, i, par) for p in ("wide", "dense") for i in range(2) for par in (True, False)
    ]
    for par, seq in zip(lines[::2], lines[1::2]):
        assert par["result"]["html"] == seq["result"]["html"]
        assert len(par["sha256"]) == 64 and par["sha256"] != seq["sha256"]
