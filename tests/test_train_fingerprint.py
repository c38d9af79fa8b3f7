"""scripts/train_fingerprint.py: a rerun prints the same bytes."""

import json
import subprocess
import sys
from pathlib import Path

from tabmark.training import REPORT_FIELDS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "train_fingerprint.py"


def test_two_runs_of_two_steps_print_identical_bytes():
    cmd = [sys.executable, str(SCRIPT), "--tables", "1", "--steps", "2"]
    first, second = (subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2))
    assert first == second
    lines = [json.loads(line) for line in first.decode().splitlines()]
    assert [d["step"] for d in lines] == [0, 1]
    for d in lines:
        assert len(d["reports"]) == 8  # one minibatch of the default size
        assert all(set(r) == set(REPORT_FIELDS) for r in d["reports"])
        assert len(d["sha256"]) == 64
    # the second step trains the weights the first one left
    assert lines[0]["sha256"] != lines[1]["sha256"]
