"""Smoke test: every demo script runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import tabmark

DEMOS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py"))
)


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path, tmp_path):
    # put the imported package first on the child's path, as the entry-point
    # test does, and run away from the repository root
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(tabmark.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
