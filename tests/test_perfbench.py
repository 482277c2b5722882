"""The benchmark's smoke run guards the names it patches and calls in vict."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stdout + run.stderr
