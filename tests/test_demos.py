"""The fast demos run end to end. Each runs from a copy in a temporary
directory, so the ``out/`` it writes beside itself stays out of the checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_autodiff_basics.py", "02_canvases_and_tasks.py", "03_corruption_gallery.py"])
def test_fast_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
