import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vict import model, training
from vict.checkpoint import save_checkpoint

SMALL_MODEL = model.ModelConfig(cell_size=16, patch_size=8, embed_dim=32, encoder_depth=1, decoder_depth=1, num_heads=2)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind: every sample
    helper, bench worker and ``fit``'s AdamW worker (an adaptation forks
    none) is killed and reaped on every exit."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test (waitpid gave pid {pid})")


@pytest.fixture(scope="session")
def small_checkpoint(tmp_path_factory):
    """Briefly pre-trained small model, shared by harness and CLI tests."""
    result = training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=60, seed=0))
    path = tmp_path_factory.mktemp("ckpt") / "small.bin"
    save_checkpoint(result.params, path)
    return path


@pytest.fixture
def run_demo(tmp_path):
    """Runs a demo from a copy in ``tmp_path``, so the ``out/`` it writes
    beside itself stays out of the checkout. ``run_demo(name, *args)``
    returns that ``out/`` directory."""
    root = Path(__file__).resolve().parent.parent

    def run(name, *args):
        script = tmp_path / name
        shutil.copy(root / "demos" / name, script)
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, str(script), *map(str, args)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        return tmp_path / "out"

    return run
