"""The demos run end to end, each from a copy in a temporary directory
(the ``run_demo`` fixture). The demos that would pre-train first run on the
session's small checkpoint instead."""

import pytest


@pytest.mark.parametrize("name", ["01_autodiff_basics.py", "02_canvases_and_tasks.py", "03_corruption_gallery.py"])
def test_fast_demo_runs(run_demo, name):
    run_demo(name)


@pytest.mark.parametrize("name", ["05_test_time_tuning.py", "06_benchmark_run.py"])
def test_checkpoint_demo_runs(run_demo, small_checkpoint, name):
    run_demo(name, small_checkpoint)
