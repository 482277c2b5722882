import json

import numpy as np
import pytest

from vict import corruptions, harness, tasks, tuning


def bench_config(small_checkpoint, **overrides):
    defaults = dict(
        checkpoint=small_checkpoint,
        task=tasks.TaskKind.DENOISE,
        corruption_kinds=(corruptions.CorruptionKind.GAUSSIAN_NOISE, corruptions.CorruptionKind.BRIGHTNESS),
        severities=(3,),
        settings=(tuning.ZERO_SHOT,),
        methods=(harness.FROZEN,),
        num_samples=3,
        vict=tuning.VictConfig(steps=1),
        seed=0,
    )
    defaults.update(overrides)
    return harness.BenchConfig(**defaults)


def test_frozen_only_report_has_no_vict_rows(small_checkpoint):
    report = harness.run_bench(bench_config(small_checkpoint))
    assert {e["method"] for e in report.rows} == {harness.FROZEN}
    assert len(report.rows) == 2
    assert all(e["n"] == 3 for e in report.rows)


def test_report_bytes_are_deterministic(small_checkpoint):
    a = harness.run_bench(bench_config(small_checkpoint)).to_json_bytes()
    b = harness.run_bench(bench_config(small_checkpoint)).to_json_bytes()
    assert a == b


def test_vict_k0_matches_frozen_rows(small_checkpoint):
    config = bench_config(small_checkpoint, methods=(harness.FROZEN, harness.VICT), vict=tuning.VictConfig(steps=0))
    report = harness.run_bench(config)
    for kind in ("gaussian_noise", "brightness"):
        frozen = report.row(harness.FROZEN, tuning.ZERO_SHOT, kind, 3)
        vict = report.row(harness.VICT, tuning.ZERO_SHOT, kind, 3)
        assert frozen["mean"] == vict["mean"]
        assert frozen["std"] == vict["std"]


def test_avg_rows_recomputable(small_checkpoint):
    report = harness.run_bench(bench_config(small_checkpoint))
    for entry in report.avg:
        means = [
            e["mean"]
            for e in report.rows
            if e["method"] == entry["method"] and e["setting"] == entry["setting"] and e["severity"] == entry["severity"]
        ]
        assert entry["mean"] == pytest.approx(float(np.mean(means)), abs=1e-12)
        assert entry["corruptions"] == len(means)


def test_one_shot_prompts_depend_on_corruption(small_checkpoint):
    config = bench_config(
        small_checkpoint,
        settings=(tuning.ZERO_SHOT, tuning.ONE_SHOT),
        corruption_kinds=(corruptions.CorruptionKind.GAUSSIAN_NOISE,),
    )
    report = harness.run_bench(config)
    zero = report.row(harness.FROZEN, tuning.ZERO_SHOT, "gaussian_noise", 3)
    one = report.row(harness.FROZEN, tuning.ONE_SHOT, "gaussian_noise", 3)
    assert zero["mean"] != one["mean"]


@pytest.mark.parametrize(
    "error, counted",
    [
        (FloatingPointError("smooth_l1: non-finite values in output"), True),
        (TypeError("unsupported operand"), False),
        (RuntimeError("not a divergence"), False),
    ],
)
def test_only_divergence_counts_as_failure(small_checkpoint, monkeypatch, error, counted):
    def broken_cycle_loss(*args, **kwargs):
        raise error

    monkeypatch.setattr(tuning, "cycle_loss", broken_cycle_loss)
    config = bench_config(small_checkpoint, methods=(harness.FROZEN, harness.VICT))
    if not counted:
        with pytest.raises(type(error), match=str(error)):
            harness.run_bench(config)
        return
    report = harness.run_bench(config)
    assert report.total_failures == 6
    assert [(e["n"], e["failures"]) for e in report.rows] == [(0, 3)] * 4


def test_bench_rejects_severity_zero(small_checkpoint):
    with pytest.raises(ValueError, match="clean"):
        harness.run_bench(bench_config(small_checkpoint, severities=(0,)))


@pytest.mark.parametrize(
    "overrides, named",
    [
        (dict(corruption_kinds=(corruptions.CorruptionKind.FOG, corruptions.CorruptionKind.FOG)), "corruption kind fog"),
        (dict(severities=(3, 2, 3)), "severity 3"),
        (dict(settings=(tuning.ZERO_SHOT, tuning.ZERO_SHOT)), "setting zero_shot"),
        (dict(methods=(harness.FROZEN, harness.FROZEN)), "method frozen"),
    ],
)
def test_bench_config_rejects_repeats(small_checkpoint, overrides, named):
    with pytest.raises(ValueError, match=f"{named} selected more than once"):
        bench_config(small_checkpoint, **overrides)


def test_clean_eval_rows_and_gaps(small_checkpoint):
    config = bench_config(small_checkpoint, methods=(harness.FROZEN, harness.VICT))
    report = harness.run_clean_eval(config)
    assert {e["corruption"] for e in report.rows} == {harness.CLEAN_KEY}
    assert {e["method"] for e in report.rows} == {harness.FROZEN, harness.VICT}
    assert len(report.clean_gaps) == 1
    gap = report.clean_gaps[0]
    assert gap["setting"] == tuning.ZERO_SHOT
    assert gap["relative_gap"] >= 0.0
    assert isinstance(gap["exceeds_5pct"], bool)


def test_report_json_structure(small_checkpoint, tmp_path):
    report = harness.run_bench(bench_config(small_checkpoint))
    path = tmp_path / "report.json"
    report.write_json(path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["task"] == "denoise"
    assert payload["metric"] == "PSNR"
    assert payload["num_samples"] == 3
    assert len(payload["rows"]) == 2


def test_report_text_and_csv(small_checkpoint):
    report = harness.run_bench(bench_config(small_checkpoint))
    text = report.to_text()
    assert "gauss" in text and "avg" in text
    csv = report.to_csv()
    assert csv.splitlines()[0] == "method,setting,corruption,severity,mean,std,n,failures"
    assert len(csv.splitlines()) == 3


def test_canvas_dumps_written(small_checkpoint, tmp_path):
    dump_dir = tmp_path / "dumps"
    config = bench_config(small_checkpoint, dump_canvases=dump_dir)
    harness.run_bench(config)
    files = sorted(p.name for p in dump_dir.glob("*.ppm"))
    assert files == ["brightness_s3_zero_shot_frozen.ppm", "gaussian_noise_s3_zero_shot_frozen.ppm"]


def test_loss_traces_written(small_checkpoint, tmp_path):
    trace_dir = tmp_path / "traces"
    config = bench_config(
        small_checkpoint,
        methods=(harness.VICT,),
        vict=tuning.VictConfig(steps=2),
        trace_loss_dir=trace_dir,
        corruption_kinds=(corruptions.CorruptionKind.GAUSSIAN_NOISE,),
    )
    harness.run_bench(config)
    trace = trace_dir / "gaussian_noise_s3_zero_shot_loss.csv"
    assert trace.exists()
    assert len(trace.read_text().splitlines()) == 3  # header + 2 steps


def test_fewshot_sweep_runs(small_checkpoint):
    config = harness.FewShotSweepConfig(
        checkpoint=small_checkpoint,
        shots=(1, 2),
        finetune_steps=3,
        num_samples=2,
        repeats=2,
        seed=0,
    )
    result = harness.run_fewshot(config)
    assert [e["shots"] for e in result["per_shot"]] == [1, 2]
    assert all(len(e["values"]) == 2 for e in result["per_shot"])
    again = harness.run_fewshot(config)
    assert json.dumps(result, sort_keys=True) == json.dumps(again, sort_keys=True)
