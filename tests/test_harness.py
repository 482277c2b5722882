import contextlib
import json
import os
import select
import time
from dataclasses import replace

import numpy as np
import pytest

from vict import corruptions, harness, tasks, tuning
from vict.checkpoint import load_checkpoint
from vict.cli import cli_main
from vict.seeding import mix


def use_cpus(monkeypatch, n):
    """Make the harness see ``n`` usable CPUs: a sweep of J jobs runs in
    W = min(n, J) processes. A job is a sample's setting when VICT is among
    the methods, and the whole sample otherwise."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


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
    use_cpus(monkeypatch, 2)  # half the samples run in a forked worker
    for settings in ((tuning.ZERO_SHOT,), tuning.SETTINGS):
        config = bench_config(small_checkpoint, methods=(harness.FROZEN, harness.VICT), settings=settings)
        if not counted:
            with pytest.raises(type(error), match=str(error)):  # the first setting's, raised in this process
                harness.run_bench(config)
            continue
        report = harness.run_bench(config)
        assert report.total_failures == 6
        assert [(e["n"], e["failures"]) for e in report.rows] == [(0, 3)] * 4 * len(settings)


@pytest.mark.parametrize("error", [TypeError("unsupported operand"), RuntimeError("not a divergence")])
def test_a_bug_in_a_forked_adaptation_is_an_error_naming_it(small_checkpoint, monkeypatch, error):
    real_adapt = harness.adapt_and_predict

    def adapt_failing_one_shot(params0, prompt, x_t, config):
        if prompt.corruption is not None:  # the one-shot prompt's: a call counter would not cross the fork
            raise error
        return real_adapt(params0, prompt, x_t, config)

    monkeypatch.setattr(harness, "adapt_and_predict", adapt_failing_one_shot)
    use_cpus(monkeypatch, 3)  # two samples' four setting jobs over three processes: the first one-shot is worker 1's
    config = bench_config(small_checkpoint, methods=harness.METHODS, settings=tuning.SETTINGS, num_samples=1)
    message = f"^bench worker 1 failed at gaussian_noise severity 3 sample 0, one_shot: {type(error).__name__}: {error}$"
    with pytest.raises(RuntimeError, match=message):
        harness.run_bench(config)


def test_failed_sample_says_why_on_stderr(small_checkpoint, monkeypatch, capsys):
    real_cycle_loss, calls = tuning.cycle_loss, []

    def cycle_loss_diverging_on_sample_1(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:  # one setting and one tuning step: the second call is sample 1's
            raise FloatingPointError("smooth_l1: non-finite values in output")
        return real_cycle_loss(*args, **kwargs)

    monkeypatch.setattr(tuning, "cycle_loss", cycle_loss_diverging_on_sample_1)
    use_cpus(monkeypatch, 1)  # the counter sees every call in one process
    config = bench_config(
        small_checkpoint, corruption_kinds=(corruptions.CorruptionKind.GAUSSIAN_NOISE,), methods=harness.METHODS
    )
    report = harness.run_bench(config)
    message = (
        f"adaptation diverged at step 0 (params digest {load_checkpoint(small_checkpoint).digest()}): "
        "smooth_l1: non-finite values in output"
    )
    assert capsys.readouterr().err.splitlines() == [f"vict: gaussian_noise severity 3 sample 1 failed: {message}"]
    assert report.total_failures == 1
    assert [(e["n"], e["failures"]) for e in report.rows] == [(2, 1)] * 2
    assert [(r.index, r.failure) for r in report.records] == [(0, None), (1, message), (2, None)]
    assert (report.records[1].metrics, report.records[1].loss_traces) == ({}, {})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_broken_corruption_is_an_error_not_a_divergence(small_checkpoint, monkeypatch, bad):
    kind = corruptions.CorruptionKind.GAUSSIAN_NOISE
    broken = corruptions._KINDS[kind]._replace(implementation=lambda img, rng, params: np.full_like(img, bad))
    monkeypatch.setitem(corruptions._KINDS, kind, broken)
    with pytest.raises(RuntimeError, match="non-finite output for gaussian_noise at severity 3"):
        harness.run_bench(bench_config(small_checkpoint))


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


@pytest.mark.parametrize(
    "field, label",
    [("corruption_kinds", "corruption kind"), ("severities", "severity"), ("settings", "setting"), ("methods", "method")],
)
def test_bench_config_rejects_empty_selection(small_checkpoint, field, label):
    with pytest.raises(ValueError, match=f"BenchConfig: empty {label} selection"):
        bench_config(small_checkpoint, **{field: ()})


def clean_config(small_checkpoint, **overrides):
    """``bench_config`` with the corruption grid that clean evaluation requires at its defaults."""
    defaults = harness.BenchConfig(checkpoint=small_checkpoint)
    grid = {name: getattr(defaults, name) for name in ("corruption_kinds", "severities", "settings")}
    return bench_config(small_checkpoint, **{**grid, **overrides})


def test_clean_eval_rows_and_gaps(small_checkpoint):
    config = clean_config(small_checkpoint, methods=(harness.FROZEN, harness.VICT))
    report = harness.run_clean_eval(config)
    assert {e["corruption"] for e in report.rows} == {harness.CLEAN_KEY}
    assert {e["method"] for e in report.rows} == {harness.FROZEN, harness.VICT}
    assert len(report.clean_gaps) == 1
    gap = report.clean_gaps[0]
    assert gap["setting"] == tuning.ZERO_SHOT
    assert gap["relative_gap"] >= 0.0
    assert isinstance(gap["exceeds_5pct"], bool)


@pytest.mark.parametrize(
    "field, value",
    [
        ("corruption_kinds", (corruptions.CorruptionKind.FOG,)),
        ("severities", (3,)),
        ("settings", (tuning.ONE_SHOT,)),
    ],
)
def test_clean_eval_rejects_corruption_grid(field, value):
    # rejected before the checkpoint is read
    config = harness.BenchConfig(checkpoint="no-such-checkpoint.bin", **{field: value})
    with pytest.raises(ValueError, match=f"run_clean_eval: BenchConfig.{field} is not read by clean evaluation"):
        harness.run_clean_eval(config)


def test_report_json_structure(small_checkpoint, tmp_path):
    report = harness.run_bench(bench_config(small_checkpoint))
    path = tmp_path / "report.json"
    report.write_json(path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == 3
    assert sorted(payload["vict"]) == ["eps", "lr", "steps"]  # no "beta" since schema 2, no "selector" since 3
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


def test_sidecar_holds_every_sample_in_evaluation_order(small_checkpoint, tmp_path):
    config = bench_config(
        small_checkpoint,
        severities=(3, 5),
        settings=tuning.SETTINGS,
        methods=harness.METHODS,
        num_samples=2,
        vict=tuning.VictConfig(steps=2),
    )
    for run in ("a", "b"):
        harness.run_bench(config).write_json(tmp_path / f"{run}.json")
    sidecar = tmp_path / "a.samples.jsonl"
    assert sidecar.read_bytes() == (tmp_path / "b.samples.jsonl").read_bytes()
    records = [json.loads(line) for line in sidecar.read_text().splitlines()]
    assert [(r["corruption"], r["severity"], r["index"]) for r in records] == [
        (kind.value, severity, index) for kind in config.corruption_kinds for severity in (3, 5) for index in range(2)
    ]
    for r in records:
        assert r["failure"] is None
        assert {setting: len(trace) for setting, trace in r["loss_traces"].items()} == {s: 2 for s in tuning.SETTINGS}
    rows = json.loads((tmp_path / "a.json").read_text())["rows"]
    assert len(rows) == 2 * 2 * 2 * 2
    for row in rows:
        cell = [r for r in records if (r["corruption"], r["severity"]) == (row["corruption"], row["severity"])]
        values = [r["metrics"][row["setting"]][row["method"]] for r in cell]
        assert float(np.asarray(values, dtype=np.float64).mean()) == row["mean"]


def test_fold_reads_nothing_but_its_records(monkeypatch):
    def no_io(*args, **kwargs):
        pytest.fail("the fold opened a file or ran the model")

    for name in ("load_checkpoint", "select_prompt", "infer", "adapt_and_predict"):
        monkeypatch.setattr(harness, name, no_io)
    monkeypatch.setattr("builtins.open", no_io)
    monkeypatch.setattr("io.open", no_io)
    config = harness.BenchConfig(
        checkpoint="no-such-checkpoint.bin",
        corruption_kinds=(corruptions.CorruptionKind.FOG, corruptions.CorruptionKind.GAUSSIAN_NOISE),
        severities=(3,),
        settings=(tuning.ZERO_SHOT,),
        methods=(harness.FROZEN,),
        num_samples=3,
    )

    def record(kind, index, value=None):
        if value is None:
            return harness.SampleRecord(kind, 3, index, {}, {}, "adaptation diverged")
        return harness.SampleRecord(kind, 3, index, {tuning.ZERO_SHOT: {harness.FROZEN: value}}, {})

    records = [record("fog", i) for i in range(3)]
    records += [record("gaussian_noise", 0, 20.0), record("gaussian_noise", 1), record("gaussian_noise", 2, 23.0)]
    report = harness._fold(config, records)
    fog, gauss = report.rows
    assert (fog["corruption"], fog["n"], fog["failures"]) == ("fog", 0, 3)
    assert np.isnan(fog["mean"]) and np.isnan(fog["std"])
    assert (gauss["corruption"], gauss["n"], gauss["failures"], gauss["mean"], gauss["std"]) == ("gaussian_noise", 2, 1, 21.5, 1.5)
    assert report.avg == [dict(method=harness.FROZEN, setting=tuning.ZERO_SHOT, severity=3, mean=21.5, corruptions=1)]
    assert report.total_failures == 4
    assert report.records == records


def test_text_keeps_a_method_whose_every_sample_failed():
    config = harness.BenchConfig(
        checkpoint="no-such-checkpoint.bin",
        corruption_kinds=(corruptions.CorruptionKind.FOG,),
        severities=(3,),
        settings=(tuning.ZERO_SHOT,),
        methods=harness.METHODS,
        num_samples=2,
    )
    records = [harness.SampleRecord("fog", 3, i, {}, {}, "adaptation diverged") for i in range(2)]
    report = harness._fold(config, records)
    assert report.avg == []
    assert report.to_text().splitlines()[-2:] == [
        "frozen  zero_shot      nan      nan",
        "vict    zero_shot      nan      nan",
    ]


def test_text_header_abbreviates_every_kind():
    config = harness.BenchConfig(
        checkpoint="no-such-checkpoint.bin", severities=(5,), settings=(tuning.ZERO_SHOT,), methods=(harness.FROZEN,), num_samples=1
    )
    records = [
        harness.SampleRecord(kind.value, 5, 0, {tuning.ZERO_SHOT: {harness.FROZEN: 20.0}}, {})
        for kind in corruptions.ALL_KINDS
    ]
    lines = harness._fold(config, records).to_text().splitlines()
    assert lines[2].split() == (
        "method setting brigh cont defoc elast fog frost gauss glass impul jpeg motn pixel shot snow zoom avg".split()
    )
    assert lines[3].split() == ["frozen", "zero_shot"] + ["20.00"] * 15 + ["20.000"]


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


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(repeats=0), "repeats must be >= 1, got 0"),
        (dict(num_samples=0), "num_samples must be >= 1, got 0"),
        (dict(finetune_steps=-1), "finetune_steps must be >= 0, got -1"),
        (dict(shots=()), "empty shot list"),
        (dict(shots=(1, 2, 1)), "shot count 1 selected more than once"),
        (dict(shots=(1, 3)), r"shot counts \[3\] not in"),
        (dict(severity=0), "severity must be in 1..5, got 0"),
        (dict(severity=6), "severity must be in 1..5, got 6"),
        (dict(finetune_lr=float("nan")), "finetune_lr must be finite and nonnegative, got nan"),
        (dict(finetune_lr=-1.0), "finetune_lr must be finite and nonnegative, got -1.0"),
    ],
)
def test_fewshot_config_rejects_bad_values(overrides, message):
    with pytest.raises(ValueError, match=message):
        harness.FewShotSweepConfig(checkpoint="unused", **overrides)


def fewshot_config(small_checkpoint, **overrides):
    defaults = dict(
        checkpoint=small_checkpoint,
        shots=(1, 2),
        corruption_kind=corruptions.CorruptionKind.FOG,
        severity=4,
        num_samples=2,
        repeats=2,
        seed=3,
    )
    defaults.update(overrides)
    return harness.FewShotSweepConfig(**defaults)


def test_fewshot_scores_the_bench_samples(small_checkpoint):
    config = fewshot_config(small_checkpoint, finetune_steps=0)
    bench = harness.run_bench(
        bench_config(small_checkpoint, corruption_kinds=(config.corruption_kind,), severities=(4,), num_samples=2, seed=3)
    )
    frozen_mean = bench.row(harness.FROZEN, tuning.ZERO_SHOT, "fog", 4)["mean"]
    result = harness.run_fewshot(config)
    assert result["schema"] == 2
    assert [e["values"] for e in result["per_shot"]] == [[frozen_mean] * 2] * 2


def test_fewshot_stops_at_a_diverged_sample(small_checkpoint, monkeypatch, capsys):
    calls = []
    real_infer = harness.infer

    def infer_that_diverges_once(*args):
        calls.append(None)
        if len(calls) == 3:
            raise FloatingPointError("overflow encountered in matmul")
        return real_infer(*args)

    monkeypatch.setattr(harness, "infer", infer_that_diverges_once)
    use_cpus(monkeypatch, 1)  # the counter sees every call in one process
    with pytest.raises(FloatingPointError, match="at 2 shots, repeat 0: overflow encountered in matmul"):
        harness.run_fewshot(fewshot_config(small_checkpoint, shots=(1, 2, 4), finetune_steps=1, repeats=1))
    assert len(calls) == 4  # the failed cell is scored to its end, and 4 shots never run
    assert "fog severity 4 sample 0 failed: overflow encountered in matmul" in capsys.readouterr().err


@pytest.mark.parametrize(
    "runner, make_config, overrides",
    [
        pytest.param(
            harness.run_bench,
            bench_config,
            dict(severities=(3, 5), settings=tuning.SETTINGS, num_samples=2),
            id="bench-denoise-both-settings",
        ),
        pytest.param(
            harness.run_bench,
            bench_config,
            dict(task=tasks.TaskKind.SEGMENTATION, settings=(tuning.ONE_SHOT,), seed=4),
            id="bench-segmentation-one-shot",
        ),
        pytest.param(harness.run_clean_eval, clean_config, dict(task=tasks.TaskKind.DERAIN, seed=2), id="clean-eval-derain"),
    ],
)
def test_any_cpu_count_gives_the_same_bytes(small_checkpoint, tmp_path, monkeypatch, capsys, runner, make_config, overrides):
    outputs = {}
    for cpus in (1, 2, 3):
        dumps = tmp_path / f"dumps{cpus}"
        config = make_config(
            small_checkpoint, methods=harness.METHODS, vict=tuning.VictConfig(steps=2), dump_canvases=dumps, **overrides
        )
        use_cpus(monkeypatch, cpus)
        report = runner(config)
        assert report.total_failures == 0
        report.write_json(tmp_path / f"cpus{cpus}.json")
        files = {path.name: path.read_bytes() for path in dumps.iterdir()}
        for suffix in (".json", ".samples.jsonl"):
            files[suffix] = (tmp_path / f"cpus{cpus}{suffix}").read_bytes()
        outputs[cpus] = (report.to_text(), capsys.readouterr(), files)
    assert len(outputs[1][2]) > 2  # canvases beside the report and sidecar
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def test_fewshot_gives_the_in_process_result(small_checkpoint, monkeypatch):
    config = fewshot_config(small_checkpoint, finetune_steps=2, repeats=1)
    results = []
    for cpus in (1, 2, 3):  # one CPU: every sample scored in this process
        use_cpus(monkeypatch, cpus)
        results.append(json.dumps(harness.run_fewshot(config), sort_keys=True))
    assert results[1:] == results[:1] * 2


def input_of(config, corruption_name, index):
    """A test sample's input, by which a patched function recognises the
    sample: a call counter would not cross a fork."""
    cell_size = load_checkpoint(config.checkpoint).config.cell_size
    return harness._draw_inputs(config, corruption_name, config.severities[0], index, cell_size)[1]


def holds(x, x_t):
    """Whether ``x``, the test input that reaches ``harness.infer``, is
    ``x_t``: a single cell, or a stack of one sample's settings."""
    return any(np.array_equal(cell, x_t) for cell in np.reshape(x, (-1, *np.shape(x_t))))


@pytest.mark.parametrize(
    "name, index, message",
    [
        pytest.param("select_prompt", 1, "^bench worker 1 failed at brightness severity 3 sample 1: TypeError: a bug$", id="prompt-in-a-worker"),
        pytest.param("apply", 2, "^bench worker 2 failed at brightness severity 3 sample 2: TypeError: a bug$", id="corruption-in-a-worker"),
        pytest.param("infer", 1, "^bench worker 1 failed at brightness severity 3 sample 1: TypeError: a bug$", id="inference-in-a-worker"),
        pytest.param("infer", 0, "^a bug$", id="inference-here"),
    ],
)
def test_a_bug_in_a_worker_is_an_error_naming_it(small_checkpoint, monkeypatch, name, index, message):
    """Six samples over three processes: brightness sample 0 is this
    process's, sample 1 worker 1's and sample 2 worker 2's. A bug here is
    raised as itself."""
    config = bench_config(small_checkpoint)
    x_t = input_of(config, "brightness", index)
    module, is_the_sample = {
        "select_prompt": (harness, lambda task, setting, spec, seed, c: seed == mix("bench-prompt", 0, "brightness", 3, index, setting)),
        "apply": (corruptions, lambda image, spec: spec.seed == mix("bench-test-corruption", 0, "brightness", 3, index)),
        "infer": (harness, lambda params, pair, x: holds(x, x_t)),
    }[name]
    real = getattr(module, name)

    def buggy(*args):
        if is_the_sample(*args):
            raise TypeError("a bug")
        return real(*args)

    monkeypatch.setattr(module, name, buggy)
    use_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError if index else TypeError, match=message):
        harness.run_bench(config)


def test_no_worker_outlives_a_divergence_or_a_bug(small_checkpoint, monkeypatch):
    """200 samples over two processes: a bug at sample 2, this process's
    second, stops the sweep while the worker still has samples to run."""
    config = bench_config(small_checkpoint, corruption_kinds=(corruptions.CorruptionKind.FOG,), num_samples=200)
    inputs, real_infer = {i: input_of(config, "fog", i) for i in (1, 2)}, harness.infer

    def infer_failing_at(index, error):
        def infer(params, pair, x_t):
            if holds(x_t, inputs[index]):
                raise error
            return real_infer(params, pair, x_t)

        return infer

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "infer", infer_failing_at(1, FloatingPointError("matmul: non-finite values")))
    report = harness.run_bench(replace(config, num_samples=3))
    assert [r.failure for r in report.records] == [None, "matmul: non-finite values", None]
    monkeypatch.setattr(harness, "infer", infer_failing_at(2, TypeError("a bug")))
    with pytest.raises(TypeError, match="^a bug$"):
        harness.run_bench(config)
    monkeypatch.setattr(harness, "infer", infer_failing_at(1, TypeError("a bug")))
    with pytest.raises(RuntimeError, match="^bench worker 1 failed at fog severity 3 sample 1: TypeError: a bug$"):
        harness.run_bench(config)


def test_no_process_outlives_a_bug_here(small_checkpoint, monkeypatch):
    """Two samples' four setting jobs on four CPUs: this process predicts
    the first frozen, and each of three workers adapts a setting of its
    own. Two at least are adapting when this process meets a bug; every
    process forked during the sweep holds the write end of a pipe, which
    reads as ended once all are gone."""
    started_r, started_w = os.pipe()
    alive_r, alive_w = os.pipe()
    parent, real_infer = os.getpid(), harness.infer

    def adapt(params0, prompt, x_t, config):  # called only in forked processes here
        os.write(started_w, b"x")
        time.sleep(60)

    def infer(params, pair, x_t):
        if os.getpid() == parent:
            os.read(started_r, 1), os.read(started_r, 1)  # both adaptations are under way
            raise TypeError("a bug")
        return real_infer(params, pair, x_t)

    monkeypatch.setattr(harness, "adapt_and_predict", adapt)
    monkeypatch.setattr(harness, "infer", infer)
    use_cpus(monkeypatch, 4)
    config = bench_config(small_checkpoint, settings=tuning.SETTINGS, methods=harness.METHODS, num_samples=1)
    try:
        with pytest.raises(TypeError, match="^a bug$"):
            harness.run_bench(config)
        os.close(alive_w)
        assert select.select([alive_r], [], [], 20)[0] == [alive_r], "a forked process outlived the sweep"
        assert os.read(alive_r, 1) == b""
    finally:
        for fd in (started_r, started_w, alive_r, alive_w):
            with contextlib.suppress(OSError):
                os.close(fd)


def test_a_one_cpu_sweep_forks_nothing(small_checkpoint, monkeypatch):
    def no_fork():
        pytest.fail("a one-CPU sweep forked")

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    config = bench_config(small_checkpoint, settings=tuning.SETTINGS, methods=harness.METHODS, vict=tuning.VictConfig(steps=2))
    report = harness.run_bench(config)
    assert [e["n"] for e in report.rows] == [3] * 8


def each_canvas_alone(infer):
    """``infer`` as the per-setting loop called it: each canvas of a stack
    predicted by a call of its own. Records the test input's shape of
    every call it gets in ``calls``."""

    def alone(params, pair, x_t):
        alone.calls.append(np.shape(x_t))
        if np.ndim(x_t) == 3:
            return infer(params, pair, x_t)
        return np.stack([infer(params, (x, y), cell) for x, y, cell in zip(*pair, x_t)])

    alone.calls = []
    return alone


def test_stacked_frozen_inference_writes_the_bytes_of_one_call_per_canvas(small_checkpoint, tmp_path, monkeypatch, capsys):
    """A both-settings frozen sweep: its report, sidecar, CSV, stdout,
    stderr and canvas dumps, with each sample's two canvases stacked into
    one call and with each predicted alone."""
    argv = ["bench", "--checkpoint", str(small_checkpoint), "--corruption", "fog,gaussian_noise", "--severity", "3,5"]
    argv += ["--method", "frozen", "--setting", "both", "--num-samples", "3"]
    argv += ["--out", "r.json", "--csv", "r.csv", "--dump-canvases", "dump"]
    use_cpus(monkeypatch, 1)  # the recorder sees every call in one process
    outputs = {}
    for way in ("stacked", "alone"):
        (tmp_path / way).mkdir()
        monkeypatch.chdir(tmp_path / way)
        if way == "alone":
            recorder = each_canvas_alone(harness.infer)
            monkeypatch.setattr(harness, "infer", recorder)
        code = cli_main(argv)
        captured = capsys.readouterr()
        files = {str(f.relative_to(tmp_path / way)): f.read_bytes() for f in sorted((tmp_path / way).rglob("*")) if f.is_file()}
        outputs[way] = (code, captured.out, captured.err, files)
    assert recorder.calls == [(2, 3, 16, 16)] * 12
    assert len(outputs["stacked"][3]) == 3 + 4 * 2  # report, sidecar, CSV and each cell's two canvases of sample 0
    assert outputs["stacked"] == outputs["alone"]


def test_a_divergence_in_a_stack_is_the_failed_record_of_the_serial_loop(small_checkpoint, monkeypatch, capsys):
    """A frozen both-settings sweep, with a ``FloatingPointError`` on fog
    sample 1's one-shot canvas only: the stacked call fails, and its
    settings are predicted one by one, so the zero-shot canvas is predicted
    before the one-shot inference fails."""
    config = bench_config(small_checkpoint, corruption_kinds=(corruptions.CorruptionKind.FOG,), settings=tuning.SETTINGS)
    cell_size = load_checkpoint(small_checkpoint).config.cell_size
    one_shot = harness._draw_inputs(config, "fog", 3, 1, cell_size)[2][tuning.ONE_SHOT].pair[0]
    real_infer, calls = harness.infer, []

    def infer_diverging_on_one_shot(params, pair, x_t):
        calls.append(np.shape(x_t))
        if holds(pair[0], one_shot):
            raise FloatingPointError("matmul: non-finite values")
        return real_infer(params, pair, x_t)

    use_cpus(monkeypatch, 1)  # every call is seen here
    runs = {}
    for way, infer in (("stacked", infer_diverging_on_one_shot), ("alone", each_canvas_alone(infer_diverging_on_one_shot))):
        monkeypatch.setattr(harness, "infer", infer)
        calls.clear()
        report = harness.run_bench(config)
        runs[way] = (report.records, report.to_json_bytes(), capsys.readouterr().err)
        if way == "stacked":
            stack, canvas = (2, 3, cell_size, cell_size), (3, cell_size, cell_size)
            assert calls == [stack, stack, canvas, canvas, stack]  # sample 1's stack fails, then its canvases one by one
    assert runs["stacked"] == runs["alone"]
    records, _, err = runs["stacked"]
    assert records[1] == harness.SampleRecord("fog", 3, 1, {}, {}, "matmul: non-finite values")
    assert [r.failure for r in records] == [None, "matmul: non-finite values", None]
    assert err == "vict: fog severity 3 sample 1 failed: matmul: non-finite values\n"


def test_a_divergence_under_warnings_as_errors_is_a_failed_record(small_checkpoint):
    # the suite turns warnings into errors, as python -W error does
    config = bench_config(
        small_checkpoint,
        corruption_kinds=(corruptions.CorruptionKind.FOG,),
        methods=harness.METHODS,
        num_samples=1,
        vict=tuning.VictConfig(steps=20, lr=1e30, eps=1e-30),
    )
    report = harness.run_bench(config)
    assert report.total_failures == 1
    assert report.records[0].failure.startswith("adaptation diverged at step")


def run_with_cpus(monkeypatch, config, cpus, out):
    """``run_bench(config)`` seeing ``cpus`` usable CPUs, with its report
    and sidecar written to ``out``; the report, and the ``Prefetcher``s it
    made in this process, its workers."""
    made, real_prefetcher = [], harness.Prefetcher

    def recorded_prefetcher(what, items):
        made.append(what)
        return real_prefetcher(what, items)

    with monkeypatch.context() as patch:
        use_cpus(patch, cpus)
        patch.setattr(harness, "Prefetcher", recorded_prefetcher)
        report = harness.run_bench(config)
    report.write_json(out)
    return report, made


def test_concurrent_adaptations_give_the_serial_bytes(small_checkpoint, tmp_path, monkeypatch):
    cases = [  # the sweep's kinds and samples per kind, and the Prefetchers made at each CPU count
        (
            (corruptions.CorruptionKind.GAUSSIAN_NOISE, corruptions.CorruptionKind.BRIGHTNESS),
            2,
            # four samples, eight setting jobs: at five CPUs, this process and four workers
            {1: [], 2: ["bench worker 1"], 5: ["bench worker 1", "bench worker 2", "bench worker 3", "bench worker 4"]},
        ),
        # one sample, as in perfbench's tune_sweep: at two CPUs, its one-shot setting adapts in worker 1
        ((corruptions.CorruptionKind.GAUSSIAN_NOISE,), 1, {1: [], 2: ["bench worker 1"]}),
    ]
    for kinds, num_samples, made_at in cases:
        files = {}
        for cpus in made_at:
            out = tmp_path / f"{len(kinds)}x{num_samples}_cpus{cpus}"
            config = bench_config(
                small_checkpoint,
                corruption_kinds=kinds,
                settings=tuning.SETTINGS,
                methods=harness.METHODS,
                num_samples=num_samples,
                vict=tuning.VictConfig(steps=2),
                dump_canvases=out / "dumps",
            )
            report, made = run_with_cpus(monkeypatch, config, cpus, out / "report.json")
            assert report.total_failures == 0
            assert made == made_at[cpus]
            files[cpus] = {path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()}
        assert len(files[1]) == len(kinds) * 2 * 2 + 2  # a canvas per kind, setting and method for sample 0; report and sidecar
        for cpus in made_at:
            assert files[cpus] == files[1]


@pytest.mark.parametrize(
    "diverging, message",
    [((tuning.ONE_SHOT,), "one_shot diverged"), (tuning.SETTINGS, "zero_shot diverged")],
)
def test_a_forked_divergence_is_the_serial_failure(small_checkpoint, tmp_path, monkeypatch, capsys, diverging, message):
    fog, real_adapt = corruptions.CorruptionKind.FOG, harness.adapt_and_predict
    config = bench_config(
        small_checkpoint,
        corruption_kinds=(fog, corruptions.CorruptionKind.GAUSSIAN_NOISE),
        settings=tuning.SETTINGS,
        methods=harness.METHODS,
        num_samples=2,
        vict=tuning.VictConfig(steps=1),
    )
    fog_inputs = {input_of(config, "fog", i).tobytes() for i in range(2)}

    def adapt_diverging_on_fog(params0, prompt, x_t, config):
        setting = tuning.ZERO_SHOT if prompt.corruption is None else tuning.ONE_SHOT
        if setting in diverging and x_t.tobytes() in fog_inputs:  # from the inputs: a call counter would not cross the fork
            raise FloatingPointError(f"{setting} diverged")
        return real_adapt(params0, prompt, x_t, config)

    monkeypatch.setattr(harness, "adapt_and_predict", adapt_diverging_on_fog)
    # sample 0's canvases up to its first failure in setting order, as the serial loop dumps them
    fog_dumped = {
        "one_shot diverged": ["zero_shot_frozen", "zero_shot_vict", "one_shot_frozen"],
        "zero_shot diverged": ["zero_shot_frozen"],
    }
    dumped = [f"fog_s3_{name}.ppm" for name in fog_dumped[message]]
    dumped += [f"gaussian_noise_s3_{setting}_{method}.ppm" for setting in tuning.SETTINGS for method in harness.METHODS]
    outputs = {}
    for cpus in (1, 2, 3, 5):  # at 2, each fog sample's zero-shot in this process and its one-shot in the worker
        dumps = tmp_path / f"dumps{cpus}"
        report, _ = run_with_cpus(monkeypatch, replace(config, dump_canvases=dumps), cpus, tmp_path / f"cpus{cpus}.json")
        outputs[cpus] = (
            capsys.readouterr().err,
            [(tmp_path / f"cpus{cpus}{suffix}").read_bytes() for suffix in (".json", ".samples.jsonl")],
            {path.name: path.read_bytes() for path in sorted(dumps.iterdir())},
        )
        assert [(r.corruption, r.index, r.failure) for r in report.records] == [
            ("fog", 0, message), ("fog", 1, message), ("gaussian_noise", 0, None), ("gaussian_noise", 1, None)
        ]
        assert sorted(outputs[cpus][2]) == sorted(dumped)
    assert outputs[1][0].splitlines() == [f"vict: fog severity 3 sample {i} failed: {message}" for i in range(2)]
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]
    assert outputs[5] == outputs[1]
