import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vict
from vict import corruptions, harness, tasks, training, tuning
from vict.checkpoint import load_checkpoint, save_checkpoint
from vict.cli import _bench_config, build_parser, cli_main


def test_unknown_subcommand_fails(capsys):
    assert cli_main(["frobnicate"]) != 0


def test_unknown_flag_fails():
    assert cli_main(["gradcheck", "--no-such-flag"]) != 0


def test_missing_checkpoint_is_reported(tmp_path, capsys):
    code = cli_main(["inspect", str(tmp_path / "nope.bin")])
    assert code != 0
    assert "error:" in capsys.readouterr().err


def test_pretrain_and_inspect(tmp_path, capsys):
    out = tmp_path / "ckpt.bin"
    trace = tmp_path / "trace.csv"
    code = cli_main(
        ["pretrain", "--steps", "3", "--seed", "1", "--out", str(out), "--loss-trace", str(trace)]
    )
    assert code == 0
    assert out.exists()
    assert trace.read_text().startswith("step,loss")

    code = cli_main(["inspect", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "cell_size=32" in text
    assert "patch_embed.weight" in text


def test_bench_steps0_methods_match(small_checkpoint, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(
        [
            "bench",
            "--checkpoint", str(small_checkpoint),
            "--corruption", "gaussian_noise",
            "--severity", "3",
            "--setting", "zero",
            "--method", "both",
            "--steps", "0",
            "--num-samples", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    rows = {e["method"]: e for e in payload["rows"]}
    assert rows["frozen"]["mean"] == rows["vict"]["mean"]
    assert "gauss" in capsys.readouterr().out


def test_clean_eval_prints_gap(small_checkpoint, capsys):
    code = cli_main(
        [
            "clean-eval",
            "--checkpoint", str(small_checkpoint),
            "--method", "both",
            "--steps", "1",
            "--num-samples", "2",
        ]
    )
    assert code == 0
    assert "clean zero_shot" in capsys.readouterr().out


def test_fewshot_subcommand(small_checkpoint, tmp_path, capsys):
    out = tmp_path / "fewshot.json"
    code = cli_main(
        [
            "fewshot",
            "--checkpoint", str(small_checkpoint),
            "--shots", "1,2",
            "--finetune-steps", "2",
            "--num-samples", "2",
            "--repeats", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [e["shots"] for e in payload["per_shot"]] == [1, 2]
    assert "shots   1" in capsys.readouterr().out


def test_bench_rejects_bad_corruption_name(small_checkpoint, capsys):
    code = cli_main(["bench", "--checkpoint", str(small_checkpoint), "--corruption", "sepia"])
    assert code != 0
    assert "error:" in capsys.readouterr().err


def test_bench_rejects_repeated_corruption(small_checkpoint, capsys):
    code = cli_main(["bench", "--checkpoint", str(small_checkpoint), "--corruption", "fog,fog"])
    assert code == 1
    assert "corruption kind fog selected more than once" in capsys.readouterr().err


def test_bench_rejects_a_checkpoint_with_non_finite_weights(small_checkpoint, tmp_path, capsys):
    params = load_checkpoint(small_checkpoint)
    params.tensors["enc0.mlp.fc1.weight"].data[0, 0] = np.nan
    bad = tmp_path / "nan.bin"
    save_checkpoint(params, bad)
    code = cli_main(["bench", "--checkpoint", str(bad), "--corruption", "fog", "--num-samples", "2", "--steps", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "tensor 'enc0.mlp.fc1.weight' holds non-finite values" in captured.err
    assert captured.out == ""


def test_pretrain_rejects_repeated_task(monkeypatch, capsys):
    monkeypatch.setattr(training, "pretrain", lambda *args: pytest.fail("ran with a repeated task"))
    assert cli_main(["pretrain", "--out", "x", "--task-mix", "denoise,denoise,depth"]) == 1
    assert "PretrainConfig: task denoise selected more than once" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mix, held_out, message",
    [
        ("denoise", "depth", "--exclude-task: depth is not in --task-mix 'denoise'"),
        ("derain,lowlight", "denoise", "--exclude-task: denoise is not in --task-mix 'derain,lowlight'"),
        ("denoise", "denoise", "--exclude-task: holding out denoise leaves --task-mix 'denoise' empty"),
    ],
)
def test_pretrain_rejects_an_exclusion_outside_the_mix(monkeypatch, capsys, mix, held_out, message):
    monkeypatch.setattr(training, "pretrain", lambda *args: pytest.fail("ran with a bad exclusion"))
    assert cli_main(["pretrain", "--steps", "2", "--out", "x", "--task-mix", mix, "--exclude-task", held_out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pretrain_trains_on_the_mix_less_the_exclusion(monkeypatch, tmp_path):
    mixes, pretrain = [], training.pretrain

    def recording_pretrain(model_config, cfg):
        mixes.append(cfg.task_mix)
        return pretrain(model_config, cfg)

    monkeypatch.setattr(training, "pretrain", recording_pretrain)
    argv = ["pretrain", "--steps", "2", "--out", str(tmp_path / "c.bin"), "--task-mix", "denoise,depth,derain"]
    assert cli_main([*argv, "--exclude-task", "depth"]) == 0
    assert mixes == [(tasks.TaskKind.DENOISE, tasks.TaskKind.DERAIN)]


def test_bench_defaults_are_victconfig_defaults():
    args = build_parser().parse_args(["bench", "--checkpoint", "x"])
    assert _bench_config(args).vict == tuning.VictConfig()


@pytest.mark.parametrize(
    "argv, runner, expected",
    [
        (["pretrain", "--out", "x"], (training, "pretrain"), training.PretrainConfig()),
        (["bench", "--checkpoint", "x"], (harness, "run_bench"), harness.BenchConfig(checkpoint="x")),
        (["clean-eval", "--checkpoint", "x"], (harness, "run_clean_eval"), harness.BenchConfig(checkpoint="x")),
        (["fewshot", "--checkpoint", "x"], (harness, "run_fewshot"), harness.FewShotSweepConfig(checkpoint="x")),
    ],
)
def test_flag_defaults_build_the_default_config(monkeypatch, argv, runner, expected):
    built = []

    def stop(*args):
        built.append(args[-1])
        raise RuntimeError("stop before running")

    monkeypatch.setattr(*runner, stop)
    assert cli_main(argv) == 1
    assert built == [expected]


@pytest.mark.parametrize("flags", [["--severity", "3,x"], ["--setting", "one"]])
def test_clean_eval_does_not_offer_bench_grid_flags(capsys, flags):
    assert cli_main(["clean-eval", "--checkpoint", "x", *flags]) == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_bench_has_no_beta_flag(capsys):
    # the smooth-L1 loss has its turn at |d| = 1, with no option to move it
    assert cli_main(["bench", "--checkpoint", "x", "--beta", "1"]) == 2
    assert "unrecognized arguments: --beta 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--repeats", "0"], "repeats must be >= 1, got 0"),
        (["--shots", "1,1"], "shot count 1 selected more than once"),
        (["--shots", "1,3"], "shot counts [3] not in"),
        (["--shots", "1,x"], "--shots: 'x' in '1,x' is not an integer"),
        (["--severity", "6"], "severity must be in 1..5, got 6"),
    ],
)
def test_fewshot_rejects_bad_flags(small_checkpoint, capsys, flags, message):
    code = cli_main(["fewshot", "--checkpoint", str(small_checkpoint), "--finetune-steps", "1", *flags])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--lr", "--eps"])
def test_bench_rejects_nan_rate_before_running(monkeypatch, capsys, flag):
    monkeypatch.setattr(harness, "run_bench", lambda config: pytest.fail("ran with a NaN rate"))
    assert cli_main(["bench", "--checkpoint", "x", flag, "nan"]) == 1
    assert f"VictConfig: {flag[2:]} must be finite" in capsys.readouterr().err


def test_bench_names_bad_severity_item(small_checkpoint, capsys):
    code = cli_main(["bench", "--checkpoint", str(small_checkpoint), "--severity", "3,x"])
    assert code == 1
    assert "--severity: 'x' in '3,x' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--checkpoint", "x", "--corruption", "fog,sepia"], "--corruption: 'sepia' in 'fog,sepia' is not one of"),
        (["bench", "--checkpoint", "x", "--task", "foo"], "--task: 'foo' is not one of"),
        (["clean-eval", "--checkpoint", "x", "--task", "foo"], "--task: 'foo' is not one of"),
        (["pretrain", "--out", "x", "--task-mix", "denoise,foo"], "--task-mix: 'foo' in 'denoise,foo' is not one of"),
        (["pretrain", "--out", "x", "--exclude-task", "foo"], "--exclude-task: 'foo' is not one of"),
        (["fewshot", "--checkpoint", "x", "--task", "foo"], "--task: 'foo' is not one of"),
        (["fewshot", "--checkpoint", "x", "--corruption", "sepia"], "--corruption: 'sepia' is not one of"),
    ],
)
def test_bad_enum_name_names_flag_item_and_valid_names(capsys, argv, message):
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    valid = corruptions.ALL_KINDS if "--corruption" in message else tasks.ALL_TASKS
    assert ", ".join(kind.value for kind in valid) in err


@pytest.mark.parametrize(
    "argv, runner, flag",
    [
        (["bench", "--checkpoint", "x", "--out", "nodir/r.json"], (harness, "run_bench"), "--out"),
        (["bench", "--checkpoint", "x", "--csv", "nodir/r.csv"], (harness, "run_bench"), "--csv"),
        (["clean-eval", "--checkpoint", "x", "--out", "nodir/r.json"], (harness, "run_clean_eval"), "--out"),
        (["clean-eval", "--checkpoint", "x", "--csv", "nodir/r.csv"], (harness, "run_clean_eval"), "--csv"),
        (["pretrain", "--out", "nodir/c.bin"], (training, "pretrain"), "--out"),
        (["pretrain", "--out", "c.bin", "--loss-trace", "nodir/t.csv"], (training, "pretrain"), "--loss-trace"),
        (["fewshot", "--checkpoint", "x", "--out", "nodir/f.json"], (harness, "run_fewshot"), "--out"),
        (["pretrain", "--out", "adir"], (training, "pretrain"), "--out"),
        (["bench", "--checkpoint", "x", "--dump-canvases", "afile"], (harness, "run_bench"), "--dump-canvases"),
        (["bench", "--checkpoint", "x", "--trace-loss", "afile/sub"], (harness, "run_bench"), "--trace-loss"),
        (["clean-eval", "--checkpoint", "x", "--dump-canvases", "afile/sub"], (harness, "run_clean_eval"), "--dump-canvases"),
        (["clean-eval", "--checkpoint", "x", "--trace-loss", "afile"], (harness, "run_clean_eval"), "--trace-loss"),
    ],
)
def test_unwritable_output_path_rejected_before_running(tmp_path, monkeypatch, capsys, argv, runner, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_bytes(b"")
    monkeypatch.setattr(*runner, lambda *args: pytest.fail("ran with an unwritable output path"))
    assert cli_main(argv) == 1
    path, err = argv[-1], capsys.readouterr().err
    if flag in ("--dump-canvases", "--trace-loss"):
        assert f"error: {flag}: {path!r} is not a directory and cannot be made one" in err
    else:
        assert f"error: {flag}: {path!r} is not a file in an existing directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]


def test_import_loads_no_scipy():
    # in a fresh interpreter, since pytest has loaded scipy for the reference tests
    # nor multiprocessing: pre-training's sample helper is a bare os.fork, so
    # bench, clean-eval and fewshot pay nothing for it
    code = "import sys, vict, vict.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    env = {**os.environ, "PYTHONPATH": str(Path(vict.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.strip() == "[]"
