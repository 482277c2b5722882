import json

import pytest

from vict import tuning
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


def test_bench_defaults_are_victconfig_defaults():
    args = build_parser().parse_args(["bench", "--checkpoint", "x"])
    assert _bench_config(args, (), (5,)).vict == tuning.VictConfig()
