"""Command-line entry points: pretrain, bench, clean-eval, fewshot, gradcheck, inspect."""

from __future__ import annotations

import argparse
import json
import sys
from enum import Enum
from pathlib import Path

from . import corruptions, gradcheck, harness, tasks, training, tuning
from .checkpoint import describe_checkpoint, save_checkpoint
from .model import ModelConfig


def _parse_name(flag: str, kind: type[Enum], text: str, item: str | None = None):
    """The member of ``kind`` named ``item``, one entry of the ``flag`` value
    ``text`` (by default all of it)."""
    item = text if item is None else item
    try:
        return kind(item.strip())
    except ValueError:
        where = "" if item == text else f" in {text!r}"
        valid = ", ".join(member.value for member in kind)
        raise ValueError(f"{flag}: {item!r}{where} is not one of {valid}") from None


def _parse_names(flag: str, kind: type[Enum], text: str, every: tuple) -> tuple:
    """A comma list of ``kind`` names, or ``every`` for 'all'."""
    if text == "all":
        return every
    return tuple(_parse_name(flag, kind, text, item) for item in text.split(","))


def _parse_int_list(flag: str, text: str) -> tuple[int, ...]:
    values = []
    for item in text.split(","):
        try:
            values.append(int(item))
        except ValueError:
            raise ValueError(f"{flag}: {item!r} in {text!r} is not an integer") from None
    return tuple(values)


def _parse_settings(text: str) -> tuple[str, ...]:
    return {
        "zero": (tuning.ZERO_SHOT,),
        "one": (tuning.ONE_SHOT,),
        "both": tuning.SETTINGS,
    }[text]


def _parse_methods(text: str) -> tuple[str, ...]:
    return {
        "frozen": (harness.FROZEN,),
        "vict": (harness.VICT,),
        "both": harness.METHODS,
    }[text]


def _add_bench_flags(p: argparse.ArgumentParser) -> None:
    bench = harness.BenchConfig(checkpoint="")
    vict = bench.vict
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", default=bench.task.value)
    p.add_argument("--method", default="both", choices=["frozen", "vict", "both"])
    p.add_argument("--steps", type=int, default=vict.steps, help="test-time tuning steps")
    p.add_argument("--lr", type=float, default=vict.lr, help="test-time tuning learning rate")
    p.add_argument("--eps", type=float, default=vict.eps, help="test-time AdamW damping")
    p.add_argument("--num-samples", type=int, default=bench.num_samples)
    p.add_argument("--seed", type=int, default=bench.seed)
    p.add_argument("--out", default=None, help="write the JSON report here, and its per-sample records beside it")
    p.add_argument("--csv", default=None, help="also write a CSV report here")
    p.add_argument("--dump-canvases", default=None, metavar="DIR")


def _bench_config(args, **grid) -> harness.BenchConfig:
    """The ``bench``/``clean-eval`` config; ``grid`` holds ``bench``'s
    corruption, severity and setting selection."""
    return harness.BenchConfig(
        checkpoint=args.checkpoint,
        task=_parse_name("--task", tasks.TaskKind, args.task),
        methods=_parse_methods(args.method),
        num_samples=args.num_samples,
        vict=tuning.VictConfig(steps=args.steps, lr=args.lr, eps=args.eps),
        seed=args.seed,
        dump_canvases=args.dump_canvases,
        **grid,
    )


def _check_out_paths(args) -> None:
    """Reject an output file path that is a directory, or whose directory
    does not exist, and an output directory path that is, or lies under, an
    existing non-directory, before any work starts, so a long run is not
    lost at the end. A report's sidecar counts as an ``--out`` file."""
    files = [(flag, getattr(args, flag[2:].replace("-", "_"), None)) for flag in ("--out", "--csv", "--loss-trace")]
    if args.func in (_cmd_bench, _cmd_clean_eval) and args.out:
        files.append(("--out", str(harness.sidecar_path(args.out))))
    for flag, path in files:
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ValueError(f"{flag}: {path!r} is not a file in an existing directory")
    path = getattr(args, "dump_canvases", None) or "."
    if any(p.exists() and not p.is_dir() for p in (Path(path), *Path(path).parents)):
        raise ValueError(f"--dump-canvases: {path!r} is not a directory and cannot be made one")


def _emit_report(report: harness.MetricReport, args) -> None:
    if args.out:
        report.write_json(args.out)
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="ascii")
    sys.stdout.write(report.to_text())


def _exit_status(report: harness.MetricReport) -> int:
    """1, with a line on stderr, when no sample of ``report`` succeeded."""
    if report.total_failures < len(report.records):
        return 0
    print(f"error: every sample failed ({report.total_failures} of {len(report.records)})", file=sys.stderr)
    return 1


def _cmd_pretrain(args) -> int:
    task_mix = _parse_names("--task-mix", tasks.TaskKind, args.task_mix, tasks.ALL_TASKS)
    cfg = training.PretrainConfig(steps=args.steps, lr=args.lr, task_mix=task_mix, seed=args.seed)
    result = training.pretrain(ModelConfig(), cfg)
    save_checkpoint(result.params, args.out)
    if args.loss_trace:
        training.save_loss_trace(args.loss_trace, result.losses)
    first = sum(result.losses[:100]) / max(len(result.losses[:100]), 1) if result.losses else float("nan")
    last = sum(result.losses[-100:]) / max(len(result.losses[-100:]), 1) if result.losses else float("nan")
    print(f"pretrained {args.steps} steps; leading-100 mean loss {first:.5f}, trailing-100 mean loss {last:.5f}")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    config = _bench_config(
        args,
        corruption_kinds=_parse_names("--corruption", corruptions.CorruptionKind, args.corruption, corruptions.ALL_KINDS),
        severities=_parse_int_list("--severity", args.severity),
        settings=_parse_settings(args.setting),
    )
    report = harness.run_bench(config)
    _emit_report(report, args)
    return _exit_status(report)


def _cmd_clean_eval(args) -> int:
    report = harness.run_clean_eval(_bench_config(args))
    _emit_report(report, args)
    for gap in report.clean_gaps:
        marker = "  [gap > 5%]" if gap["exceeds_5pct"] else ""
        print(
            f"clean {gap['setting']}: frozen {gap['frozen_mean']:.3f} vs vict {gap['vict_mean']:.3f} "
            f"(relative gap {gap['relative_gap']:.1%}){marker}"
        )
    return _exit_status(report)


def _cmd_fewshot(args) -> int:
    config = harness.FewShotSweepConfig(
        checkpoint=args.checkpoint,
        shots=_parse_int_list("--shots", args.shots),
        task=_parse_name("--task", tasks.TaskKind, args.task),
        corruption_kind=_parse_name("--corruption", corruptions.CorruptionKind, args.corruption),
        severity=args.severity,
        finetune_steps=args.finetune_steps,
        finetune_lr=args.finetune_lr,
        num_samples=args.num_samples,
        repeats=args.repeats,
        seed=args.seed,
    )
    result = harness.run_fewshot(config)
    if args.out:
        Path(args.out).write_text(json.dumps(result, sort_keys=True, indent=2) + "\n", encoding="ascii")
    for entry in result["per_shot"]:
        print(f"shots {entry['shots']:>3}: {result['metric']} {entry['mean']:.3f} +- {entry['std']:.3f}")
    return 0


def _cmd_gradcheck(args) -> int:
    worst, results = gradcheck.run_gradcheck(seed=args.seed, verbose=args.verbose)
    print(f"gradcheck: max relative error {worst:.3e} over {len(results)} checks (tolerance {gradcheck.TOLERANCE:.0e})")
    return 0 if worst < gradcheck.TOLERANCE else 1


def _cmd_inspect(args) -> int:
    print(describe_checkpoint(args.checkpoint))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vict", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pre = training.PretrainConfig()
    p = sub.add_parser("pretrain", help="pre-train on clean procedural tasks")
    p.add_argument("--task-mix", default="all", help="comma list of tasks, or 'all'")
    p.add_argument("--steps", type=int, default=pre.steps)
    p.add_argument("--lr", type=float, default=pre.lr)
    p.add_argument("--seed", type=int, default=pre.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-trace", default=None, help="write a step,loss CSV here")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("bench", help="corruption benchmark sweep")
    _add_bench_flags(p)
    p.add_argument("--corruption", default="all", help="comma list of kinds, or 'all'")
    p.add_argument("--severity", default="5", help=f"comma list of levels from {corruptions.SEVERITIES}")
    p.add_argument("--setting", default="both", choices=["zero", "one", "both"])
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("clean-eval", help="evaluate on clean (in-domain) samples, zero-shot")
    _add_bench_flags(p)
    p.set_defaults(func=_cmd_clean_eval)

    few = harness.FewShotSweepConfig(checkpoint="")
    p = sub.add_parser("fewshot", help="few-shot corrupted fine-tuning baseline sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--shots", default=",".join(map(str, few.shots)))
    p.add_argument("--task", default=few.task.value)
    p.add_argument("--corruption", default=few.corruption_kind.value)
    p.add_argument("--severity", type=int, default=few.severity)
    p.add_argument("--finetune-steps", type=int, default=few.finetune_steps)
    p.add_argument("--finetune-lr", type=float, default=few.finetune_lr)
    p.add_argument("--num-samples", type=int, default=few.num_samples)
    p.add_argument("--repeats", type=int, default=few.repeats)
    p.add_argument("--seed", type=int, default=few.seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fewshot)

    p = sub.add_parser("gradcheck", help="double-precision finite-difference suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("inspect", help="print checkpoint metadata")
    p.add_argument("checkpoint")
    p.set_defaults(func=_cmd_inspect)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        _check_out_paths(args)
        return args.func(args)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
