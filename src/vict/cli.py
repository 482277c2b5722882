"""Command-line entry points: pretrain, bench, clean-eval, fewshot, gradcheck, inspect."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corruptions, gradcheck, harness, tasks, training, tuning
from .checkpoint import describe_checkpoint, save_checkpoint
from .model import ModelConfig


def _parse_tasks(text: str) -> tuple[tasks.TaskKind, ...]:
    if text == "all":
        return tasks.ALL_TASKS
    return tuple(tasks.TaskKind(name.strip()) for name in text.split(","))


def _parse_corruptions(text: str) -> tuple[corruptions.CorruptionKind, ...]:
    if text == "all":
        return corruptions.ALL_KINDS
    return tuple(corruptions.CorruptionKind(name.strip()) for name in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parse_settings(text: str) -> tuple[str, ...]:
    return {
        "zero": (tuning.ZERO_SHOT,),
        "one": (tuning.ONE_SHOT,),
        "both": (tuning.ZERO_SHOT, tuning.ONE_SHOT),
    }[text]


def _parse_methods(text: str) -> tuple[str, ...]:
    return {
        "frozen": (harness.FROZEN,),
        "vict": (harness.VICT,),
        "both": (harness.FROZEN, harness.VICT),
    }[text]


def _add_bench_flags(p: argparse.ArgumentParser) -> None:
    vict = tuning.VictConfig()
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", default="denoise")
    p.add_argument("--severity", default="5", help="comma list of levels in [1,5]")
    p.add_argument("--setting", default="both", choices=["zero", "one", "both"])
    p.add_argument("--method", default="both", choices=["frozen", "vict", "both"])
    p.add_argument("--steps", type=int, default=vict.steps, help="test-time tuning steps")
    p.add_argument("--lr", type=float, default=vict.lr, help="test-time tuning learning rate")
    p.add_argument("--eps", type=float, default=vict.eps, help="test-time AdamW damping")
    p.add_argument("--tune", default=vict.selector, choices=["encoder", "all"])
    p.add_argument("--beta", type=float, default=vict.beta)
    p.add_argument("--num-samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="also write a CSV report here")
    p.add_argument("--dump-canvases", default=None, metavar="DIR")
    p.add_argument("--trace-loss", default=None, metavar="DIR")


def _bench_config(args, corruption_kinds, severities) -> harness.BenchConfig:
    return harness.BenchConfig(
        checkpoint=args.checkpoint,
        task=tasks.TaskKind(args.task),
        corruption_kinds=corruption_kinds,
        severities=severities,
        settings=_parse_settings(args.setting),
        methods=_parse_methods(args.method),
        num_samples=args.num_samples,
        vict=tuning.VictConfig(steps=args.steps, lr=args.lr, eps=args.eps, selector=args.tune, beta=args.beta),
        seed=args.seed,
        dump_canvases=args.dump_canvases,
        trace_loss_dir=args.trace_loss,
    )


def _emit_report(report: harness.MetricReport, args) -> None:
    if args.out:
        report.write_json(args.out)
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="ascii")
    sys.stdout.write(report.to_text())


def _cmd_pretrain(args) -> int:
    task_mix = _parse_tasks(args.task_mix)
    if args.exclude_task:
        held_out = tasks.TaskKind(args.exclude_task)
        task_mix = tuple(t for t in task_mix if t is not held_out)
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
    config = _bench_config(args, _parse_corruptions(args.corruption), _parse_int_list(args.severity))
    _emit_report(harness.run_bench(config), args)
    return 0


def _cmd_clean_eval(args) -> int:
    # corruption kinds and severities are ignored by the clean evaluation
    config = _bench_config(args, (), (5,))
    report = harness.run_clean_eval(config)
    _emit_report(report, args)
    for gap in report.clean_gaps:
        marker = "  [gap > 5%]" if gap["exceeds_5pct"] else ""
        print(
            f"clean {gap['setting']}: frozen {gap['frozen_mean']:.3f} vs vict {gap['vict_mean']:.3f} "
            f"(relative gap {gap['relative_gap']:.1%}){marker}"
        )
    return 0


def _cmd_fewshot(args) -> int:
    config = harness.FewShotSweepConfig(
        checkpoint=args.checkpoint,
        shots=_parse_int_list(args.shots),
        task=tasks.TaskKind(args.task),
        corruption_kind=corruptions.CorruptionKind(args.corruption),
        severity=int(args.severity),
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

    p = sub.add_parser("pretrain", help="pre-train on clean procedural tasks")
    p.add_argument("--task-mix", default="all", help="comma list of tasks, or 'all'")
    p.add_argument("--exclude-task", default=None, help="hold one task out of pre-training")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-trace", default=None, help="write a step,loss CSV here")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("bench", help="corruption benchmark sweep")
    _add_bench_flags(p)
    p.add_argument("--corruption", default="all", help="comma list of kinds, or 'all'")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("clean-eval", help="evaluate on clean (in-domain) samples")
    _add_bench_flags(p)
    p.set_defaults(func=_cmd_clean_eval)

    p = sub.add_parser("fewshot", help="few-shot corrupted fine-tuning baseline sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--shots", default="1,2,4,8,16,32,64")
    p.add_argument("--task", default="denoise")
    p.add_argument("--corruption", default="gaussian_noise")
    p.add_argument("--severity", default="3")
    p.add_argument("--finetune-steps", type=int, default=300)
    p.add_argument("--finetune-lr", type=float, default=3e-4)
    p.add_argument("--num-samples", type=int, default=16)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
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
        return args.func(args)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
