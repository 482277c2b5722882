"""Benchmark harness: corruption sweeps, clean evaluation, few-shot baseline.

Every report cell is keyed by (method, setting, corruption, severity) and
aggregates a fixed set of per-sample metrics whose seeds derive from the
master seed and the cell coordinates alone, so the same config always
yields byte-identical reports.
An "avg" row per (method, setting, severity) carries the arithmetic mean
of the per-corruption means and is recomputable from the report itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import corruptions, model, tasks, training, tuning
from .canvas import write_ppm
from .checkpoint import load_checkpoint
from .seeding import mix
from .training import FewShotConfig, fewshot_finetune
from .tuning import VictConfig, adapt_and_predict, infer, select_prompt

FROZEN = "frozen"
VICT = "vict"
CLEAN_KEY = "clean"
CLEAN_SEVERITY = 0

# Table-style column abbreviations, alphabetical like the report layout.
_ABBREV = {
    "brightness": "brigh",
    "contrast": "cont",
    "defocus_blur": "defoc",
    "elastic_transform": "elast",
    "fog": "fog",
    "frost": "frost",
    "gaussian_noise": "gauss",
    "glass_blur": "glass",
    "impulse_noise": "impul",
    "jpeg_compression": "jpeg",
    "motion_blur": "motn",
    "pixelate": "pixel",
    "shot_noise": "shot",
    "snow": "snow",
    "zoom_blur": "zoom",
    CLEAN_KEY: CLEAN_KEY,
}


@dataclass(frozen=True)
class BenchConfig:
    checkpoint: str | Path
    task: tasks.TaskKind = tasks.TaskKind.DENOISE
    corruption_kinds: tuple[corruptions.CorruptionKind, ...] = corruptions.ALL_KINDS
    severities: tuple[int, ...] = (5,)
    settings: tuple[str, ...] = (tuning.ZERO_SHOT, tuning.ONE_SHOT)
    methods: tuple[str, ...] = (FROZEN, VICT)
    num_samples: int = 50
    vict: VictConfig = field(default_factory=VictConfig)
    seed: int = 0
    dump_canvases: str | Path | None = None
    trace_loss_dir: str | Path | None = None

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError(f"BenchConfig: num_samples must be >= 1, got {self.num_samples}")
        for group, allowed in (
            (self.severities, (0, 1, 2, 3, 4, 5)),
            (self.settings, (tuning.ZERO_SHOT, tuning.ONE_SHOT)),
            (self.methods, (FROZEN, VICT)),
        ):
            if not group:
                raise ValueError("BenchConfig: empty selection")
            bad = [v for v in group if v not in allowed]
            if bad:
                raise ValueError(f"BenchConfig: invalid selection {bad}")
        for label, group in (
            ("corruption kind", self.corruption_kinds),
            ("severity", self.severities),
            ("setting", self.settings),
            ("method", self.methods),
        ):
            repeats = list(dict.fromkeys(v for i, v in enumerate(group) if v in group[:i]))
            if repeats:
                names = ", ".join(str(getattr(v, "value", v)) for v in repeats)
                raise ValueError(f"BenchConfig: {label} {names} selected more than once")


@dataclass
class MetricReport:
    schema: int
    task: str
    metric: str
    higher_is_better: bool
    master_seed: int
    num_samples: int
    vict: dict
    rows: list[dict]
    avg: list[dict]
    clean_gaps: list[dict] = field(default_factory=list)
    total_failures: int = 0

    def to_json_bytes(self) -> bytes:
        payload = {
            "schema": self.schema,
            "task": self.task,
            "metric": self.metric,
            "higher_is_better": self.higher_is_better,
            "master_seed": self.master_seed,
            "num_samples": self.num_samples,
            "vict": self.vict,
            "rows": self.rows,
            "avg": self.avg,
            "clean_gaps": self.clean_gaps,
            "total_failures": self.total_failures,
        }
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii")

    def write_json(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_json_bytes())

    def row(self, method: str, setting: str, corruption: str, severity: int) -> dict:
        key = (method, setting, corruption, severity)
        for entry in self.rows:
            if (entry["method"], entry["setting"], entry["corruption"], entry["severity"]) == key:
                return entry
        raise KeyError(f"no row ({method}, {setting}, {corruption}, {severity})")

    def to_csv(self) -> str:
        lines = ["method,setting,corruption,severity,mean,std,n,failures"]
        for e in self.rows:
            lines.append(
                f"{e['method']},{e['setting']},{e['corruption']},{e['severity']},"
                f"{e['mean']:.6f},{e['std']:.6f},{e['n']},{e['failures']}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned table, corruption columns plus the trailing avg column."""
        kinds = sorted({e["corruption"] for e in self.rows})
        lines = [f"task={self.task}  metric={self.metric}  n={self.num_samples} per cell  seed={self.master_seed}"]
        for severity in sorted({e["severity"] for e in self.rows}):
            lines.append(f"-- severity {severity} --")
            header = f"{'method':<8}{'setting':<11}" + "".join(f"{_ABBREV.get(k, k[:5]):>7}" for k in kinds) + f"{'avg':>9}"
            lines.append(header)
            for entry in self.avg:
                if entry["severity"] != severity:
                    continue
                method, setting = entry["method"], entry["setting"]
                cells = [f"{self.row(method, setting, kind, severity)['mean']:>7.2f}" for kind in kinds]
                lines.append(f"{method:<8}{setting:<11}" + "".join(cells) + f"{entry['mean']:>9.3f}")
        return "\n".join(lines) + "\n"


def _evaluate_sample(
    config: BenchConfig, params: model.Params, corruption_name: str, severity: int, index: int
) -> dict[tuple[str, str], float]:
    """Metrics for one test sample across the configured settings and methods."""
    c = params.config.cell_size
    sample = tasks.generate(config.task, mix("bench-test", config.seed, corruption_name, severity, index), c)
    if corruption_name == CLEAN_KEY:
        x_t = sample.input
        test_spec = None
    else:
        spec_seed = mix("bench-test-corruption", config.seed, corruption_name, severity, index)
        test_spec = corruptions.CorruptionSpec(corruptions.CorruptionKind(corruption_name), severity, spec_seed)
        x_t = corruptions.apply(sample.input, test_spec)

    results: dict[tuple[str, str], float] = {}
    for setting in config.settings:
        prompt_seed = mix("bench-prompt", config.seed, corruption_name, severity, index, setting)
        effective = setting if test_spec is not None else tuning.ZERO_SHOT  # clean eval has no corruption to mirror
        prompt = select_prompt(config.task, effective, test_spec, prompt_seed, c)
        for method in config.methods:
            if method == FROZEN:
                prediction = infer(params, prompt.pair, x_t)
            else:
                outcome = adapt_and_predict(params, prompt, x_t, config.vict)
                prediction = outcome.y_t_hat
                if config.trace_loss_dir and index == 0:
                    training.save_loss_trace(
                        Path(config.trace_loss_dir) / f"{corruption_name}_s{severity}_{setting}_loss.csv",
                        outcome.loss_trace,
                    )
            if config.dump_canvases and index == 0:
                x, y = prompt.pair
                grid = np.concatenate(
                    [np.concatenate([x, y], axis=2), np.concatenate([x_t, prediction], axis=2)], axis=1
                )
                write_ppm(Path(config.dump_canvases) / f"{corruption_name}_s{severity}_{setting}_{method}.ppm", grid)
            results[(setting, method)] = tasks.evaluate(config.task, prediction, sample.target).value
    return results


def _aggregate(config: BenchConfig, params: model.Params, cells: list[tuple[str, int]]) -> MetricReport:
    for directory in (config.dump_canvases, config.trace_loss_dir):
        if directory:
            Path(directory).mkdir(parents=True, exist_ok=True)

    values: dict[tuple[str, str, str, int], list[float]] = {}
    failures: dict[tuple[str, str, str, int], int] = {}
    total_failures = 0
    for name, severity in cells:
        keys = [(method, setting, name, severity) for setting in config.settings for method in config.methods]
        for key in keys:
            values.setdefault(key, [])
            failures.setdefault(key, 0)
        for index in range(config.num_samples):
            try:
                outcome = _evaluate_sample(config, params, name, severity, index)
            except (FloatingPointError, RuntimeError) as err:
                # only a numerical divergence is excluded from the mean and counted
                # as a failure; any other error is a bug and propagates
                if isinstance(err, RuntimeError) and not isinstance(err.__cause__, FloatingPointError):
                    raise
                total_failures += 1
                for key in keys:
                    failures[key] += 1
                continue
            for method, setting, _, _ in keys:
                values[(method, setting, name, severity)].append(outcome[(setting, method)])

    rows = []
    for (method, setting, name, severity), vals in sorted(values.items()):
        arr = np.asarray(vals, dtype=np.float64)
        rows.append(
            {
                "method": method,
                "setting": setting,
                "corruption": name,
                "severity": severity,
                "mean": float(arr.mean()) if arr.size else float("nan"),
                "std": float(arr.std()) if arr.size else float("nan"),
                "n": int(arr.size),
                "failures": failures[(method, setting, name, severity)],
            }
        )

    avg = []
    for method in config.methods:
        for setting in config.settings:
            for severity in sorted({severity for _, severity in cells}):
                means = [
                    e["mean"] for e in rows
                    if e["method"] == method and e["setting"] == setting and e["severity"] == severity and e["n"] > 0
                ]
                if means:
                    avg.append(
                        {
                            "method": method,
                            "setting": setting,
                            "severity": severity,
                            "mean": float(np.mean(means)),
                            "corruptions": len(means),
                        }
                    )
    avg.sort(key=lambda e: (e["method"], e["setting"], e["severity"]))

    report = MetricReport(
        schema=1,
        task=config.task.value,
        metric=tasks.metric_name_for(config.task),
        higher_is_better=config.task is not tasks.TaskKind.DEPTH,
        master_seed=config.seed,
        num_samples=config.num_samples,
        vict={
            "steps": config.vict.steps,
            "lr": config.vict.lr,
            "eps": config.vict.eps,
            "selector": config.vict.selector,
            "beta": config.vict.beta,
        },
        rows=rows,
        avg=avg,
        total_failures=total_failures,
    )
    return report


def run_bench(config: BenchConfig) -> MetricReport:
    """Corruption sweep over the configured grid of report cells."""
    params = load_checkpoint(config.checkpoint)
    if any(s == CLEAN_SEVERITY for s in config.severities):
        raise ValueError("run_bench: severity 0 is reserved for clean evaluation")
    cells = [(kind.value, severity) for kind in config.corruption_kinds for severity in config.severities]
    return _aggregate(config, params, cells)


def run_clean_eval(config: BenchConfig) -> MetricReport:
    """Benchmark with the identity corruption; rows are keyed 'clean'."""
    params = load_checkpoint(config.checkpoint)
    config = replace(config, settings=(tuning.ZERO_SHOT,))
    report = _aggregate(config, params, [(CLEAN_KEY, CLEAN_SEVERITY)])
    if FROZEN in config.methods and VICT in config.methods:
        for setting in config.settings:
            frozen_mean = report.row(FROZEN, setting, CLEAN_KEY, CLEAN_SEVERITY)["mean"]
            vict_mean = report.row(VICT, setting, CLEAN_KEY, CLEAN_SEVERITY)["mean"]
            gap = abs(vict_mean - frozen_mean) / max(abs(frozen_mean), 1e-12)
            report.clean_gaps.append(
                {
                    "setting": setting,
                    "frozen_mean": frozen_mean,
                    "vict_mean": vict_mean,
                    "relative_gap": gap,
                    "exceeds_5pct": bool(gap > 0.05),
                }
            )
    return report


# ---------------------------------------------------------------------------
# few-shot baseline sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FewShotSweepConfig:
    checkpoint: str | Path
    shots: tuple[int, ...] = training.FEWSHOT_ALLOWED
    task: tasks.TaskKind = tasks.TaskKind.DENOISE
    corruption_kind: corruptions.CorruptionKind = corruptions.CorruptionKind.GAUSSIAN_NOISE
    severity: int = 3
    finetune_steps: int = 300
    finetune_lr: float = 3e-4
    num_samples: int = 16
    repeats: int = 3
    seed: int = 0


def _frozen_eval(
    params: model.Params,
    task: tasks.TaskKind,
    kind: corruptions.CorruptionKind,
    severity: int,
    num_samples: int,
    seed: int,
) -> float:
    """Mean metric of frozen inference with clean prompts on corrupted samples."""
    c = params.config.cell_size
    values = []
    for i in range(num_samples):
        sample = tasks.generate(task, mix("fewshot-eval-test", seed, i), c)
        spec = corruptions.CorruptionSpec(kind, severity, mix("fewshot-eval-corr", seed, i))
        x_t = corruptions.apply(sample.input, spec)
        prompt = select_prompt(task, tuning.ZERO_SHOT, None, mix("fewshot-eval-prompt", seed, i), c)
        prediction = infer(params, prompt.pair, x_t)
        values.append(tasks.evaluate(task, prediction, sample.target).value)
    return float(np.mean(values))


def run_fewshot(config: FewShotSweepConfig) -> dict:
    """Fine-tune at each shot count, evaluate frozen, average over repeats."""
    params0 = load_checkpoint(config.checkpoint)
    per_shot = []
    for m in config.shots:
        rep_values = []
        for rep in range(config.repeats):
            rep_seed = mix("fewshot-rep", config.seed, rep)
            tuned = fewshot_finetune(
                params0,
                FewShotConfig(
                    shots=m,
                    task=config.task,
                    corruption_kind=config.corruption_kind,
                    severity=config.severity,
                    steps=config.finetune_steps,
                    lr=config.finetune_lr,
                    seed=rep_seed,
                ),
            )
            rep_values.append(
                _frozen_eval(tuned, config.task, config.corruption_kind, config.severity, config.num_samples, rep_seed)
            )
        per_shot.append(
            {
                "shots": m,
                "mean": float(np.mean(rep_values)),
                "std": float(np.std(rep_values)),
                "values": [float(v) for v in rep_values],
            }
        )
    return {
        "schema": 1,
        "task": config.task.value,
        "metric": tasks.metric_name_for(config.task),
        "corruption": config.corruption_kind.value,
        "severity": config.severity,
        "finetune_steps": config.finetune_steps,
        "finetune_lr": config.finetune_lr,
        "num_samples": config.num_samples,
        "repeats": config.repeats,
        "master_seed": config.seed,
        "per_shot": per_shot,
    }
