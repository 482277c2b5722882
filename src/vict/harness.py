"""Benchmark harness: corruption sweeps, clean evaluation, few-shot baseline.

Every report cell is keyed by (method, setting, corruption, severity) and
aggregates a fixed set of per-sample metrics whose seeds derive from the
master seed and the cell coordinates alone, so the same config always
yields byte-identical reports.
An "avg" row per (method, setting, severity) carries the arithmetic mean
of the per-corruption means and is recomputable from the report itself.

The few-shot baseline has one config, ``FewShotSweepConfig``; its
fine-tuning runs through ``training.fit``, the loop pre-training uses.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import corruptions, model, tasks, training, tuning
from .canvas import write_ppm
from .checkpoint import load_checkpoint
from .seeding import mix, rng_for
from .tensor import check_lr
from .training import reject_repeats
from .tuning import VictConfig, adapt_and_predict, infer, select_prompt

FROZEN = "frozen"
VICT = "vict"
METHODS = (FROZEN, VICT)
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
    settings: tuple[str, ...] = tuning.SETTINGS
    methods: tuple[str, ...] = METHODS
    num_samples: int = 50
    vict: VictConfig = field(default_factory=VictConfig)
    seed: int = 0
    dump_canvases: str | Path | None = None
    trace_loss_dir: str | Path | None = None

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError(f"BenchConfig: num_samples must be >= 1, got {self.num_samples}")
        if CLEAN_SEVERITY in self.severities:
            raise ValueError("BenchConfig: severity 0 is reserved for clean evaluation (run_clean_eval)")
        for label, group, allowed in (
            ("corruption kind", self.corruption_kinds, corruptions.ALL_KINDS),
            ("severity", self.severities, corruptions.SEVERITIES),
            ("setting", self.settings, tuning.SETTINGS),
            ("method", self.methods, METHODS),
        ):
            if not group:
                raise ValueError(f"BenchConfig: empty {label} selection")
            bad = [v for v in group if v not in allowed]
            if bad:
                raise ValueError(f"BenchConfig: invalid {label} selection {bad}")
            reject_repeats("BenchConfig", label, group)


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
        return (json.dumps(asdict(self), sort_keys=True, indent=2) + "\n").encode("ascii")

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
        prompt = select_prompt(config.task, setting, test_spec, prompt_seed, c)
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
            results[(setting, method)] = tasks.evaluate(config.task, prediction, sample.target)
    return results


def _aggregate(config: BenchConfig, params: model.Params, cells: list[tuple[str, int]]) -> MetricReport:
    for directory in (config.dump_canvases, config.trace_loss_dir):
        if directory:
            Path(directory).mkdir(parents=True, exist_ok=True)

    rows = []
    total_failures = 0
    for name, severity in cells:
        cell: dict[tuple[str, str], list[float]] = {
            (setting, method): [] for setting in config.settings for method in config.methods
        }
        for index in range(config.num_samples):
            try:
                outcome = _evaluate_sample(config, params, name, severity, index)
            except FloatingPointError as err:
                # only a numerical divergence is excluded from the mean and counted
                # as a failure; any other error is a bug and propagates
                print(f"vict: {name} severity {severity} sample {index} failed: {err}", file=sys.stderr)
                total_failures += 1
                continue
            for key, vals in cell.items():
                vals.append(outcome[key])
        for (setting, method), vals in cell.items():
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
                    "failures": config.num_samples - int(arr.size),
                }
            )
    rows.sort(key=lambda e: (e["method"], e["setting"], e["corruption"], e["severity"]))

    # the mean of each (method, setting, severity) over its corruptions, in row order
    means: dict[tuple[str, str, int], list[float]] = {}
    for e in rows:
        if e["n"] > 0:
            means.setdefault((e["method"], e["setting"], e["severity"]), []).append(e["mean"])
    avg = [
        dict(method=method, setting=setting, severity=severity, mean=float(np.mean(vals)), corruptions=len(vals))
        for (method, setting, severity), vals in sorted(means.items())
    ]

    return MetricReport(
        schema=2,
        task=config.task.value,
        metric=tasks.metric_name_for(config.task),
        higher_is_better=tasks.higher_is_better_for(config.task),
        master_seed=config.seed,
        num_samples=config.num_samples,
        vict=asdict(config.vict),
        rows=rows,
        avg=avg,
        total_failures=total_failures,
    )


def run_bench(config: BenchConfig) -> MetricReport:
    """Corruption sweep over the configured grid of report cells."""
    params = load_checkpoint(config.checkpoint)
    cells = [(kind.value, severity) for kind in config.corruption_kinds for severity in config.severities]
    return _aggregate(config, params, cells)


def run_clean_eval(config: BenchConfig) -> MetricReport:
    """Zero-shot benchmark with the identity corruption; rows are keyed
    'clean'. The config's corruption, severity and setting selection has
    no meaning here and must be left at its defaults."""
    defaults = BenchConfig(checkpoint=config.checkpoint)
    for name in ("corruption_kinds", "severities", "settings"):
        if getattr(config, name) != getattr(defaults, name):
            raise ValueError(
                f"run_clean_eval: BenchConfig.{name} is not read by clean evaluation "
                "(zero-shot, uncorrupted samples); leave it at its default"
            )
    params = load_checkpoint(config.checkpoint)
    config = replace(config, settings=(tuning.ZERO_SHOT,))
    report = _aggregate(config, params, [(CLEAN_KEY, CLEAN_SEVERITY)])
    if FROZEN in config.methods and VICT in config.methods:
        frozen_mean = report.row(FROZEN, tuning.ZERO_SHOT, CLEAN_KEY, CLEAN_SEVERITY)["mean"]
        vict_mean = report.row(VICT, tuning.ZERO_SHOT, CLEAN_KEY, CLEAN_SEVERITY)["mean"]
        gap = abs(vict_mean - frozen_mean) / max(abs(frozen_mean), 1e-12)
        report.clean_gaps.append(
            {
                "setting": tuning.ZERO_SHOT,
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

FEWSHOT_ALLOWED = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class FewShotSweepConfig:
    checkpoint: str | Path
    shots: tuple[int, ...] = FEWSHOT_ALLOWED
    task: tasks.TaskKind = tasks.TaskKind.DENOISE
    corruption_kind: corruptions.CorruptionKind = corruptions.CorruptionKind.GAUSSIAN_NOISE
    severity: int = 3
    finetune_steps: int = 300
    finetune_lr: float = 3e-4
    num_samples: int = 16
    repeats: int = 3
    seed: int = 0

    def __post_init__(self):
        for label, value, least in (
            ("num_samples", self.num_samples, 1),
            ("repeats", self.repeats, 1),
            ("finetune_steps", self.finetune_steps, 0),
        ):
            if value < least:
                raise ValueError(f"FewShotSweepConfig: {label} must be >= {least}, got {value}")
        if not self.shots:
            raise ValueError("FewShotSweepConfig: empty shot list")
        bad = [m for m in self.shots if m not in FEWSHOT_ALLOWED]
        if bad:
            raise ValueError(f"FewShotSweepConfig: shot counts {bad} not in {FEWSHOT_ALLOWED}")
        reject_repeats("FewShotSweepConfig", "shot count", self.shots)
        corruptions.check_severity("FewShotSweepConfig", self.severity)
        check_lr("FewShotSweepConfig", "finetune_lr", self.finetune_lr)


def _frozen_eval(params: model.Params, config: FewShotSweepConfig, seed: int) -> float:
    """Mean metric of frozen inference with clean prompts on corrupted samples."""
    c = params.config.cell_size
    values = []
    for i in range(config.num_samples):
        sample = tasks.generate(config.task, mix("fewshot-eval-test", seed, i), c)
        spec = corruptions.CorruptionSpec(config.corruption_kind, config.severity, mix("fewshot-eval-corr", seed, i))
        x_t = corruptions.apply(sample.input, spec)
        prompt = select_prompt(config.task, tuning.ZERO_SHOT, None, mix("fewshot-eval-prompt", seed, i), c)
        prediction = infer(params, prompt.pair, x_t)
        values.append(tasks.evaluate(config.task, prediction, sample.target))
    return float(np.mean(values))


def fewshot_finetune(params0: model.Params, config: FewShotSweepConfig, shots: int, seed: int) -> model.Params:
    """Fine-tune all parameters of a clone of ``params0`` for
    ``config.finetune_steps`` steps on ``shots`` corrupted input/clean
    target pairs, cycling through them, with pre-training's objective
    flipped half the time. ``params0`` is left untouched."""
    if shots not in config.shots:
        raise ValueError(f"fewshot_finetune: shot count {shots} is not in the config's shots {config.shots}")
    c = params0.config.cell_size
    pairs = []
    for j in range(shots):
        sample = tasks.generate(config.task, mix("fewshot-sample", seed, j), c)
        spec = corruptions.CorruptionSpec(config.corruption_kind, config.severity, mix("fewshot-corrupt", seed, j))
        pairs.append((corruptions.apply(sample.input, spec), sample.target))
    rng = rng_for("fewshot", seed)
    batches = (
        (pairs[(step + 1) % shots], pairs[step % shots], rng.random() < 0.5) for step in range(config.finetune_steps)
    )
    return training.fit(params0.clone(), config.finetune_lr, batches, "few-shot fine-tuning")[0]


def run_fewshot(config: FewShotSweepConfig) -> dict:
    """Fine-tune at each shot count, evaluate frozen, average over repeats."""
    params0 = load_checkpoint(config.checkpoint)
    per_shot = []
    for m in config.shots:
        seeds = [mix("fewshot-rep", config.seed, rep) for rep in range(config.repeats)]
        rep_values = [_frozen_eval(fewshot_finetune(params0, config, m, seed), config, seed) for seed in seeds]
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
