"""Benchmark harness: corruption sweeps, clean evaluation, few-shot baseline.

Each test sample is evaluated into one ``SampleRecord``, with seeds that
derive from the master seed and the sample's coordinates alone; the report
is ``_fold`` over the records, which does no I/O, so the same config always
yields byte-identical reports. Every row is keyed by (method, setting,
corruption, severity); an "avg" row per (method, setting, severity) carries
the arithmetic mean of the per-corruption means and is recomputable from
the report itself. ``MetricReport.write_json`` writes the records to a sidecar.

``_evaluate_sample`` is the one place a test sample is predicted and
scored; it renders the sample, corrupts its input and draws its prompts
(``_draw_inputs``) from its coordinates and the master seed alone.
``_evaluate`` splits a sweep's jobs over one process per usable CPU, at
most one per job: this process evaluates every W-th job from the first,
and W - 1 forked workers (``prefetch.Prefetcher``) the others. A job is
one sample's setting when VICT is among the methods, so a sample's
adaptations run in parallel, and else all its settings, whose frozen
predictions are one stacked ``infer`` call. It takes the records in job
order, merges each sample's into one (``_merged``), writes its canvas
dumps and prints its failure as it takes it, so records, stderr, report
and canvas bytes do not depend on the CPU count. The few-shot baseline
has one config, ``FewShotSweepConfig``; its fine-tuning runs through
``training.fit``, the loop pre-training uses, and it scores each
fine-tuned clone through the bench's own frozen zero-shot records.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterator
from contextlib import ExitStack, closing
from dataclasses import asdict, dataclass, field, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import corruptions, model, tasks, training, tuning
from .canvas import write_ppm
from .checkpoint import load_checkpoint
from .prefetch import Prefetcher
from .seeding import mix, rng_for
from .tensor import check_lr
from .training import reject_repeats
from .tuning import PromptSet, VictConfig, adapt_and_predict, infer, select_prompt

FROZEN = "frozen"
VICT = "vict"
METHODS = (FROZEN, VICT)
CLEAN_KEY = "clean"
CLEAN_SEVERITY = 0

# Column abbreviations where a name's first five letters do not serve.
_ABBREV = {
    "contrast": "cont",
    "jpeg_compression": "jpeg",
    "motion_blur": "motn",
    "shot_noise": "shot",
    "zoom_blur": "zoom",
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


@dataclass(frozen=True)
class SampleRecord:
    """One test sample's outcome. ``metrics`` maps setting, then method, to
    the metric and ``loss_traces`` maps setting to the tuning loss per step;
    a sample that diverged holds neither, only its ``failure`` message."""

    corruption: str
    severity: int
    index: int
    metrics: dict[str, dict[str, float]]
    loss_traces: dict[str, list[float]]
    failure: str | None = None


def sidecar_path(report_path: str | Path) -> Path:
    """Where ``MetricReport.write_json`` puts the per-sample records."""
    return Path(report_path).with_suffix(".samples.jsonl")


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
    records: list[SampleRecord] = field(default_factory=list)

    def to_json_bytes(self) -> bytes:
        """The report without its records."""
        payload = {name: value for name, value in asdict(self).items() if name != "records"}
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii")

    def write_json(self, path: str | Path) -> None:
        """The report at ``path``, and its records in evaluation order at
        ``sidecar_path(path)``, one JSON line each."""
        Path(path).write_bytes(self.to_json_bytes())
        lines = [json.dumps(asdict(record), sort_keys=True) + "\n" for record in self.records]
        sidecar_path(path).write_text("".join(lines), encoding="ascii")

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
        """Aligned table, corruption columns plus the trailing avg column; a
        (method, setting) whose every sample failed has nan for its avg."""
        kinds = sorted({e["corruption"] for e in self.rows})
        avg = {(e["method"], e["setting"], e["severity"]): e["mean"] for e in self.avg}
        lines = [f"task={self.task}  metric={self.metric}  n={self.num_samples} per cell  seed={self.master_seed}"]
        for severity in sorted({e["severity"] for e in self.rows}):
            lines.append(f"-- severity {severity} --")
            header = f"{'method':<8}{'setting':<11}" + "".join(f"{_ABBREV.get(k, k[:5]):>7}" for k in kinds) + f"{'avg':>9}"
            lines.append(header)
            for method, setting in sorted({(e["method"], e["setting"]) for e in self.rows if e["severity"] == severity}):
                cells = [f"{self.row(method, setting, kind, severity)['mean']:>7.2f}" for kind in kinds]
                mean = avg.get((method, setting, severity), float("nan"))
                lines.append(f"{method:<8}{setting:<11}" + "".join(cells) + f"{mean:>9.3f}")
        return "\n".join(lines) + "\n"


def _draw_inputs(
    config: BenchConfig, corruption_name: str, severity: int, index: int, cell_size: int
) -> tuple[np.ndarray, np.ndarray, dict[str, PromptSet]]:
    """The test sample's target, its input and its prompt per setting, from
    its coordinates alone. Unless the sample is clean, its input is
    corrupted, and its one-shot prompt is corrupted with the same spec."""
    spec = None
    if corruption_name != CLEAN_KEY:
        spec_seed = mix("bench-test-corruption", config.seed, corruption_name, severity, index)
        spec = corruptions.CorruptionSpec(corruptions.CorruptionKind(corruption_name), severity, spec_seed)
    sample = tasks.generate(config.task, mix("bench-test", config.seed, corruption_name, severity, index), cell_size)
    x_t = sample.input if spec is None else corruptions.apply(sample.input, spec)
    seeds = {setting: mix("bench-prompt", config.seed, corruption_name, severity, index, setting) for setting in config.settings}
    prompts = {setting: select_prompt(config.task, setting, spec, seed, cell_size) for setting, seed in seeds.items()}
    return sample.target, x_t, prompts


def _where(corruption_name: str, severity: int, index: int) -> str:
    return f"{corruption_name} severity {severity} sample {index}"


def _evaluate_sample(
    config: BenchConfig, params: model.Params, corruption_name: str, severity: int, index: int
) -> tuple[SampleRecord, dict[str, np.ndarray]]:
    """One test sample's record across the configured settings and methods,
    and, for sample 0 of a sweep that dumps canvases, the canvas grid of
    each prediction made, by file name. The settings' frozen predictions
    come from one stacked ``infer`` call, or if it diverges one call each.
    Only a numerical divergence makes a failed record, with the loop's
    first message; any other error is a bug and propagates."""
    metrics: dict[str, dict[str, float]] = {}
    traces: dict[str, list[float]] = {}
    grids: dict[str, np.ndarray] = {}
    target, x_t, prompts = _draw_inputs(config, corruption_name, severity, index, params.config.cell_size)
    try:
        frozen = {}
        if FROZEN in config.methods:
            pairs = [prompt.pair for prompt in prompts.values()]
            try:
                stacked = infer(params, tuple(map(np.stack, zip(*pairs))), np.broadcast_to(x_t, (len(pairs), *x_t.shape)))
            except FloatingPointError:
                if len(pairs) == 1:  # the stack was the loop's own call
                    raise
            else:
                frozen = dict(zip(prompts, stacked))

        for setting, prompt in prompts.items():
            for method in config.methods:
                if method == FROZEN:
                    # after a diverged stack, one at a time: the record is the loop's first failure
                    prediction = frozen[setting] if frozen else infer(params, prompt.pair, x_t)
                else:
                    outcome = adapt_and_predict(params, prompt, x_t, config.vict)
                    prediction = outcome.y_t_hat
                    traces[setting] = outcome.loss_trace
                if config.dump_canvases and index == 0:
                    x, y = prompt.pair
                    grids[f"{corruption_name}_s{severity}_{setting}_{method}.ppm"] = np.concatenate(
                        [np.concatenate([x, y], axis=2), np.concatenate([x_t, prediction], axis=2)], axis=1
                    )
                metrics.setdefault(setting, {})[method] = float(tasks.evaluate(config.task, prediction, target))
    except FloatingPointError as err:
        return SampleRecord(corruption_name, severity, index, {}, {}, str(err)), grids
    return SampleRecord(corruption_name, severity, index, metrics, traces), grids


def _evaluate_share(
    config: BenchConfig, params: model.Params, jobs: list[tuple[str, int, int, tuple[str, ...]]]
) -> Iterator[tuple[SampleRecord, dict[str, np.ndarray]]]:
    for name, severity, index, settings in jobs:
        yield _evaluate_sample(replace(config, settings=settings), params, name, severity, index)


def _merged(parts: list[tuple[SampleRecord, dict[str, np.ndarray]]]) -> tuple[SampleRecord, dict[str, np.ndarray]]:
    """A sample's record and canvas grids from its setting groups', in
    setting order, as the serial loop makes them: up to the first failed
    group, whose record is the sample's."""
    metrics, traces, grids = {}, {}, {}
    for record, part_grids in parts:
        grids |= part_grids
        if record.failure is not None:
            return record, grids
        metrics |= record.metrics
        traces |= record.loss_traces
    return replace(parts[0][0], metrics=metrics, loss_traces=traces), grids


def _evaluate(config: BenchConfig, params: model.Params, cells: list[tuple[str, int]]) -> list[SampleRecord]:
    """The records of ``params`` on every sample of every cell, in (cell,
    index) order, each failure printed to stderr as its record is taken.
    A job is one sample's setting group: each setting alone when VICT is
    among the methods, so that a sample's adaptations run in parallel, and
    else all settings, for one stacked frozen call. Over W processes, one
    per usable CPU and at most one per job, this one evaluates jobs 0, W,
    2W, ... and forked worker w jobs w, W + w, ...; a bug in a worker is a
    ``RuntimeError`` naming it, the sample and, for a job of one setting
    among several, the setting; every worker is killed and reaped on any
    exit."""
    if config.dump_canvases:
        Path(config.dump_canvases).mkdir(parents=True, exist_ok=True)
    groups = [(setting,) for setting in config.settings] if VICT in config.methods else [config.settings]
    jobs = [(name, severity, i, group) for name, severity in cells for i in range(config.num_samples) for group in groups]
    width = min(len(os.sched_getaffinity(0)), len(jobs))
    shares = [_evaluate_share(config, params, jobs[w::width]) for w in range(width)]
    records = []
    with ExitStack() as stack:
        workers = [stack.enter_context(closing(Prefetcher(f"bench worker {w}", shares[w]))) for w in range(1, width)]
        for first in range(0, len(jobs), len(groups)):
            where = _where(*jobs[first][:3])
            parts = []
            for j in range(first, first + len(groups)):
                label = where if len(groups) == 1 else f"{where}, {jobs[j][3][0]}"
                parts.append(next(shares[0]) if j % width == 0 else workers[j % width - 1].get(label))
            record, grids = _merged(parts)
            for file_name, grid in grids.items():
                write_ppm(Path(config.dump_canvases) / file_name, grid)
            if record.failure is not None:
                print(f"vict: {where} failed: {record.failure}", file=sys.stderr)
            records.append(record)
    return records


def _fold(config: BenchConfig, records: list[SampleRecord]) -> MetricReport:
    """The report over ``records``, which come cell by cell as ``_evaluate`` lists them."""
    rows = []
    for (name, severity), cell in groupby(records, key=lambda r: (r.corruption, r.severity)):
        done = [r for r in cell if r.failure is None]
        for setting in config.settings:
            for method in config.methods:
                arr = np.asarray([r.metrics[setting][method] for r in done], dtype=np.float64)
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
        schema=3,
        task=config.task.value,
        metric=tasks.metric_name_for(config.task),
        higher_is_better=tasks.higher_is_better_for(config.task),
        master_seed=config.seed,
        num_samples=config.num_samples,
        vict=asdict(config.vict),
        rows=rows,
        avg=avg,
        total_failures=sum(r.failure is not None for r in records),
        records=records,
    )


def run_bench(config: BenchConfig) -> MetricReport:
    """Corruption sweep over the configured grid of report cells."""
    cells = [(kind.value, severity) for kind in config.corruption_kinds for severity in config.severities]
    return _fold(config, _evaluate(config, load_checkpoint(config.checkpoint), cells))


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
    config = replace(config, settings=(tuning.ZERO_SHOT,))
    report = _fold(config, _evaluate(config, load_checkpoint(config.checkpoint), [(CLEAN_KEY, CLEAN_SEVERITY)]))
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
    """Fine-tune at each shot count and score each clone as ``vict bench``
    scores frozen zero-shot inference, on the same samples and prompts."""
    params0 = load_checkpoint(config.checkpoint)
    bench = BenchConfig(
        checkpoint=config.checkpoint,
        task=config.task,
        corruption_kinds=(config.corruption_kind,),
        severities=(config.severity,),
        settings=(tuning.ZERO_SHOT,),
        methods=(FROZEN,),
        num_samples=config.num_samples,
        seed=config.seed,
    )
    per_shot = []
    for m in config.shots:
        rep_values = []
        for rep in range(config.repeats):
            clone = fewshot_finetune(params0, config, m, mix("fewshot-rep", config.seed, rep))
            report = _fold(bench, _evaluate(bench, clone, [(config.corruption_kind.value, config.severity)]))
            for record in report.records:
                if record.failure is not None:
                    raise FloatingPointError(f"few-shot evaluation at {m} shots, repeat {rep}: {record.failure}")
            rep_values.append(report.rows[0]["mean"])
        per_shot.append(
            {
                "shots": m,
                "mean": float(np.mean(rep_values)),
                "std": float(np.std(rep_values)),
                "values": rep_values,
            }
        )
    return {
        "schema": 2,
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
