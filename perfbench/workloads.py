"""Set-up, the fixed check and the three workloads of the vict benchmark.

A run has three phases:

- ``setup``: pre-train a short checkpoint with a fixed seed, save it and
  load it back. Untraced runs set up several times; ``setup_s`` is the
  median.
- ``check``: fixed inputs, the same on every run. One sweep sample with
  both methods gives ``vict_gain_db`` and the report sha256; k=0 tuning is
  compared with frozen inference on a few samples; every corruption kind
  is applied twice to one image.
- ``main``: the workload's units, one after another in a single closed
  loop (a unit starts when the previous one has finished) until the time
  is up. Their inputs derive from the workload seed.

Failures and output checks are counted at the call sites of
``adapt_and_predict`` and ``infer`` in ``harness`` (``CallSites``),
because ``harness`` folds every exception into a per-row count.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vict
from vict import checkpoint, corruptions, harness, model, tasks, training, tuning

from tracing import Patches, Tracer

SETUP_SEED = 0
CHECK_SEED = 0
CHECK_KIND = corruptions.CorruptionKind.CONTRAST
# the four kinds of the roadmap's quick check of the paper claim
TUNE_KINDS = (
    corruptions.CorruptionKind.CONTRAST,
    corruptions.CorruptionKind.DEFOCUS_BLUR,
    corruptions.CorruptionKind.FOG,
    corruptions.CorruptionKind.GAUSSIAN_NOISE,
)
TASK = tasks.TaskKind.DENOISE


@dataclass(frozen=True)
class Sizes:
    model: model.ModelConfig
    setup_steps: int  # pre-training steps of the set-up checkpoint
    setup_repeats: int  # set-ups per untraced run
    vict_steps: int  # tuning steps per adaptation
    k0_samples: int  # samples in the k=0 check
    pretrain_steps: int  # steps per unit of the pretrain workload


FULL = Sizes(
    model.ModelConfig(), setup_steps=40, setup_repeats=3, vict_steps=tuning.DEFAULT_STEPS, k0_samples=8,
    pretrain_steps=100,
)
SMOKE = Sizes(
    model.ModelConfig(cell_size=16, patch_size=8, embed_dim=32, encoder_depth=1, decoder_depth=1, num_heads=2),
    setup_steps=5, setup_repeats=2, vict_steps=3, k0_samples=2, pretrain_steps=5,
)


# Seconds one pass of the host-speed reference is taken to last; a time
# multiplied by a run's scale reads as on a host where it does.
REFERENCE_S = 0.005


class HostSpeed:
    """A fixed numpy-only kernel, no vict code: small matmuls, ``exp`` and
    elementwise ops in a Python loop, like the tape's mix. On a shared host
    the machine runs fast or slow for seconds to minutes at a time, and the
    kernel slows with it, so ``REFERENCE_S`` over its time rescales the
    workload's times to one nominal speed."""

    PASSES = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((64, 64), dtype=np.float32)
        self.w1 = rng.random((64, 256), dtype=np.float32)
        self.w2 = rng.random((64, 192), dtype=np.float32)

    def _pass(self) -> None:
        x = self.x
        for _ in range(40):
            h = x @ self.w1
            h = np.exp(-h * h * 0.01)
            y = (h[:, :64] + x) / (1.0 + np.abs(x))
            x = y - y.mean(axis=1, keepdims=True)
            x = x + (x @ self.w2)[:, :64] * 0.0005

    def scale(self) -> float:
        times = []
        for _ in range(self.PASSES):
            start = time.perf_counter()
            self._pass()
            times.append(time.perf_counter() - start)
        return REFERENCE_S / statistics.median(times)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _finite_unit_range(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all() and arr.min() >= 0.0 and arr.max() <= 1.0)


class CallSites:
    """Stands in for ``harness.infer``, ``harness.adapt_and_predict`` and
    ``training.adamw_step``.

    Times each call, counts exceptions against attempts (then re-raises so
    the harness still counts the failed sample) and checks every output:
    predictions finite and in [0, 1], and ``params0`` unchanged by
    adaptation, which is the per-sample reset. A pre-training step's time
    runs from one ``adamw_step`` return to the next, so the first step of
    each ``pretrain`` call, which includes model initialisation, is not a
    sample.
    """

    def __init__(self):
        self.phase = "setup"
        self.tracer: Tracer | None = None
        self.seconds: dict[str, dict[str, list[float]]] = {k: defaultdict(list) for k in ("adapt", "infer", "step")}
        self.scale = 1.0
        self._host = HostSpeed()
        self.loss_fell: dict[str, list[bool]] = defaultdict(list)
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.first_failure: str | None = None
        self.problems: list[str] = []
        self._adapt, self._infer = harness.adapt_and_predict, harness.infer
        self._adamw = training.adamw_step
        self._unit: tuple[str, list, int] = ("", [], 1)
        self._calls = 0
        self._last_step: float | None = None

    def install(self) -> None:
        harness.adapt_and_predict, harness.infer = self.adapt, self.infer
        training.adamw_step = self.adamw_step

    def restore(self) -> None:
        harness.adapt_and_predict, harness.infer = self._adapt, self._infer
        training.adamw_step = self._adamw

    def begin_unit(self, label: str, jobs: list, calls_per_sample: int) -> None:
        """Start a unit of work: name its samples, in call order, for failure
        messages, and restart the pre-training step clock."""
        self._unit = (label, jobs, calls_per_sample)
        self._calls = 0
        self._last_step = None

    def measure_host(self) -> float:
        """Time the host-speed reference for the work that follows."""
        self.scale = self._host.scale()
        return self.scale

    def problem(self, message: str) -> None:
        self.problems.append(f"[{self.phase}] {message}")

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _call(self, name: str, fn, *args):
        ordinal = self._calls
        self._calls += 1
        self.attempted[self.phase] += 1
        start = time.perf_counter()
        try:
            with self._span(name):
                out = fn(*args)
        except Exception as err:
            self.failed[self.phase] += 1
            if self.first_failure is None:
                label, jobs, per_sample = self._unit
                index = ordinal // per_sample
                job = jobs[index] if index < len(jobs) else "?"
                self.first_failure = f"{label} sample {index} {job}: {type(err).__name__}: {err}"
            raise
        return out, time.perf_counter() - start

    def _check_prediction(self, name: str, pred: np.ndarray, x_t: np.ndarray) -> None:
        if pred.shape != np.shape(x_t) or not _finite_unit_range(pred):
            self.problem(f"{name}: prediction not finite in [0, 1] with the input's shape")

    def adapt(self, params0, prompt, x_t, config):
        with self._span("bench.check"):
            before = params0.digest()
        result, seconds = self._call("tuning.adapt_and_predict", self._adapt, params0, prompt, x_t, config)
        with self._span("bench.check"):
            if params0.digest() != before:
                self.problem("adapt_and_predict changed params0")
            self._check_prediction("adapt_and_predict", result.y_t_hat, x_t)
            if config.steps > 0:
                self.seconds["adapt"][self.phase].append(seconds)
                self.loss_fell[self.phase].append(result.loss_trace[-1] < result.loss_trace[0])
        return result

    def adamw_step(self, params, grads, state):
        self._adamw(params, grads, state)
        now = time.perf_counter()
        if self._last_step is not None:
            self.seconds["step"][self.phase].append(now - self._last_step)
        self._last_step = now

    def infer(self, params, pair, x_t):
        pred, seconds = self._call("tuning.infer", self._infer, params, pair, x_t)
        with self._span("bench.check"):
            self.seconds["infer"][self.phase].append(seconds)
            self._check_prediction("infer", pred, x_t)
        return pred


# ---------------------------------------------------------------------------
# set-up and check
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    scale: float
    seconds: float
    pretrain_seconds: float
    steps: int
    loss_end: float
    loss_trace_sha256: str
    digest: str


def setup(sizes: Sizes, out_dir: Path, calls: CallSites) -> tuple[Setup, Path]:
    """Pre-train the short checkpoint, save it and load it back."""
    path = out_dir / "setup.bin"
    calls.begin_unit("setup", [], 1)
    scale = calls.measure_host()
    start = time.perf_counter()
    result = training.pretrain(sizes.model, training.PretrainConfig(steps=sizes.setup_steps, seed=SETUP_SEED))
    trained = time.perf_counter()
    checkpoint.save_checkpoint(result.params, path)
    loaded = checkpoint.load_checkpoint(path)
    end = time.perf_counter()

    digest = loaded.digest()
    if digest != result.params.digest():
        calls.problem("checkpoint round trip changed the parameters")
    if not all(np.isfinite(loss) and loss >= 0 for loss in result.losses):
        calls.problem("pre-training loss not finite and non-negative")
    trace_path = out_dir / "setup_loss.csv"
    training.save_loss_trace(trace_path, result.losses)
    tail = result.losses[-max(1, len(result.losses) // 10):]
    return (
        Setup(
            scale=scale,
            seconds=end - start,
            pretrain_seconds=trained - start,
            steps=len(result.losses),
            loss_end=float(np.mean(tail)),
            loss_trace_sha256=_sha256(trace_path.read_bytes()),
            digest=digest,
        ),
        path,
    )


def _jobs(config: harness.BenchConfig) -> list[tuple[str, int, int]]:
    """Samples of a ``run_bench`` call in the order the harness runs them."""
    return [
        (kind.value, severity, index)
        for kind in config.corruption_kinds
        for severity in config.severities
        for index in range(config.num_samples)
    ]


def bench_unit(calls: CallSites, label: str, config: harness.BenchConfig) -> tuple[harness.MetricReport, float, int]:
    """One ``run_bench`` call: report, wall seconds, samples. Checks that
    each row's n plus failures equals the samples attempted."""
    jobs = _jobs(config)
    calls.begin_unit(label, jobs, len(config.settings) * len(config.methods))
    failed_before = calls.failed[calls.phase]
    start = time.perf_counter()
    report = harness.run_bench(config)
    seconds = time.perf_counter() - start

    expected_rows = len(jobs) // config.num_samples * len(config.settings) * len(config.methods)
    if len(report.rows) != expected_rows:
        calls.problem(f"{label}: {len(report.rows)} report rows, expected {expected_rows}")
    for row in report.rows:
        if row["n"] + row["failures"] != config.num_samples:
            calls.problem(f"{label}: row {row['method']}/{row['setting']}/{row['corruption']}: n + failures != attempted")
        if row["n"] and not np.isfinite(row["mean"]):
            calls.problem(f"{label}: row {row['method']}/{row['corruption']}: mean not finite")
    if report.total_failures < calls.failed[calls.phase] - failed_before:
        calls.problem(f"{label}: report counts fewer failures than the call sites saw")
    return report, seconds, len(jobs)


@dataclass
class Check:
    scale: float
    sweep_seconds: float
    samples: int
    vict_gain_db: float
    report_sha256: str


def check(ckpt: Path, params0: model.Params, sizes: Sizes, calls: CallSites) -> Check:
    config = harness.BenchConfig(
        checkpoint=ckpt,
        task=TASK,
        corruption_kinds=(CHECK_KIND,),
        severities=(5,),
        settings=(tuning.ZERO_SHOT,),
        methods=(harness.FROZEN, harness.VICT),
        num_samples=1,
        vict=tuning.VictConfig(steps=sizes.vict_steps),
        seed=CHECK_SEED,
    )
    calls.measure_host()
    report, seconds, samples = bench_unit(calls, "check", config)
    avg = {entry["method"]: entry["mean"] for entry in report.avg}
    gain = avg.get(harness.VICT, float("nan")) - avg.get(harness.FROZEN, float("nan"))
    if not np.isfinite(gain):
        calls.problem("check sweep: no VICT and frozen averages to compare")

    c = sizes.model.cell_size
    kinds = corruptions.ALL_KINDS
    jobs = [(kinds[i % len(kinds)].value, 5, i) for i in range(sizes.k0_samples)]
    calls.begin_unit("k0-check", jobs, 1)
    for i, (kind, severity, _) in enumerate(jobs):
        spec = corruptions.CorruptionSpec(corruptions.CorruptionKind(kind), severity, i)
        x_t = corruptions.apply(tasks.generate(TASK, 100 + i, c).input, spec)
        prompt = tuning.select_prompt(TASK, tuning.ZERO_SHOT, None, 200 + i, c)
        frozen = calls.infer(params0, prompt.pair, x_t)
        tuned = tuning.adapt_and_predict(params0, prompt, x_t, tuning.VictConfig(steps=0)).y_t_hat
        if not np.array_equal(frozen, tuned):
            calls.problem(f"k0-check sample {i}: adapt_and_predict with 0 steps differs from infer")

    image = tasks.generate(TASK, 300, c).input
    for kind in kinds:
        spec = corruptions.CorruptionSpec(kind, 3, 400)
        first, second = corruptions.apply(image, spec), corruptions.apply(image, spec)
        if first.shape != image.shape or not _finite_unit_range(first) or not np.array_equal(first, second):
            calls.problem(f"corruption {kind.value}: not a deterministic image in [0, 1]")

    return Check(calls.scale, seconds, samples, gain, _sha256(report.to_json_bytes()))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _unit_seed(seed: int, unit: int) -> int:
    return seed * 1_000_003 + unit


@dataclass
class Unit:
    seconds: float
    work: int  # test samples for the sweeps, steps for pretrain
    sha256: str  # of the unit's report or loss trace
    scale: float = 1.0  # host speed measured just before the unit


def _sweep(calls: CallSites, unit: int, config: harness.BenchConfig) -> Unit:
    report, seconds, samples = bench_unit(calls, f"unit {unit}", config)
    return Unit(seconds, samples, _sha256(report.to_json_bytes()))


def tune_sweep(ckpt: Path, seed: int, unit: int, sizes: Sizes, calls: CallSites, out_dir: Path) -> Unit:
    return _sweep(calls, unit, harness.BenchConfig(
        checkpoint=ckpt,
        task=TASK,
        corruption_kinds=(TUNE_KINDS[unit % len(TUNE_KINDS)],),
        severities=(5,),
        num_samples=1,
        vict=tuning.VictConfig(steps=sizes.vict_steps),
        seed=_unit_seed(seed, unit),
    ))


def frozen_sweep(ckpt: Path, seed: int, unit: int, sizes: Sizes, calls: CallSites, out_dir: Path) -> Unit:
    return _sweep(calls, unit, harness.BenchConfig(
        checkpoint=ckpt,
        task=TASK,
        severities=(1, 2, 3, 4, 5),
        methods=(harness.FROZEN,),
        num_samples=1,
        seed=_unit_seed(seed, unit),
    ))


def pretrain(ckpt: Path, seed: int, unit: int, sizes: Sizes, calls: CallSites, out_dir: Path) -> Unit:
    config = training.PretrainConfig(steps=sizes.pretrain_steps, seed=_unit_seed(seed, unit))
    calls.begin_unit(f"unit {unit}", [], 1)
    calls.attempted[calls.phase] += 1
    start = time.perf_counter()
    try:
        result = training.pretrain(sizes.model, config)
    except RuntimeError as err:  # divergence, reported by pretrain with its step
        calls.failed[calls.phase] += 1
        if calls.first_failure is None:
            calls.first_failure = f"unit {unit}: {err}"
        return Unit(time.perf_counter() - start, 0, "")
    seconds = time.perf_counter() - start
    if not all(np.isfinite(loss) and loss >= 0 for loss in result.losses):
        calls.problem(f"pretrain unit {unit}: loss not finite and non-negative")
    trace_path = out_dir / "unit_loss.csv"
    training.save_loss_trace(trace_path, result.losses)
    return Unit(seconds, len(result.losses), _sha256(trace_path.read_bytes()))


WORKLOADS = {"tune_sweep": tune_sweep, "frozen_sweep": frozen_sweep, "pretrain": pretrain}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class Run:
    setups: list[Setup]
    check: Check
    units: list[Unit]
    main_seconds: float
    calls: CallSites
    tracer: Tracer | None = None
    traced_main_seconds: float = 0.0
    traced_units: list[Unit] = field(default_factory=list)


def _units(workload, ckpt, seed, sizes, calls, out_dir, seconds: float) -> tuple[list[Unit], float]:
    """Closed loop: units until ``seconds`` have passed."""
    units: list[Unit] = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        calls.measure_host()
        units.append(workload(ckpt, seed, len(units), sizes, calls, out_dir))
        units[-1].scale = calls.scale
    return units, time.perf_counter() - start


def _paired_units(workload, ckpt, seed, sizes, calls, out_dir, seconds: float, tracer: Tracer):
    """Each unit twice, untraced and traced, alternating which runs first so
    that drift in the machine's speed cancels out of the tracing overhead.
    Returns (untraced units, their seconds, traced units, their seconds)."""
    runs: dict[bool, list[Unit]] = {False: [], True: []}
    wall = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while not runs[False] or time.perf_counter() - start < seconds:
        unit = len(runs[False])
        for traced in (False, True) if unit % 2 == 0 else (True, False):
            patches = Patches(vict, tracer) if traced else None
            calls.tracer = tracer if traced else None
            began = time.perf_counter()
            try:
                runs[traced].append(workload(ckpt, seed, unit, sizes, calls, out_dir))
            finally:
                if patches is not None:
                    patches.restore()
            wall[traced] += time.perf_counter() - began
    calls.tracer = None
    return runs[False], wall[False], runs[True], wall[True]


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, out_dir: Path) -> Run:
    """One run of a workload. With ``trace`` the set-up and check are
    traced, and the main phase runs each unit untraced and traced, which
    gives the tracing overhead."""
    workload = WORKLOADS[name]
    calls = CallSites()
    calls.install()
    tracer = Tracer() if trace else None
    patches = Patches(vict, tracer) if trace else None  # wraps the call sites, so restored first
    calls.tracer = tracer
    try:
        setups = []
        for _ in range(1 if trace else sizes.setup_repeats):
            result, ckpt = setup(sizes, out_dir, calls)
            setups.append(result)
        params0 = checkpoint.load_checkpoint(ckpt)

        calls.phase = "check"
        if tracer is not None:
            tracer.phase = "check"
        checked = check(ckpt, params0, sizes, calls)

        calls.phase = "main"
        if tracer is None:
            units, wall = _units(workload, ckpt, seed, sizes, calls, out_dir, seconds)
            return Run(setups, checked, units, wall, calls)

        patches.restore()
        patches = None
        tracer.phase = "main"
        units, wall, traced, traced_wall = _paired_units(workload, ckpt, seed, sizes, calls, out_dir, seconds, tracer)
        return Run(setups, checked, units, wall, calls, tracer, traced_wall, traced)
    finally:
        if patches is not None:
            patches.restore()
        calls.restore()
