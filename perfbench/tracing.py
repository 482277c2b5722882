"""Spans and counts recorded from outside the program, around calls to its public functions.

A wrapper is patched into the namespace of every module that calls the
function: ``tuning`` and ``training`` import ``adamw_step``,
``assemble_*`` and ``extract_cell`` by name, and ``harness`` imports
``select_prompt`` and ``load_checkpoint`` by name, so patching the
defining module alone would miss those calls. ``harness``'s own
``infer`` and ``adapt_and_predict`` belong to ``workloads.CallSites``, which
opens their spans itself.

Each span records name, start, end, parent and the run phase
(``setup``, ``check`` or ``main``). Spans stay in memory and are written
out at the end of the run. A span's self time is its duration minus the
durations of its direct children; the program is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

PHASES = ("main", "check", "setup")  # per-layer fallback order


class Unmeasured(RuntimeError):
    """A metric had no successful call to measure."""


def tape_nodes(root) -> int:
    """Nodes backward would replay from ``root``: it and every ancestor
    reached through parents that require gradients. Read-only walk."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory span recorder plus per-phase counters."""

    COUNT_SAMPLES = 5  # exact counts repeat, so a few calls per phase suffice

    def __init__(self):
        self.phase = "setup"
        self.spans: list[list] = []  # [name, start, end, parent, phase]
        self._stack: list[int] = []
        self._forward_children: dict[int, int] = defaultdict(int)
        self.totals: dict[tuple[str, str], float] = defaultdict(float)
        self.values: dict[tuple[str, str], list[float]] = defaultdict(list)

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name: str):
        return _Span(self, name)

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def wants_count(self, name: str) -> bool:
        return len(self.values[(name, self.phase)]) < self.COUNT_SAMPLES

    def record(self, name: str, value: float) -> None:
        self.values[(name, self.phase)].append(value)

    def forward_name(self) -> str:
        """``model.forward`` span name by caller: cycle pass 1 or 2, infer, pretrain."""
        caller = self.current()
        if caller == "tuning.cycle_loss":
            idx = self._stack[-1]
            self._forward_children[idx] += 1
            return f"model.forward.cycle{self._forward_children[idx]}"
        if caller == "tuning.infer":
            return "model.forward.infer"
        if caller == "training.pretrain":
            return "model.forward.pretrain"
        return "model.forward.other"

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "phase")
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [dict(zip(keys, (n, s - t0, e - t0, p, ph))) for n, s, e, p, ph in self.spans]
        path.write_text(json.dumps({"time_unit": "s", "spans": rows}) + "\n", encoding="ascii")


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close()
        return False


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _spanned(tracer: Tracer, fn, name, after=None):
    """``fn`` inside a span; ``after(caller, args, out)`` runs in a
    ``bench.count`` span so counting never inflates the caller's self time."""

    def wrapper(*args, **kwargs):
        caller = tracer.current()
        tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            with tracer.span("bench.count"):
                after(caller, args, out)
        return out

    return wrapper


def _corruption_name(args, kwargs) -> str:
    spec = kwargs["spec"] if "spec" in kwargs else args[1]
    return f"corruptions.apply.{spec.kind.value}"


def _counted_matmul(tracer: Tracer, fn):
    """No span (148 calls per cycle loss): counts calls and FLOPs by caller.

    Forward FLOPs are 2*m*k*n. When the output requires gradients its
    backward computes two more products of the same size.
    """

    def wrapper(a, b):
        out = fn(a, b)
        (m, k), n = a.shape, b.shape[1]
        flops = 2.0 * m * k * n * (3 if out.requires_grad else 1)
        key = tracer.current()
        tracer.totals[(f"matmul.calls@{key}", tracer.phase)] += 1
        tracer.totals[(f"matmul.flop@{key}", tracer.phase)] += flops
        return out

    return wrapper


class Patches:
    """Installs the span wrappers; ``restore`` puts every original back."""

    def __init__(self, vict, tracer: Tracer):
        self._saved: list[tuple[object, str, object]] = []
        h, tu, tr, T = vict.harness, vict.tuning, vict.training, vict.tensor

        def adamw_params(caller, args, out):
            if tracer.wants_count("adamw_params"):
                tracer.record("adamw_params", sum(p.data.size for p in args[0].values()))

        def cycle_nodes(caller, args, out):
            if tracer.wants_count("tape_nodes.cycle_loss"):
                tracer.record("tape_nodes.cycle_loss", tape_nodes(out))

        def forward_nodes(caller, args, out):
            if caller == "tuning.infer" and tracer.wants_count("tape_nodes.infer"):
                tracer.record("tape_nodes.infer", tape_nodes(out))

        spanned = [
            (T, "backward", "tensor.backward", None),
            (vict.model, "forward", lambda a, k: tracer.forward_name(), forward_nodes),
            (tu, "cycle_loss", "tuning.cycle_loss", cycle_nodes),
            (tu, "infer", "tuning.infer", None),
            (h, "select_prompt", "tuning.select_prompt", None),
            (vict.corruptions, "apply", _corruption_name, None),
            (tu, "apply", _corruption_name, None),
            (vict.tasks, "generate", "tasks.generate", None),
            (vict.tasks, "evaluate", "tasks.evaluate", None),
            (vict.checkpoint, "load_checkpoint", "checkpoint.load", None),
            (h, "load_checkpoint", "checkpoint.load", None),
            (vict.checkpoint, "save_checkpoint", "checkpoint.save", None),
            (tr, "pretrain", "training.pretrain", None),
            (h, "run_bench", "harness.run_bench", None),
        ]
        for module in (tu, tr):
            spanned += [
                (module, "adamw_step", "tensor.adamw_step", adamw_params),
                (module, "assemble_inference", "canvas.assemble", None),
                (module, "assemble_flipped", "canvas.assemble", None),
                (module, "extract_cell", "canvas.extract", None),
            ]
        for module, attr, name, after in spanned:
            self._set(module, attr, _spanned(tracer, getattr(module, attr), name, after))
        self._set(T, "matmul", _counted_matmul(tracer, T.matmul))

    def _set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


class SpanTable:
    """Durations, self times and children of recorded spans, by name."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        spans = tracer.spans
        self.duration = [end - start for _, start, end, _, _ in spans]
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                self.children[parent].append(i)
        self.self_time = [
            d - sum(self.duration[c] for c in self.children.get(i, ())) for i, d in enumerate(self.duration)
        ]
        self.by_name: dict[tuple[str, str], list[int]] = defaultdict(list)
        for i, (name, _, _, _, phase) in enumerate(spans):
            self.by_name[(name, phase)].append(i)

    def phase_of(self, *names: str) -> str | None:
        """First phase, in ``PHASES`` order, in which any of ``names`` ran."""
        for phase in PHASES:
            if any(self.by_name.get((n, phase)) for n in names):
                return phase
        return None

    def spans(self, name: str, phase: str) -> list[int]:
        return self.by_name.get((name, phase), [])

    def child_time(self, idx: int, prefix: str) -> float:
        return sum(self.duration[c] for c in self.children.get(idx, ()) if self.tracer.spans[c][0].startswith(prefix))

    def child_count(self, idx: int, name: str) -> int:
        return sum(1 for c in self.children.get(idx, ()) if self.tracer.spans[c][0] == name)


def per_layer(
    tracer: Tracer, kinds: list[str], loss_fell: dict[str, list[bool]], main_wall: float, overhead_ratio: float
) -> dict:
    """Every per-layer metric as ``{name: (value, unit, n, phase)}``.

    A layer is measured in the main phase when the workload runs it there,
    else in the run's fixed check, else in its set-up; ``phase`` says which.
    Shares are fractions of ``main_wall``, the traced main phase's wall time.
    """
    table = SpanTable(tracer)
    out: dict[str, tuple[float, str, int, str]] = {}

    def need(phase: str | None, what: str) -> str:
        if phase is None:
            raise Unmeasured(f"{what} never ran in any phase")
        return phase

    def self_ms(metric: str, *names: str) -> None:
        phase = need(table.phase_of(*names), metric)
        idx = [i for n in names for i in table.spans(n, phase)]
        out[metric] = (1e3 * sum(table.self_time[i] for i in idx) / len(idx), "ms", len(idx), phase)

    def value(metric: str, key: str, unit: str) -> None:
        phase = need(next((p for p in PHASES if tracer.values.get((key, p))), None), metric)
        vals = sorted(tracer.values[(key, phase)])
        out[metric] = (vals[len(vals) // 2], unit, len(vals), phase)

    self_ms("tensor.backward_ms", "tensor.backward")
    self_ms("tensor.adamw_ms", "tensor.adamw_step")
    value("tensor.adamw_params", "adamw_params", "count")
    value("tensor.tape_nodes_per_cycle_loss", "tape_nodes.cycle_loss", "count")
    value("tensor.tape_nodes_per_infer", "tape_nodes.infer", "count")

    phase = need(table.phase_of("tuning.cycle_loss"), "tuning.cycle_loss")
    steps = len(table.spans("tuning.cycle_loss", phase))
    cycle = ("model.forward.cycle1", "model.forward.cycle2")
    calls = sum(tracer.totals[(f"matmul.calls@{n}", phase)] for n in cycle)
    flop = sum(tracer.totals[(f"matmul.flop@{n}", phase)] for n in cycle)
    out["tensor.matmul_calls_per_step"] = (calls / steps, "count", steps, phase)
    out["tensor.matmul_gflop_per_step"] = (flop / steps / 1e9, "GFLOP", steps, phase)

    for caller in ("cycle1", "cycle2", "infer", "pretrain"):
        self_ms(f"model.forward_ms.{caller}", f"model.forward.{caller}")
    self_ms("canvas.assemble_ms", "canvas.assemble")
    self_ms("canvas.extract_ms", "canvas.extract")

    # a tuning step: adaptation wall time less its final inference, per cycle loss
    phase = need(table.phase_of("tuning.adapt_and_predict"), "tuning.adapt_and_predict")
    adapts = table.spans("tuning.adapt_and_predict", phase)
    step_time = sum(
        table.duration[i] - table.child_time(i, "tuning.infer") - table.child_time(i, "bench.") for i in adapts
    )
    n_steps = sum(table.child_count(i, "tuning.cycle_loss") for i in adapts)
    out["tuning.step_ms"] = (1e3 * step_time / n_steps, "ms", n_steps, phase)
    self_ms("tuning.cycle_loss_self_ms", "tuning.cycle_loss")
    self_ms("tuning.adapt_self_ms", "tuning.adapt_and_predict")  # clone, digest, loop; frees each step's tape
    phase = need(next((p for p in PHASES if loss_fell.get(p)), None), "tuning.loss_fell_ratio")
    fell = loss_fell[phase]
    out["tuning.loss_fell_ratio"] = (sum(fell) / len(fell), "ratio", len(fell), phase)

    for kind in kinds:
        self_ms(f"corruptions.apply_ms.{kind}", f"corruptions.apply.{kind}")
    self_ms("tasks.generate_ms", "tasks.generate")
    self_ms("tasks.evaluate_ms", "tasks.evaluate")

    phase = need(table.phase_of("training.pretrain"), "training.pretrain")
    runs = table.spans("training.pretrain", phase)
    total = sum(table.duration[i] for i in runs)
    n_steps = sum(table.child_count(i, "tensor.adamw_step") for i in runs)
    out["training.step_ms"] = (1e3 * total / n_steps, "ms", n_steps, phase)
    for share, prefix in (
        ("forward", "model.forward"),
        ("backward", "tensor.backward"),
        ("adamw", "tensor.adamw_step"),
        ("generate", "tasks.generate"),
    ):
        out[f"training.{share}_share"] = (sum(table.child_time(i, prefix) for i in runs) / total, "ratio", n_steps, phase)

    phase = need(table.phase_of("harness.run_bench"), "harness.run_bench")
    benches = table.spans("harness.run_bench", phase)
    samples = sum(table.child_count(i, "tasks.generate") for i in benches)
    out["harness.self_ms_per_sample"] = (1e3 * sum(table.self_time[i] for i in benches) / samples, "ms", samples, phase)
    self_ms("checkpoint.load_ms", "checkpoint.load")
    self_ms("checkpoint.save_ms", "checkpoint.save")

    groups = {
        "share.forward_backward": ("model.forward", "tensor.backward"),
        "share.corruptions_tasks": ("corruptions.apply", "tasks.generate", "tasks.evaluate"),
    }
    for metric, prefixes in groups.items():  # none of these spans nests in another
        covered = sum(table.duration[i] for i, s in enumerate(tracer.spans) if s[4] == "main" and s[0].startswith(prefixes))
        out[metric] = (covered / main_wall, "ratio", 1, "main")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio", 1, "main")
    return out
