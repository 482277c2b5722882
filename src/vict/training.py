"""Clean-distribution pre-training and the one weight-fitting loop.

``fit`` is the loop that pre-training and the few-shot fine-tuning
baseline (``harness.fewshot_finetune``) share: every parameter on the
tape, a fresh AdamW state, and per batch one smooth-L1 loss on a masked
output cell's patch rows (``masked_cell_loss``), one backward and one
update. The update of each gradient run is computed by a forked AdamW
worker (``tensor.AdamWWorker``) while backward still runs; the weights
change only in this process, with the same bits as an in-process update.

Pre-training draws a task, generates an independent prompt pair and query
pair, and supervises one masked output cell. Each step masks either the
query output (bottom right) or, with probability ``FLIP_MASK_PROB``, the
prompt output (top right, with the true query pair completing the canvas)
so both inpainting arrangements used at test time are in-distribution. No
corrupted data and no augmentation ever enter pre-training.

Pre-training draws and renders its batches (``_draw_batches``) in a
forked helper process (``prefetch.Prefetcher``), so that ``tasks.generate``
runs on a second core while this process runs forward and backward. The
helper draws from the same seeded stream in the same order as an
in-process loop would, and the batches arrive with the same bytes, so
the results keep their bits. It needs ``os.fork`` (POSIX).
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model, tasks
# extract_cell is not called here; it stays imported because perfbench/tracing.py:200 patches training.extract_cell
from .canvas import assemble_flipped, assemble_inference, extract_cell, patchify  # noqa: F401
from .prefetch import Prefetcher
from .seeding import rng_for
from .tensor import AdamWState, AdamWWorker, Tensor, adamw_step, check_lr, collect_grads, constant, smooth_l1, zero_grads

FLIP_MASK_PROB = 0.25
PROGRESS_EVERY = 1000  # fit prints one progress line to stderr per this many steps

Pair = tuple[np.ndarray, np.ndarray]


def reject_repeats(owner: str, label: str, group: tuple) -> None:
    """Reject a selection that names one value more than once."""
    repeats = list(dict.fromkeys(v for i, v in enumerate(group) if v in group[:i]))
    if repeats:
        names = ", ".join(str(getattr(v, "value", v)) for v in repeats)
        raise ValueError(f"{owner}: {label} {names} selected more than once")


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 5000
    lr: float = 1e-3
    task_mix: tuple[tasks.TaskKind, ...] = tasks.ALL_TASKS
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"PretrainConfig: steps must be nonnegative, got {self.steps}")
        check_lr("PretrainConfig", "lr", self.lr)
        if not self.task_mix:
            raise ValueError("PretrainConfig: task_mix is empty")
        reject_repeats("PretrainConfig", "task", self.task_mix)


@dataclass
class PretrainResult:
    params: model.Params
    losses: list[float]
    task_counts: dict[tasks.TaskKind, int]


def masked_cell_loss(params: model.Params, prompt: Pair, query: Pair, flip: bool) -> Tensor:
    """Smooth-L1 on the canvas's empty cell: the query output, or with
    ``flip`` the prompt output, the true query pair completing the canvas.
    The predicted patch rows are scored against the true cell's rows, as
    ``tuning.cycle_loss`` scores its own."""
    (x, y), (x_q, y_q) = prompt, query
    if flip:
        canvas, target = assemble_flipped(x, x_q, y_q), y
    else:
        canvas, target = assemble_inference(x, y, x_q), y_q
    p = params.config.patch_size
    pred = model.forward(params, canvas.patches(p), canvas.empty_rows(p))
    return smooth_l1(pred, constant(patchify(target, p)))


def fit(
    params: model.Params, lr: float, batches: Iterable[tuple[Pair, Pair, bool]], what: str
) -> tuple[model.Params, list[float]]:
    """Step every parameter of ``params`` with AdamW, in place, once per
    ``(prompt, query, flip)`` batch of ``masked_cell_loss``. Returns
    ``params`` itself, fitted and off the tape again (``model.freeze``),
    and the loss of each step; a divergence is a ``FloatingPointError``
    naming ``what`` and the step. Every ``PROGRESS_EVERY`` steps it prints
    the step, the mean loss of those steps and the seconds since it began
    to stderr."""
    group = model.trainable(params, "all")
    state = AdamWState(lr=lr)
    losses: list[float] = []
    start = time.perf_counter()
    with contextlib.closing(AdamWWorker(group, state)) as worker:  # forked during the first backward
        for step, (prompt, query, flip) in enumerate(batches):
            zero_grads(params.tensors.values())
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the finiteness checks name the op
                    loss = masked_cell_loss(params, prompt, query, flip)
                    loss.backward(on_final=worker.finished)
                    adamw_step(group, collect_grads(group), state)
            except FloatingPointError as err:
                raise FloatingPointError(f"{what} diverged at step {step}: {err}") from err
            losses.append(loss.item())
            del loss  # frees the tape after the update: freed before it, its memory went back to the OS and was faulted in again
            if len(losses) % PROGRESS_EVERY == 0:
                mean = sum(losses[-PROGRESS_EVERY:]) / PROGRESS_EVERY
                elapsed = time.perf_counter() - start
                print(f"{what} step {len(losses)}: mean loss {mean:.5f} over the last {PROGRESS_EVERY}, {elapsed:.1f} s",
                      file=sys.stderr)
    model.freeze(params)
    return params, losses


def _draw_batches(cfg: PretrainConfig, cell_size: int) -> Iterator[tuple[int, tuple[Pair, Pair, bool]]]:
    """Each step's task index in the mix and ``(prompt, query, flip)``: the
    task, the prompt's and the query's seeds and the flip are drawn from
    ``rng_for("pretrain", seed)``."""
    rng = rng_for("pretrain", cfg.seed)
    for _ in range(cfg.steps):
        index = int(rng.integers(len(cfg.task_mix)))
        prompt, query = (tasks.generate(cfg.task_mix[index], int(rng.integers(0, 2**63)), cell_size) for _ in range(2))
        yield index, ((prompt.input, prompt.target), (query.input, query.target), rng.random() < FLIP_MASK_PROB)


def pretrain(model_config: model.ModelConfig, cfg: PretrainConfig) -> PretrainResult:
    counts: dict[tasks.TaskKind, int] = {t: 0 for t in cfg.task_mix}
    if cfg.steps == 0:  # nothing to render, so no helper
        return PretrainResult(params=model.init(model_config, seed=cfg.seed), losses=[], task_counts=counts)

    def batches(helper: Prefetcher) -> Iterator[tuple[Pair, Pair, bool]]:
        for step in range(cfg.steps):
            index, batch = helper.get(f"step {step}")
            counts[cfg.task_mix[index]] += 1
            yield batch

    # forked before init, so the first batch is ready at step 0
    with contextlib.closing(Prefetcher("pretraining sample helper", _draw_batches(cfg, model_config.cell_size))) as helper:
        params, losses = fit(model.init(model_config, seed=cfg.seed), cfg.lr, batches(helper), "pretraining")
    return PretrainResult(params=params, losses=losses, task_counts=counts)


def save_loss_trace(path: str | Path, losses: list[float]) -> None:
    lines = ["step,loss"]
    lines += [f"{i},{value:.8f}" for i, value in enumerate(losses)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
