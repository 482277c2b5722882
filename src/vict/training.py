"""Clean-distribution pre-training and the one weight-fitting loop.

``fit`` is the loop that pre-training and the few-shot fine-tuning
baseline (``harness.fewshot_finetune``) share: every parameter on the
tape, a fresh AdamW state, and per batch one smooth-L1 loss on a masked
output cell's patch rows (``masked_cell_loss``), one backward and one
update.

Pre-training draws a task, generates an independent prompt pair and query
pair, and supervises one masked output cell. Each step masks either the
query output (bottom right) or, with probability ``FLIP_MASK_PROB``, the
prompt output (top right, with the true query pair completing the canvas)
so both inpainting arrangements used at test time are in-distribution. No
corrupted data and no augmentation ever enter pre-training.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model, tasks
# extract_cell is not called here; it stays imported because perfbench/tracing.py:200 patches training.extract_cell
from .canvas import assemble_flipped, assemble_inference, extract_cell, patchify  # noqa: F401
from .seeding import rng_for
from .tensor import AdamWState, Tensor, adamw_step, check_lr, collect_grads, constant, smooth_l1, zero_grads

FLIP_MASK_PROB = 0.25

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
    naming ``what`` and the step."""
    group = model.trainable(params, "all")
    state = AdamWState(lr=lr)
    losses: list[float] = []
    for step, (prompt, query, flip) in enumerate(batches):
        zero_grads(params.tensors.values())
        try:
            loss = masked_cell_loss(params, prompt, query, flip)
            loss.backward()
            adamw_step(group, collect_grads(group), state)
        except FloatingPointError as err:
            raise FloatingPointError(f"{what} diverged at step {step}: {err}") from err
        losses.append(loss.item())
        del loss  # frees the tape after the update: freed before it, its memory went back to the OS and was faulted in again
    model.freeze(params)
    return params, losses


def pretrain(model_config: model.ModelConfig, cfg: PretrainConfig) -> PretrainResult:
    rng = rng_for("pretrain", cfg.seed)
    mix_order = tuple(cfg.task_mix)
    counts: dict[tasks.TaskKind, int] = {t: 0 for t in mix_order}
    c = model_config.cell_size

    def batches():
        for _ in range(cfg.steps):
            task = mix_order[int(rng.integers(len(mix_order)))]
            counts[task] += 1
            prompt = tasks.generate(task, int(rng.integers(0, 2**63)), c)
            query = tasks.generate(task, int(rng.integers(0, 2**63)), c)
            yield (prompt.input, prompt.target), (query.input, query.target), rng.random() < FLIP_MASK_PROB

    params, losses = fit(model.init(model_config, seed=cfg.seed), cfg.lr, batches(), "pretraining")
    return PretrainResult(params=params, losses=losses, task_counts=counts)


def save_loss_trace(path: str | Path, losses: list[float]) -> None:
    lines = ["step,loss"]
    lines += [f"{i},{value:.8f}" for i, value in enumerate(losses)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
