"""Clean-distribution pre-training and the few-shot fine-tuning baseline.

Pre-training draws a task, generates an independent prompt pair and query
pair, and supervises one masked output cell with smooth-L1; AdamW updates
every parameter. Each step masks either the query output (bottom right)
or, with probability ``FLIP_MASK_PROB``, the prompt output (top right,
with the true query pair completing the canvas) so both inpainting
arrangements used at test time are in-distribution. No corrupted data and
no augmentation ever enter this loop. The few-shot baseline fine-tunes a
pre-trained checkpoint on m corrupted input/clean target pairs with the
same objective, ``masked_cell_loss``, for later frozen evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corruptions, model, tasks
from .canvas import assemble_flipped, assemble_inference, extract_cell
from .seeding import mix, rng_for
from .tensor import AdamWState, Tensor, adamw_step, check_lr, collect_grads, constant, smooth_l1, zero_grads

FEWSHOT_ALLOWED = (1, 2, 4, 8, 16, 32, 64)
FLIP_MASK_PROB = 0.25


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


@dataclass
class PretrainResult:
    params: model.Params
    losses: list[float]
    task_counts: dict[tasks.TaskKind, int]


def masked_cell_loss(
    params: model.Params,
    prompt: tuple[np.ndarray, np.ndarray],
    query: tuple[np.ndarray, np.ndarray],
    flip: bool,
) -> Tensor:
    """Smooth-L1 on the canvas's empty cell: the query output, or with
    ``flip`` the prompt output, the true query pair completing the canvas."""
    (x, y), (x_q, y_q) = prompt, query
    if flip:
        canvas, target = assemble_flipped(x, x_q, y_q), y
    else:
        canvas, target = assemble_inference(x, y, x_q), y_q
    pred = extract_cell(model.forward(params, canvas), canvas.empty_position)
    return smooth_l1(pred, constant(target))


def pretrain(model_config: model.ModelConfig, cfg: PretrainConfig) -> PretrainResult:
    params = model.init(model_config, seed=cfg.seed)
    group = model.trainable(params, "all")
    state = AdamWState(lr=cfg.lr)
    rng = rng_for("pretrain", cfg.seed)
    mix_order = tuple(cfg.task_mix)
    losses: list[float] = []
    counts: dict[tasks.TaskKind, int] = {t: 0 for t in mix_order}
    c = model_config.cell_size

    for step in range(cfg.steps):
        task = mix_order[int(rng.integers(len(mix_order)))]
        counts[task] += 1
        prompt = tasks.generate(task, int(rng.integers(0, 2**63)), c)
        query = tasks.generate(task, int(rng.integers(0, 2**63)), c)
        flip = rng.random() < FLIP_MASK_PROB
        zero_grads(params.tensors.values())
        try:
            loss = masked_cell_loss(params, (prompt.input, prompt.target), (query.input, query.target), flip)
            loss.backward()
            adamw_step(group, collect_grads(group), state)
        except FloatingPointError as err:
            raise RuntimeError(f"pretraining diverged at step {step}: {err}") from err
        losses.append(loss.item())

    return PretrainResult(params=params.clone(), losses=losses, task_counts=counts)


def save_loss_trace(path: str | Path, losses: list[float]) -> None:
    lines = ["step,loss"]
    lines += [f"{i},{value:.8f}" for i, value in enumerate(losses)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


@dataclass(frozen=True)
class FewShotConfig:
    shots: int
    task: tasks.TaskKind
    corruption_kind: corruptions.CorruptionKind
    severity: int
    steps: int = 300
    lr: float = 3e-4
    seed: int = 0

    def __post_init__(self):
        if self.shots not in FEWSHOT_ALLOWED:
            raise ValueError(f"FewShotConfig: shots must be one of {FEWSHOT_ALLOWED}, got {self.shots}")
        corruptions.check_severity("FewShotConfig", self.severity)
        if self.steps < 0:
            raise ValueError(f"FewShotConfig: steps must be nonnegative, got {self.steps}")
        check_lr("FewShotConfig", "lr", self.lr)


def fewshot_finetune(params0: model.Params, cfg: FewShotConfig) -> model.Params:
    """Fine-tune all parameters on m corrupted pairs, cycling through them."""
    c = params0.config.cell_size
    pairs = []
    for j in range(cfg.shots):
        sample = tasks.generate(cfg.task, mix("fewshot-sample", cfg.seed, j), c)
        spec = corruptions.CorruptionSpec(cfg.corruption_kind, cfg.severity, mix("fewshot-corrupt", cfg.seed, j))
        pairs.append((corruptions.apply(sample.input, spec), sample.target))

    params = params0.clone()
    group = model.trainable(params, "all")
    state = AdamWState(lr=cfg.lr)
    rng = rng_for("fewshot", cfg.seed)
    for step in range(cfg.steps):
        query = pairs[step % cfg.shots]
        prompt = pairs[(step + 1) % cfg.shots]
        zero_grads(params.tensors.values())
        try:
            # same two-arrangement objective as pre-training, flipped half the time
            loss = masked_cell_loss(params, prompt, query, rng.random() < 0.5)
            loss.backward()
            adamw_step(group, collect_grads(group), state)
        except FloatingPointError as err:
            raise RuntimeError(f"few-shot fine-tuning diverged at step {step}: {err}") from err
    return params.clone()
