"""Clean-distribution pre-training and the few-shot fine-tuning baseline.

Pre-training draws a task, generates an independent prompt pair and query
pair, and supervises one masked output cell with smooth-L1; AdamW updates
every parameter. Each step masks either the query output (bottom right)
or, with probability ``flip_mask_prob``, the prompt output (top right,
with the true query pair completing the canvas) so both inpainting
arrangements used at test time are in-distribution. No corrupted data and
no augmentation ever enter this loop. The few-shot baseline fine-tunes a
pre-trained checkpoint on m corrupted input/clean target pairs with the
same objective, for later frozen evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import corruptions, model, tasks
from .canvas import CellPosition, assemble_flipped, assemble_inference, extract_cell
from .seeding import mix, rng_for
from .tensor import AdamWState, adamw_step, collect_grads, constant, smooth_l1, zero_grads

FEWSHOT_ALLOWED = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 5000
    lr: float = 1e-3
    batch_size: int = 1
    task_mix: tuple[tasks.TaskKind, ...] = tasks.ALL_TASKS
    held_out: tasks.TaskKind | None = None
    seed: int = 0
    beta: float = 1.0
    flip_mask_prob: float = 0.25

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"PretrainConfig: steps must be nonnegative, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"PretrainConfig: batch_size must be >= 1, got {self.batch_size}")
        if not self.task_mix:
            raise ValueError("PretrainConfig: task_mix is empty")
        if self.held_out is not None and self.held_out in self.task_mix:
            raise ValueError(f"PretrainConfig: held-out task {self.held_out} present in task_mix")
        if not 0.0 <= self.flip_mask_prob <= 1.0:
            raise ValueError(f"PretrainConfig: flip_mask_prob must be in [0, 1], got {self.flip_mask_prob}")


@dataclass
class PretrainResult:
    params: model.Params
    losses: list[float]
    task_counts: dict[tasks.TaskKind, int]


def pretrain(model_config: model.ModelConfig, cfg: PretrainConfig) -> PretrainResult:
    params = model.init(model_config, seed=cfg.seed)
    state = AdamWState(lr=cfg.lr)
    rng = rng_for("pretrain", cfg.seed)
    mix_order = tuple(cfg.task_mix)
    losses: list[float] = []
    counts: dict[tasks.TaskKind, int] = {t: 0 for t in mix_order}
    c = model_config.cell_size

    for step in range(cfg.steps):
        zero_grads(params.tensors.values())
        step_losses = []
        try:
            for _ in range(cfg.batch_size):
                task = mix_order[int(rng.integers(len(mix_order)))]
                counts[task] += 1
                prompt_seed = int(rng.integers(0, 2**63))
                query_seed = int(rng.integers(0, 2**63))
                flip = rng.random() < cfg.flip_mask_prob
                prompt = tasks.generate(task, prompt_seed, c)
                query = tasks.generate(task, query_seed, c)
                if flip:
                    canvas, mask = assemble_flipped(prompt.input, query.input, query.target)
                    recon = model.forward(params, canvas, mask)
                    pred = extract_cell(recon, CellPosition.TOP_RIGHT)
                    target = prompt.target
                else:
                    canvas, mask = assemble_inference(prompt.input, prompt.target, query.input)
                    recon = model.forward(params, canvas, mask)
                    pred = extract_cell(recon, CellPosition.BOTTOM_RIGHT)
                    target = query.target
                step_losses.append(smooth_l1(pred, constant(target), cfg.beta))
            loss = step_losses[0]
            for extra in step_losses[1:]:
                loss = loss + extra
            if cfg.batch_size > 1:
                loss = loss * (1.0 / cfg.batch_size)
            loss.backward()
            adamw_step(params.tensors, collect_grads(params.tensors), state)
        except FloatingPointError as err:
            raise RuntimeError(f"pretraining diverged at step {step}: {err}") from err
        losses.append(loss.item())

    return PretrainResult(params=params, losses=losses, task_counts=counts)


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
    beta: float = 1.0

    def __post_init__(self):
        if self.shots not in FEWSHOT_ALLOWED:
            raise ValueError(f"FewShotConfig: shots must be one of {FEWSHOT_ALLOWED}, got {self.shots}")
        if self.severity not in (1, 2, 3, 4, 5):
            raise ValueError(f"FewShotConfig: severity must be in [1, 5], got {self.severity}")
        if self.steps < 0:
            raise ValueError(f"FewShotConfig: steps must be nonnegative, got {self.steps}")


def fewshot_finetune(params0: model.Params, cfg: FewShotConfig) -> model.Params:
    """Fine-tune all parameters on m corrupted pairs, cycling through them."""
    c = params0.config.cell_size
    pairs = []
    for j in range(cfg.shots):
        sample = tasks.generate(cfg.task, mix("fewshot-sample", cfg.seed, j), c)
        spec = corruptions.CorruptionSpec(cfg.corruption_kind, cfg.severity, mix("fewshot-corrupt", cfg.seed, j))
        pairs.append((corruptions.apply(sample.input, spec), sample.target))

    params = params0.clone()
    state = AdamWState(lr=cfg.lr)
    rng = rng_for("fewshot", cfg.seed)
    for step in range(cfg.steps):
        query = pairs[step % cfg.shots]
        prompt = pairs[(step + 1) % cfg.shots]
        zero_grads(params.tensors.values())
        try:
            if rng.random() < 0.5:  # same two-arrangement objective as pre-training
                canvas, mask = assemble_flipped(prompt[0], query[0], query[1])
                pred = extract_cell(model.forward(params, canvas, mask), CellPosition.TOP_RIGHT)
                target = prompt[1]
            else:
                canvas, mask = assemble_inference(prompt[0], prompt[1], query[0])
                pred = extract_cell(model.forward(params, canvas, mask), CellPosition.BOTTOM_RIGHT)
                target = query[1]
            loss = smooth_l1(pred, constant(target), cfg.beta)
            loss.backward()
            adamw_step(params.tensors, collect_grads(params.tensors), state)
        except FloatingPointError as err:
            raise RuntimeError(f"few-shot fine-tuning diverged at step {step}: {err}") from err
    return params
