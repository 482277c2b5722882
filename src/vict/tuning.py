"""Per-sample test-time tuning of the inpainting model via cycle consistency.

For one test input x_t and one prompt pair (x, y): predict the test output
on the inference canvas, flip the roles so the prediction becomes the
prompt, and supervise the reconstruction of the original prompt output y
with smooth-L1. Gradients flow through both forward passes, and AdamW
steps the encoder group only (``model.ENCODER``), in this process: an
adaptation forks nothing. It steps through ``training.descend``, the one
loop that also fits pre-training. The loop stays in patch rows: the
canvases' constant rows and y's rows are built once per adaptation
(``cycle_rows``), the first pass's predicted rows enter the flipped
canvas through one ``put_rows`` node, and the second pass's rows are
scored against y's rows. Every test sample starts from a private clone
of the pre-trained weights with a fresh optimizer, so adaptation of one
sample can never leak into another; the ground-truth test label is not
an input anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import model, tasks
from .canvas import EMPTY_FILL, assemble_flipped, assemble_inference, extract_cell, patchify
from .corruptions import CorruptionSpec, apply
from .seeding import mix
from .tensor import AdamWState, Tensor, adamw_step, check_lr, collect_grads, constant, put_rows, smooth_l1
from .training import descend

DEFAULT_STEPS = 60

ZERO_SHOT = "zero_shot"
ONE_SHOT = "one_shot"
SETTINGS = (ZERO_SHOT, ONE_SHOT)


@dataclass(frozen=True)
class PromptSet:
    """One support input/output pair and the corruption applied to its
    input, if any."""

    pair: tuple[np.ndarray, np.ndarray]
    corruption: CorruptionSpec | None = None


@dataclass(frozen=True)
class VictConfig:
    """Test-time tuning knobs.

    The learning rate and optimizer damping are calibrated to the toy
    stack: ``eps`` well above the squared-gradient scale makes the AdamW
    update proportional to the gradient average instead of its sign,
    which keeps one-sample adaptation from memorizing the prompt. The
    large-model fidelity values (lr 1e-6, eps 1e-8) remain selectable
    through ``lr``/``eps`` (``--lr``/``--eps`` on the command line).
    """

    steps: int = DEFAULT_STEPS
    lr: float = 3e-2
    eps: float = 1e-1

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"VictConfig: steps must be nonnegative, got {self.steps}")
        check_lr("VictConfig", "lr", self.lr)
        if not 0.0 < self.eps < np.inf:
            raise ValueError(f"VictConfig: eps must be finite and positive, got {self.eps}")


@dataclass
class AdaptationResult:
    y_t_hat: np.ndarray
    loss_trace: list[float]
    adapted_params_digest: str


def select_prompt(
    task: tasks.TaskKind,
    setting: str,
    corruption: CorruptionSpec | None,
    seed: int,
    cell_size: int = tasks.DEFAULT_CELL_SIZE,
) -> PromptSet:
    """Fresh clean prompt pair; in the one-shot setting the prompt input is
    corrupted with the test sample's kind and severity under an independent
    seed. Prompt targets are never corrupted."""
    sample = tasks.generate(task, seed, cell_size)
    if setting == ZERO_SHOT:
        return PromptSet(pair=(sample.input, sample.target))
    if setting == ONE_SHOT:
        if corruption is None:
            raise ValueError("select_prompt: one-shot setting requires a corruption spec")
        spec = CorruptionSpec(corruption.kind, corruption.severity, mix("prompt-corruption", corruption.seed, seed))
        return PromptSet(pair=(apply(sample.input, spec), sample.target), corruption=spec)
    raise ValueError(f"select_prompt: unknown setting {setting!r}")


def infer(params: model.Params, pair: tuple[np.ndarray, np.ndarray], x_t: np.ndarray) -> np.ndarray:
    """Frozen in-context inference: inpaint the test output cell.

    ``x``, ``y`` and ``x_t`` are [3, C, C] cells, or [S, 3, C, C] stacks
    of S, which a single cell joins as S copies of itself. A stack's S
    canvases go through one forward pass (``model.forward``), and the S
    predictions come back as [S, 3, C, C], each with the bits it has alone.
    """
    cells = np.broadcast_arrays(*pair, x_t)
    p = params.config.patch_size
    stacks = zip(*(a.reshape(-1, *a.shape[-3:]) for a in cells))
    patches, empty = zip(*(assemble_inference(*stack, p) for stack in stacks))
    rows = model.forward(params, np.stack(patches), empty[0]).data
    return np.stack([extract_cell(r) for r in rows]).reshape(cells[0].shape)


def cycle_rows(pair: tuple[np.ndarray, np.ndarray], x_t: np.ndarray, patch_size: int) -> tuple[np.ndarray, ...]:
    """``cycle_loss``'s constant inputs, which do not change during an
    adaptation: the patch rows of the inference canvas (x, y, x_t, empty)
    and its empty cell's rows; the same two of the flipped canvas (x,
    empty, x_t, a placeholder that the prediction overwrites); and the
    patch rows of the prompt output y."""
    x, y = pair
    inference = assemble_inference(x, y, x_t, patch_size)
    flipped = assemble_flipped(x, x_t, np.full_like(x_t, EMPTY_FILL), patch_size)
    return (*inference, *flipped, patchify(y, patch_size))


def cycle_loss(
    params: model.Params, inference: np.ndarray, query: np.ndarray, flipped: np.ndarray, prompt: np.ndarray, y: np.ndarray
) -> Tensor:
    """Scalar cycle-consistency loss on the rows of ``cycle_rows``: predict
    the test output's rows ``query``, put them into the flipped canvas at
    the same rows, predict the prompt output's rows ``prompt`` and score
    them against ``y``."""
    y_t_hat = model.forward(params, inference, query)
    y_hat = model.forward(params, put_rows(constant(flipped), query, y_t_hat), prompt)
    return smooth_l1(y_hat, constant(y))


def adapt_and_predict(
    params0: model.Params,
    prompt: PromptSet,
    x_t: np.ndarray,
    config: VictConfig,
) -> AdaptationResult:
    """Tune a private clone of the weights for ``config.steps`` cycle-loss
    steps, then predict the test output with the adapted weights.

    ``params0`` is never mutated; the optimizer state is fresh. Only the
    clone's encoder group goes on the tape (``model.trainable``) and is
    stepped: backward computes no gradient for the decoder and head, while
    activation gradients still flow through them. AdamW steps the group in
    this process, through ``training.descend``, which takes the clone off
    the tape at the end. The prediction is a frozen inference from the
    adapted clone, with the moments and gradient arena freed first. A
    divergence is a ``FloatingPointError`` naming the step and the digest
    of the weights that step started from.
    """
    work = params0.clone()
    group = model.trainable(work, model.ENCODER)
    state = AdamWState(lr=config.lr, eps=config.eps)
    rows = cycle_rows(prompt.pair, x_t, work.config.patch_size)
    steps = (partial(cycle_loss, work, *rows) for _ in range(config.steps))
    trace = list(descend(work, steps, lambda: adamw_step(group, collect_grads(group), state), "adaptation"))
    del state  # the moments, and its hold on the gradient arena
    return AdaptationResult(
        y_t_hat=infer(work, prompt.pair, x_t),
        loss_trace=trace,
        adapted_params_digest=work.digest(),
    )
