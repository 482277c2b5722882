"""Per-sample test-time tuning of the inpainting model via cycle consistency.

For one test input x_t and one prompt pair (x, y): predict the test output
on the inference canvas, flip the roles so the prediction becomes the
prompt, and supervise the reconstruction of the original prompt output y
with smooth-L1. Gradients flow through both forward passes. Every test
sample starts from a private clone of the pre-trained weights with a fresh
optimizer, so adaptation of one sample can never leak into another; the
ground-truth test label is not an input anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, tasks
from .canvas import assemble_flipped, assemble_inference, extract_cell
from .corruptions import CorruptionSpec, apply
from .seeding import mix
from .tensor import AdamWState, Tensor, adamw_step, collect_grads, constant, smooth_l1, zero_grads

DEFAULT_STEPS = 60

ZERO_SHOT = "zero_shot"
ONE_SHOT = "one_shot"


@dataclass(frozen=True)
class PromptSet:
    """One support input/output pair and where its input came from."""

    pair: tuple[np.ndarray, np.ndarray]
    provenance: str  # "clean" or "corrupted"
    corruption: CorruptionSpec | None = None

    def __post_init__(self):
        if self.provenance not in ("clean", "corrupted"):
            raise ValueError(f"PromptSet: bad provenance {self.provenance!r}")


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
    selector: str = "encoder"
    beta: float = 1.0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"VictConfig: steps must be nonnegative, got {self.steps}")
        if self.eps <= 0:
            raise ValueError(f"VictConfig: eps must be positive, got {self.eps}")
        if self.selector not in ("encoder", "all"):
            raise ValueError(f"VictConfig: selector must be 'encoder' or 'all', got {self.selector!r}")


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
        return PromptSet(pair=(sample.input, sample.target), provenance="clean")
    if setting == ONE_SHOT:
        if corruption is None:
            raise ValueError("select_prompt: one-shot setting requires a corruption spec")
        spec = CorruptionSpec(corruption.kind, corruption.severity, mix("prompt-corruption", corruption.seed, seed))
        return PromptSet(pair=(apply(sample.input, spec), sample.target), provenance="corrupted", corruption=spec)
    raise ValueError(f"select_prompt: unknown setting {setting!r}")


def infer(params: model.Params, pair: tuple[np.ndarray, np.ndarray], x_t: np.ndarray) -> np.ndarray:
    """Frozen in-context inference: inpaint the test output cell."""
    x, y = pair
    canvas = assemble_inference(x, y, x_t)
    return extract_cell(model.forward(params, canvas), canvas.empty_position).data


def cycle_loss(
    params: model.Params,
    pair: tuple[np.ndarray, np.ndarray],
    x_t: np.ndarray,
    beta: float = 1.0,
) -> Tensor:
    """Scalar cycle-consistency loss for one prompt pair and test input."""
    x, y = pair
    canvas = assemble_inference(x, y, x_t)
    y_t_hat = extract_cell(model.forward(params, canvas), canvas.empty_position)
    flipped = assemble_flipped(x, x_t, y_t_hat)
    y_hat = extract_cell(model.forward(params, flipped), flipped.empty_position)
    return smooth_l1(y_hat, constant(np.asarray(y)), beta)


def adapt_and_predict(
    params0: model.Params,
    prompt: PromptSet,
    x_t: np.ndarray,
    config: VictConfig,
) -> AdaptationResult:
    """Tune a private clone of the weights for ``config.steps`` cycle-loss
    steps, then predict the test output with the adapted weights.

    ``params0`` is never mutated; the optimizer state is fresh, and only
    the selected parameter group is stepped. Tensors outside the group
    stop requiring gradients in the clone, so backward computes none for
    them; activation gradients still flow through them.
    """
    work = params0.clone()
    group = model.param_group(work, config.selector)
    for name, t in work.tensors.items():
        t.requires_grad = name in group
    state = AdamWState(lr=config.lr, eps=config.eps)
    pair = prompt.pair
    trace: list[float] = []
    for step in range(config.steps):
        zero_grads(work.tensors.values())
        try:
            loss = cycle_loss(work, pair, x_t, config.beta)
            loss.backward()
            adamw_step(group, collect_grads(group), state)
        except FloatingPointError as err:
            raise RuntimeError(
                f"adaptation failed at step {step} (params digest {work.digest()}): {err}"
            ) from err
        trace.append(loss.item())
    return AdaptationResult(
        y_t_hat=infer(work, pair, x_t),
        loss_trace=trace,
        adapted_params_digest=work.digest(),
    )
