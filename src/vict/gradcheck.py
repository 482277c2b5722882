"""Finite-difference verification of analytic gradients, in double precision.

Two layers of checking: every tape op of ``tensor`` against central finite
differences on small random inputs (each fused node twice: with its
weights on the tape, and with them frozen, when it keeps less), and the
full test-time cycle loss on a tiny model configuration, elementwise over
all encoder parameters. The relative error uses max(|a|, |b|, 1e-8) as
denominator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import model, tasks
from . import tensor as T
from .tuning import cycle_loss, cycle_rows

FD_STEP = 1e-5
TOLERANCE = 1e-4

TINY_CONFIG = model.ModelConfig(
    cell_size=8,
    patch_size=4,
    embed_dim=8,
    encoder_depth=1,
    decoder_depth=1,
    num_heads=2,
)


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float((np.abs(a - b) / denom).max())


def finite_diff_grad(f: Callable[[], float], arr: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of scalar f with respect to arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        fp = f()
        flat[i] = original - h
        fm = f()
        flat[i] = original
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def _check(loss_fn: Callable[[], T.Tensor], leaves: dict[str, T.Tensor]) -> float:
    loss = loss_fn()
    T.zero_grads(leaves.values())
    loss.backward()
    worst = 0.0
    for t in leaves.values():
        numeric = finite_diff_grad(lambda: loss_fn().item(), t.data)
        worst = max(worst, rel_error(t.grad_or_zero(), numeric))
    return worst


def check_op_gradients(seed: int = 0) -> dict[str, float]:
    """Max relative FD error per differentiable op, on float64 inputs."""
    rng = np.random.default_rng(seed)

    def leaf(*shape) -> T.Tensor:
        return T.parameter(rng.uniform(-1.0, 1.0, size=shape))

    def fixed(*shape) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=shape)

    results: dict[str, float] = {}

    a, b = leaf(3, 4), leaf(3, 4)
    w = fixed(3, 4)
    results["add"] = _check(lambda: T.tsum(T.mul(T.add(a, b), T.constant(w))), {"a": a, "b": b})
    results["mul"] = _check(lambda: T.tsum(T.mul(T.mul(a, b), T.constant(w))), {"a": a, "b": b})

    m1, m2 = leaf(3, 5), leaf(5, 2)
    wm = fixed(3, 2)
    results["matmul"] = _check(lambda: T.tsum(T.mul(T.matmul(m1, m2), T.constant(wm))), {"m1": m1, "m2": m2})

    n = leaf(5, 3)
    rows = np.array([3, 0, 4])
    wn = fixed(3, 3)
    results["take_rows"] = _check(lambda: T.tsum(T.mul(T.take_rows(n, rows), T.constant(wn))), {"n": n})
    put, row = leaf(3, 3), leaf(3)
    wp = fixed(5, 3)
    results["put_rows"] = _check(
        lambda: T.tsum(T.mul(T.put_rows(n, rows, put), T.constant(wp))), {"n": n, "put": put}
    )
    results["put_rows_row"] = _check(
        lambda: T.tsum(T.mul(T.put_rows(n, rows, row), T.constant(wp))), {"n": n, "row": row}
    )

    s = leaf(3, 6)
    ws = fixed(3, 6)
    results["sigmoid"] = _check(lambda: T.tsum(T.mul(T.sigmoid(s), T.constant(ws))), {"s": s})

    pred = leaf(3, 4)
    # quadratic branch: every |d| <= 0.5 < 1; linear branch: every |d| >= 1.5 > 1
    near = T.constant(pred.data + rng.uniform(-0.5, 0.5, size=pred.shape))
    far = T.constant(pred.data + rng.choice([-1.0, 1.0], size=pred.shape) * rng.uniform(1.5, 2.5, size=pred.shape))
    results["smooth_l1_quad"] = _check(lambda: T.smooth_l1(pred, near), {"pred": pred})
    results["smooth_l1_lin"] = _check(lambda: T.smooth_l1(pred, far), {"pred": pred})

    def fused(name: str, op: Callable[..., T.Tensor], inputs: dict, weights: dict, out_shape) -> None:
        """Check ``op(**inputs, **weights)`` with the weights on the tape,
        then as ``{name}_frozen`` with them off it, where the node keeps no
        input for a weight's gradient."""
        w_out = T.constant(fixed(*out_shape))
        results[name] = _check(lambda: T.tsum(T.mul(op(**inputs, **weights), w_out)), {**inputs, **weights})
        frozen = {key: T.constant(t.data) for key, t in weights.items()}
        results[f"{name}_frozen"] = _check(lambda: T.tsum(T.mul(op(**inputs, **frozen), w_out)), inputs)

    x = leaf(4, 5)
    affine = {"w": leaf(5, 3), "b": leaf(3)}
    fused("linear", T.linear, {"x": x}, affine, (4, 3))
    fused(
        "linear_norm",
        lambda x, w, b, gain, bias: T.linear(x, w, b, (gain, bias)),
        {"x": x},
        {**affine, "gain": leaf(5), "bias": leaf(5)},
        (4, 3),
    )

    qkv = leaf(5, 12)  # 2 heads of dimension 2
    projection = {"w": leaf(4, 3), "b": leaf(3)}
    for name, rows, r in (("attention", None, 5), ("attention_rows", np.array([4, 1]), 2)):
        fused(
            name,
            lambda qkv, residual, w, b, rows=rows: T.attention(qkv, 2, rows, w, b, residual),
            {"qkv": qkv, "residual": leaf(r, 3)},
            projection,
            (r, 3),
        )

    branch = {"gain": leaf(4), "bias": leaf(4), "w1": leaf(4, 6), "b1": leaf(6), "w2": leaf(6, 4), "b2": leaf(4)}
    fused("mlp", T.mlp, {"h": leaf(3, 4)}, branch, (3, 4))

    return results


def check_cycle_loss(config: model.ModelConfig = TINY_CONFIG, seed: int = 0) -> float:
    """Max elementwise FD error of the cycle loss over all encoder parameters."""
    params = model.init(config, seed=seed, dtype=np.float64)
    c = config.cell_size
    prompt = tasks.generate(tasks.TaskKind.DENOISE, seed + 1, c)
    query = tasks.generate(tasks.TaskKind.DENOISE, seed + 2, c)
    rows = cycle_rows((prompt.input, prompt.target), query.input, config.patch_size)
    rows = [a.astype(np.float64) if a.dtype.kind == "f" else a for a in rows]
    return _check(lambda: cycle_loss(params, *rows), model.trainable(params, "encoder"))


def run_gradcheck(seed: int = 0, verbose: bool = False) -> tuple[float, dict[str, float]]:
    """Full double-precision suite; returns (max error, per-check errors)."""
    results = check_op_gradients(seed)
    results["cycle_loss"] = check_cycle_loss(seed=seed)
    if verbose:
        for name in sorted(results):
            print(f"  {name:<18} max rel err {results[name]:.3e}")
    return max(results.values()), results
