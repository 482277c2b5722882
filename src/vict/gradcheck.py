"""Finite-difference verification of analytic gradients, in double precision.

Two layers of checking: every differentiable op against central finite
differences on small random inputs, and the full test-time cycle loss on a
tiny model configuration, elementwise over all encoder parameters. The
relative error uses max(|a|, |b|, 1e-8) as denominator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import model, tasks
from . import tensor as T
from .tuning import cycle_loss

FD_STEP = 1e-5
TOLERANCE = 1e-4

TINY_CONFIG = model.ModelConfig(
    cell_size=8,
    patch_size=4,
    embed_dim=8,
    encoder_depth=1,
    decoder_depth=1,
    num_heads=2,
    mlp_ratio=4,
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
    results["sub"] = _check(lambda: T.tsum(T.mul(T.sub(a, b), T.constant(w))), {"a": a, "b": b})
    results["mul"] = _check(lambda: T.tsum(T.mul(T.mul(a, b), T.constant(w))), {"a": a, "b": b})
    results["scalar"] = _check(lambda: T.tsum(T.add_scalar(T.mul_scalar(a, 1.7), -0.3)), {"a": a})

    m1, m2 = leaf(3, 5), leaf(5, 2)
    wm = fixed(3, 2)
    results["matmul"] = _check(lambda: T.tsum(T.mul(T.matmul(m1, m2), T.constant(wm))), {"m1": m1, "m2": m2})

    r = leaf(2, 3, 4)
    wr = fixed(4, 6)
    results["reshape"] = _check(lambda: T.tsum(T.mul(T.reshape(r, (4, 6)), T.constant(wr))), {"r": r})
    wt = fixed(4, 2, 3)
    results["transpose"] = _check(lambda: T.tsum(T.mul(T.transpose(r, (2, 0, 1)), T.constant(wt))), {"r": r})

    n = leaf(4, 6)
    wn = fixed(4, 3)
    results["narrow"] = _check(lambda: T.tsum(T.mul(T.narrow(n, 1, 2, 3), T.constant(wn))), {"n": n})

    c1, c2 = leaf(2, 3), leaf(4, 3)
    wc = fixed(6, 3)
    results["concat"] = _check(
        lambda: T.tsum(T.mul(T.concat([c1, c2], axis=0), T.constant(wc))), {"c1": c1, "c2": c2}
    )

    x, bias = leaf(4, 5), leaf(5)
    wx = fixed(4, 5)
    results["add_row"] = _check(lambda: T.tsum(T.mul(T.add_row(x, bias), T.constant(wx))), {"x": x, "bias": bias})

    row = leaf(1, 5)
    results["repeat_rows"] = _check(lambda: T.tsum(T.mul(T.repeat_rows(row, 4), T.constant(wx))), {"row": row})

    s = leaf(3, 6)
    ws = fixed(3, 6)
    results["softmax"] = _check(lambda: T.tsum(T.mul(T.softmax(s), T.constant(ws))), {"s": s})
    results["gelu"] = _check(lambda: T.tsum(T.mul(T.gelu(s), T.constant(ws))), {"s": s})
    results["sigmoid"] = _check(lambda: T.tsum(T.mul(T.sigmoid(s), T.constant(ws))), {"s": s})
    # keep clamp inputs away from the clip boundaries: not differentiable there
    results["clamp"] = _check(lambda: T.tsum(T.mul(T.clamp(s, -2.0, 2.0), T.constant(ws))), {"s": s})
    results["mean"] = _check(lambda: T.mean(T.mul(s, T.constant(ws))), {"s": s})

    ln_x, ln_g, ln_b = leaf(4, 6), leaf(6), leaf(6)
    wl = fixed(4, 6)
    results["layernorm"] = _check(
        lambda: T.tsum(T.mul(T.layernorm(ln_x, ln_g, ln_b), T.constant(wl))),
        {"x": ln_x, "gain": ln_g, "bias": ln_b},
    )

    pred = leaf(3, 4)
    target = T.constant(fixed(3, 4))
    # quadratic branch (beta larger than any |d|) and linear branch (beta tiny)
    results["smooth_l1_quad"] = _check(lambda: T.smooth_l1(pred, target, beta=5.0), {"pred": pred})
    results["smooth_l1_lin"] = _check(lambda: T.smooth_l1(pred, target, beta=1e-3), {"pred": pred})

    lin_x, lin_w, lin_b = leaf(4, 5), leaf(5, 3), leaf(3)
    w_lin = fixed(4, 3)
    results["linear"] = _check(
        lambda: T.tsum(T.mul(T.linear(lin_x, lin_w, lin_b), T.constant(w_lin))),
        {"x": lin_x, "w": lin_w, "b": lin_b},
    )

    qkv = leaf(5, 12)  # 2 heads of dimension 2
    w_attn = fixed(5, 4)
    results["attention"] = _check(lambda: T.tsum(T.mul(T.attention(qkv, 2), T.constant(w_attn))), {"qkv": qkv})

    return results


def check_cycle_loss(config: model.ModelConfig = TINY_CONFIG, seed: int = 0) -> float:
    """Max elementwise FD error of the cycle loss over all encoder parameters."""
    params = model.init(config, seed=seed, dtype=np.float64)
    c = config.cell_size
    prompt = tasks.generate(tasks.TaskKind.DENOISE, seed + 1, c)
    query = tasks.generate(tasks.TaskKind.DENOISE, seed + 2, c)
    pair = (prompt.input.astype(np.float64), prompt.target.astype(np.float64))
    x_t = query.input.astype(np.float64)

    def loss_fn() -> T.Tensor:
        return cycle_loss(params, pair, x_t, beta=1.0)

    T.zero_grads(params.tensors.values())
    loss_fn().backward()
    encoder = model.param_group(params, "encoder")
    worst = 0.0
    for t in encoder.values():
        numeric = finite_diff_grad(lambda: loss_fn().item(), t.data)
        worst = max(worst, rel_error(t.grad_or_zero(), numeric))
    return worst


def run_gradcheck(seed: int = 0, verbose: bool = False) -> tuple[float, dict[str, float]]:
    """Full double-precision suite; returns (max error, per-check errors)."""
    results = check_op_gradients(seed)
    results["cycle_loss"] = check_cycle_loss(seed=seed)
    if verbose:
        for name in sorted(results):
            print(f"  {name:<18} max rel err {results[name]:.3e}")
    return max(results.values()), results
