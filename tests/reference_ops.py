"""Tape ops that only the tests' reference chains use.

The model's forward pass and the losses record none of them: ``linear``
replaces the ``matmul`` plus ``repeat_rows`` bias chain and, with a
norm, the ``layernorm`` before it, ``attention`` the per-head chain of
``narrow``, ``transpose``, ``softmax``, ``concat`` and friends, then the
output projection's ``linear`` and the residual ``add``, ``mlp`` the
chain of ``layernorm``, ``linear``, ``gelu`` (or ``linear_gelu``),
``linear`` and ``add``, the canvas reaches
the model as patch rows instead of ``concat``-ed pixels, and both losses
score patch rows instead of the image ``extract_cell`` builds from them
with ``reshape`` and ``transpose``. The tests keep them to rebuild those
chains and compare the fused path against them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import erf

from vict.tensor import (
    _INV_SQRT2,
    _INV_SQRT_2PI,
    Tensor,
    _accumulate,
    _accumulate_shared,
    _affine,
    _affine_backward,
    _gelu,
    _node,
    _normalize,
    _normalize_backward,
    _require_finite,
    _same_dtype,
    _softmax_rows,
    _softmax_rows_grad,
    _store_first,
    as_tensor,
)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ValueError(f"reshape: cannot reshape {a.shape} to {shape}")
    out = _node(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        out._backward = lambda g: _accumulate_shared(a, g.reshape(a.shape))
    return out


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        if a.data.ndim != 2:
            raise ValueError(f"transpose: default transpose expects 2-d, got {a.shape}")
        axes = (1, 0)
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ValueError(f"transpose: invalid axes {axes} for shape {a.shape}")
    out = _node(a.data.transpose(axes), (a,), "transpose")
    if out.requires_grad:
        inverse = tuple(axes.index(i) for i in range(len(axes)))
        out._backward = lambda g: _accumulate_shared(a, g.transpose(inverse))
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, with ``attention``'s kernels."""
    a = as_tensor(a)
    _require_finite("softmax", "input", a.data, a)  # a lone -inf would come out as a finite 0
    y = _softmax_rows(a.data.copy())
    out = _node(y, (a,), "softmax")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, _softmax_rows_grad(y, g))
    return out


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize an [R, D] matrix's rows, then scale and shift per
    feature, with the fused nodes' kernels."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    y, xhat, inv = _normalize("layernorm", x, gain, bias)
    out = _node(y, (x, gain, bias), "layernorm")
    if out.requires_grad:
        out._backward = lambda g: _normalize_backward(x, gain, bias, xhat, inv, g)
    return out


def linear_gelu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Exact (erf-based) GELU of ``x @ w + b``, one node, with ``mlp``'s
    kernels: a taped output keeps the GELU's derivative, not its input."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    y = _affine("linear_gelu", x.data, w, b)
    d = _gelu(y, x.requires_grad or w.requires_grad or b.requires_grad)
    out = _node(y, (x, w, b), "linear_gelu")
    if out.requires_grad:
        def _bwd(g):
            g *= d  # g is this node's own, dropped once the rule has run
            dx = _affine_backward(x.data, w, b, g, x.requires_grad)
            if dx is not None:
                _accumulate(x, dx)
        out._backward = _bwd
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit, with the same
    expressions as ``mlp``'s kernel."""
    x = as_tensor(x)
    # out= keeps a 0-d result an array, so the in-place steps apply
    cdf = np.multiply(x.data, _INV_SQRT2, out=np.empty_like(x.data))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = _node(x.data * cdf, (x,), "gelu")
    if out.requires_grad:
        def _bwd(g):
            # g * (cdf + x * pdf), pdf = exp(-x * x / 2) / sqrt(2 pi)
            dx = np.multiply(x.data, -0.5, out=np.empty_like(x.data))
            dx *= x.data
            np.exp(dx, out=dx)
            dx *= _INV_SQRT_2PI
            dx *= x.data
            dx += cdf
            dx *= g
            _accumulate(x, dx)
        out._backward = _bwd
    return out


def extract_cell(rows: Tensor) -> Tensor:
    """``canvas.extract_cell`` on the tape: the [3, C, C] image of
    [(C/P)^2, 3P^2] patch rows, as two reshapes and a transpose."""
    n, width = rows.shape
    k, p = math.isqrt(n), math.isqrt(width // 3)
    x = reshape(rows, (k, k, p, p, 3))
    x = transpose(x, (4, 0, 2, 1, 3))
    return reshape(x, (3, k * p, k * p))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    a = as_tensor(a)
    dim = a.shape[axis]
    if start < 0 or length <= 0 or start + length > dim:
        raise ValueError(f"narrow: range [{start}, {start + length}) out of bounds for axis {axis} of {a.shape}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    # view is safe: ops never mutate their operands' buffers in place
    out = _node(a.data[index], (a,), "narrow")
    if out.requires_grad:
        def _bwd(g):
            if a.grad is None:
                _store_first(a, np.zeros_like(a.data), shared=False)
            a.grad[index] += g
        out._backward = _bwd
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat: empty input list")
    ndim = ts[0].data.ndim
    for t in ts[1:]:
        if t.data.ndim != ndim:
            raise ValueError(f"concat: rank mismatch {ts[0].shape} vs {t.shape}")
        _same_dtype("concat", ts[0], t)
    out = _node(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), "concat")
    if out.requires_grad:
        sizes = [t.shape[axis] for t in ts]
        offsets = np.cumsum([0] + sizes)
        def _bwd(g):
            for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
                index = [slice(None)] * g.ndim
                index[axis] = slice(int(lo), int(hi))
                _accumulate_shared(t, g[tuple(index)])
        out._backward = _bwd
    return out


def repeat_rows(x: Tensor, n: int) -> Tensor:
    """Tile a [1, D] row into [n, D]; backward sums over the copies."""
    x = as_tensor(x)
    if x.data.ndim != 2 or x.shape[0] != 1:
        raise ValueError(f"repeat_rows: expects shape [1, D], got {x.shape}")
    out = _node(np.repeat(x.data, n, axis=0), (x,), "repeat_rows")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(x, g.sum(axis=0, keepdims=True))
    return out
