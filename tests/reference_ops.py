"""Tape ops that only the tests' reference chains use.

The model's forward pass records none of them: ``linear`` replaces the
``matmul`` plus ``repeat_rows`` bias chain, ``attention`` the per-head
chain of ``narrow``, ``concat`` and friends, and the canvas reaches the
model as patch rows instead of ``concat``-ed pixels. The tests keep them
to rebuild those chains and compare the fused path against them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from vict.tensor import Tensor, _accumulate, _accumulate_shared, _node, _same_dtype, _store_first, as_tensor


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
