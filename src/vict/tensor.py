"""numpy-backed dense tensors with reverse-mode automatic differentiation.

Ops are broadcasting-free: elementwise operands must match shapes exactly,
matmul follows the usual inner-dimension rule. An op whose inputs require
gradients records parent links and a backward rule on its output; calling
``backward`` on a scalar replays the recorded rules in reverse topological
order and accumulates into leaf ``grad`` buffers. A backward rule computes
no product for an input that does not require gradients. Repeated backward
calls accumulate on leaves until ``zero_grads`` is called. Any non-finite
op output raises immediately.

The transformer's two hot patterns are one node each: ``linear`` (matmul
plus bias row) and ``attention`` (multi-head scaled dot-product attention
over packed query/key/value columns). Both evaluate the same numpy
expressions, in the same order, as the chains of primitive ops they
replace, so their outputs and gradients are bit-identical to those chains.

Also home to the smooth-L1 regression loss and the decoupled-weight-decay
Adam (AdamW) update used by pre-training and test-time tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


class Tensor:
    """Dense n-dimensional real array, optionally tracked by the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor has {self.data.size} elements")
        return float(self.data.reshape(-1)[0])

    def grad_or_zero(self) -> np.ndarray:
        """Gradient buffer, materializing zeros for untouched leaves."""
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype) if dtype is not None else np.asarray(data)
    return Tensor(arr)


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True)


# ---------------------------------------------------------------------------
# graph plumbing
# ---------------------------------------------------------------------------


def _check_finite(op: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op}: non-finite values in output")


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str) -> Tensor:
    """Op output. ``data`` is floating point already; a numpy scalar (from
    reducing, or from elementwise ops on 0-d operands) becomes a 0-d array."""
    _check_finite(op, data)
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = parents if out.requires_grad else ()
    out._backward = None
    out._op = op
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # copy: g may be shared with another parent's accumulation
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _same_dtype(op: str, a: Tensor, b: Tensor) -> None:
    if a.dtype != b.dtype:
        raise ValueError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return order  # inputs precede their consumers


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every grad-requiring leaf reachable from ``root``.

    ``root`` must be a scalar produced by a recorded op. Intermediate grads
    are reset on entry; leaf grads accumulate across calls (``zero_grads``
    resets them).
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be a scalar, got shape {root.shape}")
    if root._backward is None:
        raise RuntimeError("backward: root is not the output of a recorded operation")
    order = _topo_order(root)
    for node in order:
        if node._parents:
            node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("add", a, b)
    _same_dtype("add", a, b)
    out = _node(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def _bwd(g):
            _accumulate(a, g)
            _accumulate(b, g)
        out._backward = _bwd
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("sub", a, b)
    _same_dtype("sub", a, b)
    out = _node(a.data - b.data, (a, b), "sub")
    if out.requires_grad:
        def _bwd(g):
            _accumulate(a, g)
            if b.requires_grad:
                _accumulate(b, -g)
        out._backward = _bwd
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("mul", a, b)
    _same_dtype("mul", a, b)
    out = _node(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def _bwd(g):
            if a.requires_grad:
                _accumulate(a, g * b.data)
            if b.requires_grad:
                _accumulate(b, g * a.data)
        out._backward = _bwd
    return out


def add_scalar(a: Tensor, s) -> Tensor:
    a = as_tensor(a)
    s = float(s)
    out = _node(a.data + s, (a,), "add_scalar")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, g)
    return out


def mul_scalar(a: Tensor, s) -> Tensor:
    a = as_tensor(a)
    s = float(s)
    out = _node(a.data * s, (a,), "mul_scalar")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, g * s)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    _same_dtype("matmul", a, b)
    out = _node(a.data @ b.data, (a, b), "matmul")
    if out.requires_grad:
        def _bwd(g):
            if a.requires_grad:
                _accumulate(a, g @ b.data.T)
            if b.requires_grad:
                _accumulate(b, a.data.T @ g)
        out._backward = _bwd
    return out


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ValueError(f"reshape: cannot reshape {a.shape} to {shape}")
    out = _node(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, g.reshape(a.shape))
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
    inverse = tuple(int(np.argsort(axes)[i]) for i in range(len(axes)))
    out = _node(a.data.transpose(axes), (a,), "transpose")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, g.transpose(inverse))
    return out


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
                a.grad = np.zeros_like(a.data)
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
                _accumulate(t, g[tuple(index)])
        out._backward = _bwd
    return out


def add_row(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-D vector to every row of an [R, D] matrix (bias add)."""
    x, b = as_tensor(x), as_tensor(b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_row: shapes {x.shape} and {b.shape} do not align")
    _same_dtype("add_row", x, b)
    out = _node(x.data + b.data[None, :], (x, b), "add_row")
    if out.requires_grad:
        def _bwd(g):
            _accumulate(x, g)
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0))
        out._backward = _bwd
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of an [R, K] matrix, one node for
    ``add_row(matmul(x, w), b)``."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError(f"linear: expects [R, K], [K, D] and [D], got {x.shape}, {w.shape} and {b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} do not align")
    _same_dtype("linear", x, w)
    _same_dtype("linear", x, b)
    out = _node(x.data @ w.data + b.data[None, :], (x, w, b), "linear")
    if out.requires_grad:
        def _bwd(g):
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0))
            if x.requires_grad:
                _accumulate(x, g @ w.data.T)
            if w.requires_grad:
                _accumulate(w, x.data.T @ g)
        out._backward = _bwd
    return out


def attention(qkv: Tensor, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention, one node.

    ``qkv`` is [N, 3D]: queries, keys and values side by side, each split
    into ``num_heads`` column blocks of D / num_heads. Returns the heads'
    outputs side by side, [N, D]. Each head runs the same 2-d products and
    softmax expressions as the primitive per-head chain of narrow,
    transpose, matmul, mul_scalar, softmax, matmul and concat. The heads
    are not batched into 3-d products: that measured no faster, and its
    products would not be the chain's.
    """
    qkv = as_tensor(qkv)
    if qkv.data.ndim != 2 or num_heads <= 0 or qkv.shape[1] % (3 * num_heads) != 0:
        raise ValueError(f"attention: cannot split {qkv.shape} into q, k, v of {num_heads} heads")
    data = qkv.data
    d = data.shape[1] // 3
    head_dim = d // num_heads
    scale = float(1.0 / np.sqrt(head_dim))
    heads = [
        (data[:, lo : lo + head_dim], data[:, d + lo : d + lo + head_dim], data[:, 2 * d + lo : 2 * d + lo + head_dim])
        for lo in range(0, d, head_dim)
    ]
    probs, outputs = [], []
    for q, k, v in heads:
        scores = (q @ k.T) * scale
        _check_finite("attention", scores)  # before the softmax, which would hide an infinity
        p = _softmax_rows(scores)
        probs.append(p)
        outputs.append(p @ v)
    out = _node(np.concatenate(outputs, axis=1), (qkv,), "attention")
    if out.requires_grad:
        def _bwd(g):
            dqkv = np.empty_like(data)
            for i, ((q, k, v), p) in enumerate(zip(heads, probs)):
                lo = i * head_dim
                g_out = np.array(g[:, lo : lo + head_dim])  # contiguous, as the unfused chain's concat backward
                g_s = _softmax_rows_grad(p, g_out @ v.T) * scale
                dqkv[:, lo : lo + head_dim] = g_s @ k
                dqkv[:, d + lo : d + lo + head_dim] = (q.T @ g_s).T
                dqkv[:, 2 * d + lo : 2 * d + lo + head_dim] = p.T @ g_out
            _accumulate(qkv, dqkv)
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


# ---------------------------------------------------------------------------
# nonlinearities and reductions
# ---------------------------------------------------------------------------


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_rows_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the input of a softmax with output ``y`` and output gradient ``g``."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    y = _softmax_rows(a.data)
    out = _node(y, (a,), "softmax")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, _softmax_rows_grad(y, g))
    return out


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift per feature."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layernorm: gain/bias must be [{d}], got {gain.shape} and {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = _node(xhat * gain.data + bias.data, (x, gain, bias), "layernorm")
    if out.requires_grad:
        def _bwd(g):
            lead = tuple(range(g.ndim - 1))
            if bias.requires_grad:
                _accumulate(bias, g.sum(axis=lead))
            if gain.requires_grad:
                _accumulate(gain, (g * xhat).sum(axis=lead))
            if not x.requires_grad:
                return
            dxhat = g * gain.data
            # d/dx of (x - mu) / sqrt(var + eps), all statistics over the last axis
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            _accumulate(x, dx)
        out._backward = _bwd
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = _node(x.data * cdf, (x,), "gelu")
    if out.requires_grad:
        def _bwd(g):
            pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
            _accumulate(x, g * (cdf + x.data * pdf))
        out._backward = _bwd
    return out


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    e = np.exp(-np.abs(x.data))  # never overflows
    y = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = _node(y, (x,), "sigmoid")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(x, g * y * (1.0 - y))
    return out


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is identity inside the range, zero outside."""
    x = as_tensor(x)
    out = _node(np.clip(x.data, lo, hi), (x,), "clamp")
    if out.requires_grad:
        inside = (x.data >= lo) & (x.data <= hi)
        out._backward = lambda g: _accumulate(x, g * inside)
    return out


def mean(a: Tensor) -> Tensor:
    """Mean over all elements, reducing to a scalar."""
    a = as_tensor(a)
    out = _node(a.data.mean(), (a,), "mean")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, np.full_like(a.data, g / a.size))
    return out


def tsum(a: Tensor) -> Tensor:
    """Sum over all elements, reducing to a scalar."""
    a = as_tensor(a)
    out = _node(a.data.sum(), (a,), "sum")
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, np.full_like(a.data, g))
    return out


# ---------------------------------------------------------------------------
# smooth-L1 loss
# ---------------------------------------------------------------------------


def smooth_l1(pred: Tensor, target: Tensor, beta: float = 1.0) -> Tensor:
    """Mean smooth-L1: 0.5 d^2 / beta for |d| < beta, else |d| - 0.5 beta.

    C1 at |d| = beta: both branches have value beta/2 and slope sign(d).
    """
    pred, target = as_tensor(pred), as_tensor(target)
    if beta <= 0:
        raise ValueError(f"smooth_l1: beta must be positive, got {beta}")
    _same_shape("smooth_l1", pred, target)
    d = pred.data - target.data
    absd = np.abs(d)
    quad = absd < beta
    per = np.where(quad, 0.5 * d * d / beta, absd - 0.5 * beta)
    out = _node(np.asarray(per.mean(), dtype=pred.dtype), (pred, target), "smooth_l1")
    if out.requires_grad:
        def _bwd(g):
            coef = np.where(quad, d / beta, np.sign(d)) / float(d.size)
            _accumulate(pred, g * coef)
            if target.requires_grad:
                _accumulate(target, -(g * coef))
        out._backward = _bwd
    return out


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


@dataclass
class AdamWState:
    """Decoupled-weight-decay Adam state; one shared step counter."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamWState) -> None:
    """One bias-corrected AdamW update, in place on ``params``.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)
    """
    if state.lr < 0:
        raise ValueError(f"adamw_step: lr must be nonnegative, got {state.lr}")
    if set(grads) != set(params):
        raise ValueError("adamw_step: grads and params cover different names")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g is None:
            raise ValueError(f"adamw_step: missing gradient for {name!r}")
        if g.shape != p.data.shape:
            raise ValueError(f"adamw_step: grad shape {g.shape} vs param shape {p.data.shape} for {name!r}")
        if not np.isfinite(g).all():
            raise FloatingPointError(f"adamw_step: non-finite gradient for {name!r}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay != 0.0:
            update = update + state.weight_decay * p.data
        p.data -= state.lr * update


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    missing = [name for name, t in params.items() if t.grad is None]
    if missing:
        raise RuntimeError(f"collect_grads: no gradient for {missing}")
    return {name: t.grad for name, t in params.items()}
