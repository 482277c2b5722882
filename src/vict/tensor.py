"""numpy-backed dense tensors with reverse-mode automatic differentiation.

Ops are broadcasting-free: elementwise operands must match shapes exactly,
matmul follows the usual inner-dimension rule. An op whose inputs require
gradients records parent links and a backward rule on its output; calling
``backward`` on a scalar replays the recorded rules in reverse topological
order and accumulates into leaf ``grad`` buffers. A backward rule computes
no product for an input that does not require gradients. Repeated backward
calls accumulate on leaves until ``zero_grads`` is called.

Non-finite values: ops do not check their outputs, because every op
carries an inf or NaN in any input into its output, except where a value
can leave the computation. Only there is it checked: ``attention`` checks
its scores before the softmax, ``sigmoid`` checks its input (the logistic
maps an infinity to a finite value), ``take_rows`` checks the matrix it
takes rows from and ``put_rows`` the rows it overwrites (the values they
drop would be lost), and ``backward`` checks the loss it starts from. So
every non-finite value still raises ``FloatingPointError``. When the
value has a tape, the message names the first op on it whose output is
non-finite; otherwise it names the checking op.

Gradient ownership: the first gradient that reaches a tensor becomes its
``grad`` buffer and later ones are added into it in place. A tensor with
a ``grad_buffer`` (a weight, whose buffer is its view of a gradient
arena, see ``new_arena``) has its first gradient computed straight into
that view (``_first_out``) where a rule computes it for that tensor
alone, and copied into it otherwise; the view then becomes ``grad``.
Writing or copying and then adding gives the same bits as storing and
then adding. Otherwise a backward rule hands ``_accumulate`` only an
array it has just computed for that one input, which is then stored
without a copy. An array that another accumulation may also read
(``add``'s incoming gradient, the one ``attention`` and ``mlp`` hand
their residual, or a view of one) goes through ``_accumulate_shared``,
which copies it on first store. So no two ``grad`` buffers ever share
memory. An op output's (an intermediate's) gradient is dropped as soon
as its backward rule has run, so backward holds only the gradients still
to be passed on; leaves keep theirs.

The transformer is three kinds of node, each ending in an affine map:
``linear`` (matmul plus bias row, optionally reading the layer norm of
its input), ``attention`` (multi-head scaled dot-product attention over
packed query/key/value columns, then the output projection and the
residual stream's add) and ``mlp`` (a block's second layer norm, first
linear map, exact GELU, second linear map and residual add). Each op
whose output its own backward never reads is folded into the product
that consumes it, so a pre-norm block is three nodes, and a fused node
keeps on the tape only what its backward rule reads: a norm's ``xhat``
and ``inv``, the softmax output, the GELU's derivative and, only while
the weight is on the tape, the input that the weight's gradient
``x.T @ g`` reads. A norm's output is never kept: a weight's gradient
rebuilds it from ``xhat``, recomputing instead of storing as gradient
checkpointing does. Each evaluates the same numpy expressions, in the
same order, as the chain of primitive ops it replaces, so outputs and
gradients are bit-identical to that chain. Kernels work in place on
their own temporaries where the per-element operation order allows it,
which keeps every value unchanged.

Also home to the smooth-L1 regression loss and the Adam update
(``adamw_step``, with no weight decay) used by pre-training and test-time
tuning. The update runs on whole arenas: the tensors it steps, and their
gradients, must each be consecutive views of one flat buffer (``arena_of``).
Arenas are private memory (``new_arena``). Test-time tuning steps in
process; only ``training.fit`` steps through an ``AdamWWorker``, a child
forked at its first step that holds the moments and computes each gradient
run's update (``_adam_update``) as soon as ``backward`` has finished it
(``on_final``), on a second core while backward goes on; only its gradient
arena and update buffer are shared (``_shared_array``). ``adamw_step``
waits for the last run and subtracts the update here. It needs ``os.fork``.
"""

from __future__ import annotations

import functools
import math
import mmap
import operator
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NoReturn

import numpy as np

from .prefetch import fork_child, kill_and_reap

DEFAULT_DTYPE = np.float32
LAYERNORM_EPS = 1e-5

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


class Tensor:
    """Dense n-dimensional real array, optionally tracked by the autodiff tape."""

    __slots__ = ("data", "grad", "grad_buffer", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.grad_buffer: np.ndarray | None = None  # where the first gradient is stored, if set
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

    def backward(self, on_final: Callable[[Tensor], None] | None = None) -> None:
        backward(self, on_final=on_final)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True)


# ---------------------------------------------------------------------------
# graph plumbing
# ---------------------------------------------------------------------------


def _require_finite(op: str, what: str, arr: np.ndarray, tape: Tensor) -> None:
    """Raise ``FloatingPointError`` if ``arr``, which ``op`` reads, holds an
    inf or NaN. The message names the first op recorded on ``tape`` (the
    tensor ``arr`` comes from) whose output is non-finite, else ``op``."""
    if np.isfinite(arr).all():
        return
    for node in _topo_order(tape):
        if node._parents and not np.isfinite(node.data).all():
            raise FloatingPointError(f"{node._op}: non-finite values in output")
    raise FloatingPointError(f"{op}: non-finite values in {what}")


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str) -> Tensor:
    """Op output. ``data`` is floating point already; a numpy scalar (from
    reducing, or from elementwise ops on 0-d operands) becomes a 0-d array."""
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.grad_buffer = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = parents if out.requires_grad else ()
    out._backward = None
    out._op = op
    return out


def _first_out(t: Tensor) -> np.ndarray | None:
    """Where to compute a gradient for ``t`` alone, as a ufunc's ``out``:
    ``t.grad_buffer`` while no gradient has reached ``t``, else None (a new
    array, which ``_accumulate`` then adds in place)."""
    return t.grad_buffer if t.grad is None else None


def _store_first(t: Tensor, g: np.ndarray, shared: bool) -> None:
    """Make ``g`` the first gradient of ``t``: copied into ``t.grad_buffer``
    if it has one and ``g`` is not already it, else kept as is unless
    another accumulation may read it."""
    if t.grad_buffer is not None:
        if g is not t.grad_buffer:
            np.copyto(t.grad_buffer, g)
        t.grad = t.grad_buffer
    elif shared or type(g) is not np.ndarray or g.dtype != t.data.dtype:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad = g


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient computed for ``t`` alone; the first one is stored
    as is and becomes ``t``'s to update in place."""
    if not t.requires_grad:
        return
    if t.grad is None:
        _store_first(t, g, shared=False)
    else:
        t.grad += g


def _accumulate_shared(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient that another accumulation may also read (or a view
    of one); the first one is stored as a copy."""
    if not t.requires_grad:
        return
    if t.grad is None:
        _store_first(t, g, shared=True)
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


def _last_consumers(order: list[Tensor]) -> dict[int, list[Tensor]]:
    """The grad-requiring leaves of a tape in ``_topo_order``, keyed by the
    id of the consumer whose rule backward runs last for each: the first of
    its consumers in ``order``."""
    seen: set[int] = set()
    last: dict[int, list[Tensor]] = {}
    for node in order:
        for parent in node._parents:
            if parent.requires_grad and not parent._parents and id(parent) not in seen:
                seen.add(id(parent))
                last.setdefault(id(node), []).append(parent)
    return last


def backward(root: Tensor, on_final: Callable[[Tensor], None] | None = None) -> None:
    """Populate ``grad`` on every grad-requiring leaf reachable from ``root``.

    ``root`` must be a scalar produced by a recorded op. Intermediate grads
    are reset on entry and dropped once their rule has used them, so none
    is left afterwards; leaf grads accumulate across calls (``zero_grads``
    resets them). ``on_final(leaf)`` is called once for each grad-requiring
    leaf, right after the rule of its last consumer has run, when no later
    rule changes its gradient.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be a scalar, got shape {root.shape}")
    if root._backward is None:
        raise RuntimeError("backward: root is not the output of a recorded operation")
    _require_finite("backward", "root", root.data, root)
    order = _topo_order(root)
    for node in order:
        if node._parents:
            node.grad = None
    finals = _last_consumers(order) if on_final is not None else {}
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None
        for leaf in finals.get(id(node), ()):
            on_final(leaf)


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
            _accumulate_shared(a, g)
            _accumulate_shared(b, g)
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


def take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """The given rows of an [N, D] matrix, in order; ``rows`` are distinct
    indices. Backward scatters the gradient back into those rows."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ValueError(f"take_rows: expects an [N, D] matrix, got {x.shape}")
    _require_finite("take_rows", "input", x.data, x)  # the rows not taken leave here
    out = _node(x.data[rows], (x,), "take_rows")
    if out.requires_grad:
        def _bwd(g):
            dx = np.zeros_like(x.data)
            dx[rows] = g
            _accumulate(x, dx)
        out._backward = _bwd
    return out


def put_rows(x: Tensor, rows: np.ndarray, values: Tensor) -> Tensor:
    """An [N, D] matrix with the given distinct rows of ``x`` replaced by
    ``values``: [len(rows), D], or one [D] row written into each of them,
    whose gradient is then the sum over those rows."""
    x, values = as_tensor(x), as_tensor(values)
    if x.data.ndim != 2 or values.shape not in ((x.shape[1],), (len(rows), x.shape[1])):
        raise ValueError(f"put_rows: cannot put {values.shape} into {len(rows)} rows of {x.shape}")
    _same_dtype("put_rows", x, values)
    _require_finite("put_rows", "replaced rows", x.data[rows], x)  # the values they held leave here
    y = x.data.copy()
    y[rows] = values.data
    out = _node(y, (x, values), "put_rows")
    if out.requires_grad:
        def _bwd(g):
            if values.requires_grad:
                g_rows = g[rows]
                _accumulate(values, g_rows if values.data.ndim == 2 else g_rows.sum(axis=0, out=_first_out(values)))
            if x.requires_grad:
                dx = g.copy()
                dx[rows] = 0.0
                _accumulate(x, dx)
        out._backward = _bwd
    return out


# ---------------------------------------------------------------------------
# the transformer's fused nodes
# ---------------------------------------------------------------------------


def _affine(op: str, x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """Checked ``x @ w + b`` of an [R, K] matrix, in a new array."""
    if x.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError(f"{op}: expects [R, K], [K, D] and [D], got {x.shape}, {w.shape} and {b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(f"{op}: shapes {x.shape}, {w.shape} and {b.shape} do not align")
    _same_dtype(op, x, w)
    _same_dtype(op, x, b)
    y = x @ w.data
    y += b.data
    return y


def _affine_backward(
    x: np.ndarray | None, w: Tensor, b: Tensor, g: np.ndarray, dx_wanted: bool
) -> np.ndarray | None:
    """Pass the gradient ``g`` at ``x @ w + b`` on to ``w`` and ``b``, and
    return the one at ``x`` if wanted. ``x`` is read only if ``w`` is on
    the tape, so a node with a frozen ``w`` need not keep it."""
    if b.requires_grad:
        _accumulate(b, g.sum(axis=0, out=_first_out(b)))
    if w.requires_grad:
        _accumulate(w, np.matmul(x.T, g, out=_first_out(w)))
    return g @ w.data.T if dx_wanted else None


def _add_residual(op: str, y: np.ndarray, residual: Tensor) -> None:
    """Add the residual stream ([R, D], like ``y``) to ``y`` in place."""
    if residual.shape != y.shape:
        raise ValueError(f"{op}: residual shape {residual.shape} vs output shape {y.shape}")
    _same_dtype(op, y, residual)
    y += residual.data


def _normalize(op: str, x: Tensor, gain: Tensor, bias: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of the rows of ``x``, scaled by ``gain`` and shifted by
    ``bias`` per feature, in a new array; also returns what its backward
    reads: ``xhat``, the normalized rows, and ``inv``, one over each row's
    standard deviation."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"{op}: gain/bias must be [{d}], got {gain.shape} and {bias.shape}")
    # ``sum / d`` rounds as ``mean`` does; every other step is the
    # textbook expression evaluated in place
    mu = x.data.sum(axis=-1, keepdims=True)
    mu /= d
    xhat = x.data - mu
    y = xhat * xhat
    inv = y.sum(axis=-1, keepdims=True)
    inv /= d
    inv += LAYERNORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return _scale_shift(xhat, gain, bias, y), xhat, inv


def _scale_shift(xhat: np.ndarray, gain: Tensor, bias: Tensor, out: np.ndarray | None = None) -> np.ndarray:
    """``xhat * gain + bias``: the layer norm's output, which a backward
    rebuilds from the kept ``xhat`` instead of keeping it."""
    y = np.multiply(xhat, gain.data, out=out)
    y += bias.data
    return y


def _normalize_backward(
    x: Tensor, gain: Tensor, bias: Tensor, xhat: np.ndarray, inv: np.ndarray, g: np.ndarray
) -> None:
    """Pass the gradient ``g`` at a layer norm's [R, D] output on to
    ``x``, ``gain`` and ``bias``."""
    if bias.requires_grad:
        _accumulate(bias, g.sum(axis=0, out=_first_out(bias)))
    # with a frozen gain, scratch is only an out= buffer, written before it is read
    scratch = g * xhat if gain.requires_grad else np.empty(g.shape, np.result_type(g, xhat))
    if gain.requires_grad:
        _accumulate(gain, scratch.sum(axis=0, out=_first_out(gain)))
    if not x.requires_grad:
        return
    # d/dx of (x - mu) / sqrt(var + LAYERNORM_EPS), all statistics over the last axis:
    # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    d = xhat.shape[-1]
    dx = g * gain.data
    np.multiply(dx, xhat, out=scratch)
    m2 = scratch.sum(axis=-1, keepdims=True)
    m2 /= d
    m1 = dx.sum(axis=-1, keepdims=True)
    m1 /= d
    dx -= m1
    np.multiply(xhat, m2, out=scratch)
    dx -= scratch
    dx *= inv
    _accumulate(x, dx)


# Cephes' erf and erfc, the algorithm and coefficients scipy.special.erf
# evaluates: x T(x^2) / U(x^2) for |x| <= 1, else 1 - exp(-x^2) P(|x|) / Q(|x|).
# U and Q are monic; their leading 1 is written out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule at float64 ``x``, highest power first, in a new array:
    the operations, in order, of Cephes' ``polevl``, and of ``p1evl`` when
    ``coef[0]`` is its unstored leading 1."""
    if coef[0] == 1.0:
        acc = x + coef[1]
    else:
        acc = np.multiply(x, coef[0])
        acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function of ``x`` with ``scipy.special.erf``'s bits, in a
    new array of ``x``'s dtype: Cephes evaluated in float64, then rounded.

    The |x| <= 1 rational runs over every element, and the erfc branch
    over the |x| > 1 ones only, which GELU inputs rarely hold. There |x|
    is capped at 8: from 6 on, erfc(|x|) < 2**-54 and 1 - erfc rounds to
    1, as Cephes' other branches for large |x| give. numpy's float64
    ``exp`` can differ from libm's in the last bit, so a float64 ``x``
    takes libm's (Python's ``math.exp``); a float32 result is the same
    either way, which a sweep of every float32 input showed."""
    with np.errstate(over="ignore", invalid="ignore"):  # |x| > ~1e30, overwritten below; signalling NaNs
        v = x.astype(np.float64, order="C")
        z = v * v  # > 1 exactly where |x| > 1
        v *= polevl(z, _ERF_T)
        v /= polevl(z, _ERF_U)
    if not z.max(initial=0.0) <= 1.0:  # a NaN, which stays NaN, also lands here
        big = np.flatnonzero(z > 1.0)
        xb = x.reshape(-1)[big]
        s = np.minimum(np.abs(xb), 8.0).astype(np.float64)
        e = np.negative(s * s)
        e = _libm_exp(e).astype(np.float64) if x.dtype == np.float64 else np.exp(e, out=e)
        e *= polevl(s, _ERFC_P)
        e /= polevl(s, _ERFC_Q)
        v.reshape(-1)[big] = np.copysign(np.subtract(1.0, e, out=e), xb)
    return v.astype(x.dtype, copy=False)


def _gelu(pre: np.ndarray, derivative: bool) -> np.ndarray | None:
    """Exact (erf-based) Gaussian error linear unit of ``pre``, in place.
    Returns its derivative ``cdf + pre * pdf`` in a new array if asked
    for, else None; the normal cdf is a temporary."""
    cdf = _erf(pre * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    d = None
    if derivative:
        # pdf = exp(-pre * pre / 2) / sqrt(2 pi)
        d = np.multiply(pre, -0.5, out=np.empty_like(pre))
        d *= pre
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= pre
        d += cdf
    pre *= cdf
    return d


def linear(x: Tensor, w: Tensor, b: Tensor, norm: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """Affine map ``x @ w + b`` of an [R, K] matrix, one node for
    ``matmul`` plus the bias ``b`` repeated over the R rows. With ``norm``
    (a gain and a bias, [K] each), the map reads the layer norm of ``x``'s
    rows instead: the node keeps the norm's ``xhat`` and ``inv``, and
    ``w``'s gradient reads the norm's output rebuilt from them."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if norm is None:
        out = _node(_affine("linear", x.data, w, b), (x, w, b), "linear")
        if out.requires_grad:
            def _bwd(g):
                dx = _affine_backward(x.data, w, b, g, x.requires_grad)
                if dx is not None:
                    _accumulate(x, dx)
            out._backward = _bwd
        return out
    gain, bias = as_tensor(norm[0]), as_tensor(norm[1])
    normed, xhat, inv = _normalize("linear", x, gain, bias)
    out = _node(_affine("linear", normed, w, b), (x, gain, bias, w, b), "linear")
    if out.requires_grad:
        norm_taped = x.requires_grad or gain.requires_grad or bias.requires_grad
        def _bwd(g):
            normed = _scale_shift(xhat, gain, bias) if w.requires_grad else None
            dnormed = _affine_backward(normed, w, b, g, norm_taped)
            if dnormed is not None:
                _normalize_backward(x, gain, bias, xhat, inv, dnormed)
        out._backward = _bwd
    return out


def _heads(a: np.ndarray, num_heads: int) -> np.ndarray:
    """[..., H, N, hd] view of the ``num_heads`` column blocks of an
    [..., N, H * hd] array whose rows have unit column stride."""
    *lead, n, width = a.shape
    return a.reshape(*lead, n, num_heads, width // num_heads).swapaxes(-3, -2)


def attention(
    qkv: Tensor, num_heads: int, rows: np.ndarray | None, w: Tensor, b: Tensor, residual: Tensor, *, canvases: int = 1
) -> Tensor:
    """Multi-head scaled dot-product self-attention, its output projection
    ``@ w + b`` and the residual stream's add, one node.

    ``qkv`` is [N, 3D]: queries, keys and values side by side, each split
    into ``num_heads`` column blocks of D / num_heads. The heads' outputs,
    side by side, are [N, D], or with ``rows`` (distinct indices) only
    those of those query rows, [len(rows), D], attending to all N keys;
    ``residual`` has their shape. All heads run at once on [H, N, D / H]
    views with ``np.matmul``, which makes each head's 2-d product, so the
    values are those of the primitive per-head chain of narrow, transpose,
    matmul, mul by the constant scale, softmax, matmul and concat, with a
    row take of the queries when ``rows`` is given, then ``linear`` and
    ``add``. The heads' outputs are kept for ``w``'s gradient only while
    ``w`` is on the tape.

    With ``canvases`` S, ``qkv`` holds S canvases' rows one after another,
    ``rows`` index each canvas's rows and a row attends within its canvas
    only, on [S, H, N / S, D / H] views: each canvas's bits are as alone.
    """
    qkv, w, b, residual = as_tensor(qkv), as_tensor(w), as_tensor(b), as_tensor(residual)
    if qkv.data.ndim != 2 or num_heads <= 0 or canvases <= 0 or qkv.shape[1] % (3 * num_heads) or qkv.shape[0] % canvases:
        raise ValueError(f"attention: cannot split {qkv.shape} into q, k, v of {num_heads} heads and {canvases} canvases")
    data = qkv.data.reshape(canvases, -1, qkv.shape[1])
    d = data.shape[-1] // 3
    scale = float(1.0 / np.sqrt(d // num_heads))
    queries = data[..., :d] if rows is None else data[:, rows, :d]
    q = _heads(queries, num_heads)
    k, v = (_heads(data[..., i * d : (i + 1) * d], num_heads) for i in (1, 2))
    scores = np.matmul(q, k.swapaxes(-1, -2))
    scores *= scale
    _require_finite("attention", "scores", scores, qkv)  # before the softmax, which would hide an infinity
    p = _softmax_rows(scores)
    y = np.empty(queries.shape, dtype=data.dtype)
    np.matmul(p, v, out=_heads(y, num_heads))
    y = y.reshape(-1, d)
    projected = _affine("attention", y, w, b)
    _add_residual("attention", projected, residual)
    out = _node(projected, (qkv, w, b, residual), "attention")
    if out.requires_grad:
        heads = y if w.requires_grad else None
        def _bwd(g):
            _accumulate_shared(residual, g)
            g = _affine_backward(heads, w, b, g, qkv.requires_grad)
            if g is None:
                return
            dqkv = np.empty(data.shape, dtype=data.dtype)
            dk, dv = (_heads(dqkv[..., i * d : (i + 1) * d], num_heads) for i in (1, 2))
            if rows is None:
                dq = dqkv[..., :d]
            else:
                dqkv[..., :d] = 0.0
                dq = np.empty(queries.shape, dtype=data.dtype)
            g_out = _heads(g.reshape(queries.shape), num_heads)
            g_s = _softmax_rows_grad(p, np.matmul(g_out, v.swapaxes(-1, -2)))
            g_s *= scale
            np.matmul(g_s, k, out=_heads(dq, num_heads))
            np.matmul(q.swapaxes(-1, -2), g_s, out=dk.swapaxes(-1, -2))  # (q^T g_s)^T, as the chain
            np.matmul(p.swapaxes(-1, -2), g_out, out=dv)
            if rows is not None:
                dqkv[:, rows, :d] = dq
            _accumulate(qkv, dqkv.reshape(qkv.shape))
        out._backward = _bwd
    return out


def mlp(h: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A pre-norm block's MLP branch and the residual stream's add, one
    node: ``h + gelu(norm(h) @ w1 + b1) @ w2 + b2``, where ``norm`` is the
    layer norm of ``h``'s [R, D] rows scaled by ``gain`` and shifted by
    ``bias``, and the GELU is the exact (erf-based) one. A taped node keeps
    the norm's ``xhat`` and ``inv``, the GELU's derivative and, while ``w2``
    is on the tape, the GELU's output; ``w1``'s gradient reads the norm's
    output rebuilt from ``xhat``. An untaped one computes no derivative."""
    parents = tuple(map(as_tensor, (h, gain, bias, w1, b1, w2, b2)))
    h, gain, bias, w1, b1, w2, b2 = parents
    taped = any(t.requires_grad for t in parents)
    normed, xhat, inv = _normalize("mlp", h, gain, bias)
    hidden = _affine("mlp", normed, w1, b1)
    d = _gelu(hidden, taped)
    y = _affine("mlp", hidden, w2, b2)
    _add_residual("mlp", y, h)
    out = _node(y, parents, "mlp")
    if taped:
        kept = hidden if w2.requires_grad else None
        norm_taped = h.requires_grad or gain.requires_grad or bias.requires_grad
        def _bwd(g):
            _accumulate_shared(h, g)
            g = _affine_backward(kept, w2, b2, g, True)
            g *= d
            normed = _scale_shift(xhat, gain, bias) if w1.requires_grad else None
            g = _affine_backward(normed, w1, b1, g, norm_taped)
            if g is not None:
                _normalize_backward(h, gain, bias, xhat, inv, g)
        out._backward = _bwd
    return out


# ---------------------------------------------------------------------------
# nonlinearities and reductions
# ---------------------------------------------------------------------------


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in and returned as ``x``'s buffer."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_rows_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the input of a softmax with output ``y`` and output
    gradient ``g``: ``y * (g - (g * y).sum(-1))``, in one new array."""
    dx = g * y
    np.subtract(g, dx.sum(axis=-1, keepdims=True), out=dx)
    dx *= y
    return dx


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    _require_finite("sigmoid", "input", x.data, x)  # the logistic maps +-inf to a finite 1 or 0
    e = np.abs(x.data, out=np.empty_like(x.data))
    np.negative(e, out=e)
    np.exp(e, out=e)  # never overflows
    denom = np.add(1.0, e, out=np.empty_like(e))
    e /= denom
    np.divide(1.0, denom, out=denom)
    y = np.where(x.data >= 0, denom, e)
    out = _node(y, (x,), "sigmoid")
    if out.requires_grad:
        def _bwd(g):
            dx = g * y
            dx *= 1.0 - y
            _accumulate(x, dx)
        out._backward = _bwd
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


def smooth_l1(pred: Tensor, target: Tensor) -> Tensor:
    """Mean smooth-L1: 0.5 d^2 for |d| < 1, else |d| - 0.5.

    C1 at |d| = 1: both branches have value 1/2 and slope sign(d).
    """
    pred, target = as_tensor(pred), as_tensor(target)
    _same_shape("smooth_l1", pred, target)
    d = pred.data - target.data
    absd = np.abs(d)
    quad = absd < 1.0
    per = np.where(quad, 0.5 * d * d, absd - 0.5)
    out = _node(np.asarray(per.mean(), dtype=pred.dtype), (pred, target), "smooth_l1")
    if out.requires_grad:
        def _bwd(g):
            coef = np.where(quad, d, np.sign(d)) / float(d.size)
            _accumulate(pred, g * coef)
            if target.requires_grad:
                _accumulate(target, -(g * coef))
        out._backward = _bwd
    return out


# ---------------------------------------------------------------------------
# arenas
# ---------------------------------------------------------------------------


def _shared_array(size: int, dtype: np.dtype) -> np.ndarray:
    """Zeros in a new anonymous shared mapping, which a child forked after it
    is made reads and writes as this process does (``AdamWWorker``'s own)."""
    return np.frombuffer(mmap.mmap(-1, max(size * dtype.itemsize, 1)), dtype=dtype, count=size)


def new_arena(shapes: Iterable[tuple[str, tuple[int, ...]]], dtype) -> dict[str, np.ndarray]:
    """Zero-filled arrays of the given names and shapes, in order, as
    consecutive views of one new flat buffer (an arena) in this process's
    private memory: a child forked after it is made writes its own copy."""
    shapes = list(shapes)
    flat = np.zeros(sum(math.prod(shape) for _, shape in shapes), dtype)
    views: dict[str, np.ndarray] = {}
    lo = 0
    for name, shape in shapes:
        hi = lo + math.prod(shape)
        views[name] = flat[lo:hi].reshape(shape)
        lo = hi
    return views


def arena_of(arrays: Iterable[tuple[str, np.ndarray]], owner: str) -> np.ndarray:
    """The flat array that the named ``arrays`` tile, in order: each one a
    C-contiguous view of one buffer, of one dtype, that starts where the
    one before it ends. Raises ``ValueError`` naming the first that does not."""
    arrays = list(arrays)
    if not arrays:
        raise ValueError(f"{owner}: no tensors")
    first_name, first = arrays[0]
    base = first if first.base is None else first.base
    if not isinstance(base, np.ndarray) or base.dtype != first.dtype or not base.flags.c_contiguous:
        raise ValueError(f"{owner}: {first_name!r} is not a view of a flat {first.dtype} buffer")
    start = end = first.ctypes.data
    for name, a in arrays:
        if a.dtype != first.dtype:
            raise ValueError(f"{owner}: {name!r} is {a.dtype}, but {first_name!r} is {first.dtype}")
        if (a if a.base is None else a.base) is not base or not a.flags.c_contiguous or a.ctypes.data != end:
            raise ValueError(f"{owner}: {name!r} does not start in the same buffer where the one before it ends")
        end += a.nbytes
    lo = (start - base.ctypes.data) // first.itemsize
    return base.reshape(-1)[lo : lo + (end - start) // first.itemsize]


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAMW_BLOCK = 2**15  # values per block of the update: 128 KiB temporaries in float32
ADAMW_RUN = 2**14  # the fewest gradient values one message during backward hands the AdamW worker


@dataclass
class AdamWState:
    """Adam state with one shared step counter; the moment decay rates are
    ``ADAM_BETA1`` and ``ADAM_BETA2``. No weight decay: nothing in
    pre-training, fine-tuning or test-time tuning decays its weights.

    Stepped in process (test-time tuning), the first ``adamw_step`` makes
    ``m`` and ``v``, laid out like the parameter arena it updates. With a
    ``worker`` (``training.fit``'s ``AdamWWorker``, which sets itself
    here), the moments live in its process and ``m`` and ``v`` stay None.
    """

    lr: float
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    worker: AdamWWorker | None = field(default=None, repr=False, compare=False)
    # the last call's parameter and gradient arrays, with their flat arenas
    _arenas: tuple = field(default=(), repr=False, compare=False)


def check_lr(owner: str, name: str, lr: float) -> None:
    """Reject a learning rate that is negative, NaN or infinite."""
    if not 0.0 <= lr < np.inf:
        raise ValueError(f"{owner}: {name} must be finite and nonnegative, got {lr}")


def _flat_operands(
    params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray], state: AdamWState
) -> tuple[np.ndarray, np.ndarray]:
    """The flat arrays that ``params``' data and ``grads`` tile (``arena_of``),
    checked and found again only when an array differs from the last call's:
    finding them reads every array's address, 0.22 ms for the 52-tensor
    encoder group, a quarter of the update itself."""
    arrays = [t.data for t in params.values()] + [grads[name] for name in params]
    if state._arenas and len(arrays) == len(state._arenas[0]) and all(map(operator.is_, arrays, state._arenas[0])):
        return state._arenas[1], state._arenas[2]
    for name, p in params.items():
        g = grads[name]
        if g is None:
            raise ValueError(f"adamw_step: missing gradient for {name!r}")
        if g.shape != p.data.shape:
            raise ValueError(f"adamw_step: grad shape {g.shape} vs param shape {p.data.shape} for {name!r}")
    theta = arena_of(((name, p.data) for name, p in params.items()), "adamw_step: params")
    g = arena_of(((name, grads[name]) for name in params), "adamw_step: grads")
    state._arenas = (arrays, theta, g)
    return theta, g


def _adam_update(
    g: np.ndarray, m: np.ndarray, v: np.ndarray, update: np.ndarray, t: int, lr: float, eps: float, scratch: np.ndarray
) -> None:
    """Step the moments ``m`` and ``v`` of a slice with its gradients ``g``
    and write the slice's step-``t`` update, ``lr * m_hat / (sqrt(v_hat) +
    eps)``, into ``update``, all in place. It walks the slice in blocks of
    ``ADAMW_BLOCK`` values with ``scratch``, one block long, as its
    temporary. Each value depends on its own element alone, so an arena
    updated in any slices has the bits of one whole-arena update."""
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for lo in range(0, g.size, ADAMW_BLOCK):
        block = slice(lo, lo + ADAMW_BLOCK)
        gb, mb, vb, ub = g[block], m[block], v[block], update[block]
        s = scratch[: gb.size]
        np.multiply(gb, 1.0 - ADAM_BETA1, out=s)
        mb *= ADAM_BETA1
        mb += s
        np.multiply(gb, gb, out=s)
        s *= 1.0 - ADAM_BETA2
        vb *= ADAM_BETA2
        vb += s
        # s <- sqrt(v_hat) + eps; update = m_hat / s
        np.divide(vb, bc2, out=s)
        np.sqrt(s, out=s)
        s += eps
        np.divide(mb, bc1, out=ub)
        ub /= s
        ub *= lr


def _step_in_process(theta: np.ndarray, g: np.ndarray, state: AdamWState) -> bool:
    """Subtract ``theta``'s next update, from its gradients ``g`` and the
    moments of ``state``, a block of ``ADAMW_BLOCK`` values at a time, with
    no arena-sized buffer; False, and nothing changed, if ``g`` is not finite."""
    if not np.isfinite(g).all():
        return False
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    elif state.m.shape != theta.shape:
        raise ValueError(f"adamw_step: state holds moments for {state.m.size} values, params have {theta.size}")
    update = np.empty(min(ADAMW_BLOCK, theta.size), dtype=theta.dtype)
    scratch = np.empty(min(ADAMW_BLOCK, g.size), dtype=g.dtype)
    for lo in range(0, theta.size, ADAMW_BLOCK):
        block, ub = slice(lo, lo + ADAMW_BLOCK), update[: theta.size - lo]
        _adam_update(g[block], state.m[block], state.v[block], ub, state.t + 1, state.lr, state.eps, scratch)
        theta[block] -= ub
    return True


def adamw_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray], state: AdamWState) -> None:
    """One bias-corrected Adam update, in place on ``params``.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)

    ``params``' data, and ``grads`` in ``params`` order, must each tile one
    flat buffer (``arena_of``), as a ``model.trainable`` group and its
    gradients do. With ``state.worker``, the worker has already computed
    the update of each run of the gradient arena that backward handed it;
    this call hands it the rest and waits for it (``AdamWWorker.step``).
    Without one, the update is computed here, a block at a time
    (``_step_in_process``). Either way it comes from ``_adam_update``, so
    it has the same bits, and this process subtracts it from the weights.
    A non-finite gradient is a ``FloatingPointError`` naming the first
    non-finite tensor in ``params`` order, and then no weight changes.
    """
    check_lr("adamw_step", "lr", state.lr)
    if grads.keys() != params.keys():
        raise ValueError("adamw_step: grads and params cover different names")
    theta, g = _flat_operands(params, grads, state)
    if not (state.worker.step(theta, g) if state.worker is not None else _step_in_process(theta, g, state)):
        name = next(name for name in params if not np.isfinite(grads[name]).all())
        raise FloatingPointError(f"adamw_step: non-finite gradient for {name!r}")
    state.t += 1


# a message to the AdamW worker: the run [lo, hi) of the gradient arena, or with lo == hi the step's end
_RUN = struct.Struct("=qq")


def _run_worker(g: np.ndarray, update: np.ndarray, lr: float, eps: float, commands: int, status: int) -> NoReturn:
    """The AdamW worker's body. For each run ``[lo, hi)`` of the gradient
    arena ``g`` read from ``commands``: check that it is finite and write
    its update into ``update``; at each step's end write b"1" to ``status``,
    or b"0" if a run of the step was not finite. ``m`` and ``v`` live here.
    It exits at the pipe's end; an error is written as b"E" and its message.
    Never returns."""
    code = 1
    try:
        pipe = open(commands, "rb")
        m, v = np.zeros_like(g), np.zeros_like(g)
        scratch = np.empty(min(ADAMW_BLOCK, g.size), dtype=g.dtype)
        t, finite = 1, True
        while len(message := pipe.read(_RUN.size)) == _RUN.size:
            lo, hi = _RUN.unpack(message)
            if lo == hi:
                os.write(status, b"1" if finite else b"0")
                t, finite = t + finite, True
            elif finite:
                finite = bool(np.isfinite(g[lo:hi]).all())
                if finite:
                    _adam_update(g[lo:hi], m[lo:hi], v[lo:hi], update[lo:hi], t, lr, eps, scratch)
        code = 0
    except Exception as err:
        os.write(status, f"E{type(err).__name__}: {err}".encode())
    finally:
        os._exit(code)


class AdamWWorker:
    """Computes the AdamW updates of ``params``, a ``model.trainable``
    group, for ``state`` in a forked child, while backward still runs.

    Each tensor's ``grad_buffer`` becomes its view of a new shared gradient
    arena (``_shared_array``), and the private one ``trainable`` made is
    freed. ``finished`` is ``backward``'s ``on_final``. Backward finishes
    the gradient arena from its end down; each time the finished run at its
    end has grown by ``ADAMW_RUN`` values, its bounds go to the child
    through a pipe. The child reads the gradients from the arena itself and
    writes their update into a shared buffer (``_run_worker``).
    ``adamw_step`` calls ``step``, which hands over the rest of the arena
    and the step's end and waits for the child.

    ``lr`` and ``eps`` are taken from ``state`` here. The child is forked
    at the first run handed over, so a loop with no step forks none. It
    holds ``m`` and ``v`` in its own memory and exits when its command
    pipe reaches its end, so it does not outlive this process. A step with
    a non-finite gradient leaves its moments moved, so the worker refuses
    any later step. ``close`` kills and reaps the child; use it through
    ``contextlib.closing``. It needs ``os.fork`` (POSIX).
    """

    def __init__(self, params: Mapping[str, Tensor], state: AdamWState):
        self.dtype = next(iter(params.values())).dtype
        self._index = {id(t): i for i, t in enumerate(params.values())}
        self._starts = [0]  # each tensor's offset in the arena, then the arena's size
        for t in params.values():
            self._starts.append(self._starts[-1] + t.size)
        self.grads = _shared_array(self._starts[-1], self.dtype)
        for t, lo, hi in zip(params.values(), self._starts, self._starts[1:]):
            t.grad_buffer = self.grads[lo:hi].reshape(t.shape)
        self.lr, self.eps = state.lr, state.eps
        self.pid: int | None = None
        self.lost = False
        self._new_step()
        state.worker = self

    def _new_step(self) -> None:
        self._final = [False] * len(self._index)
        self._top = len(self._index)  # the tensors from this index on have their final gradients
        self._sent = self._starts[-1]  # the arena from this offset on is handed over

    def finished(self, leaf: Tensor) -> None:
        """``leaf``'s gradient is final: hand over the finished run at the
        arena's end once it holds ``ADAMW_RUN`` values not yet handed over."""
        i = self._index.get(id(leaf))
        if i is None:
            return
        self._final[i] = True
        while self._top > 0 and self._final[self._top - 1]:
            self._top -= 1
        lo = self._starts[self._top]
        if self._sent - lo >= ADAMW_RUN:
            self._send(lo, self._sent)
            self._sent = lo

    def step(self, theta: np.ndarray, g: np.ndarray) -> bool:
        """Hand over the rest of the gradient arena ``g`` and the step's end,
        wait for the child and subtract its update from ``theta``; False,
        and nothing changed, if a gradient was not finite."""
        if g.ctypes.data != self.grads.ctypes.data or g.size != self.grads.size:
            raise ValueError("adamw_step: grads are not the gradient arena the AdamW worker reads")
        if self._sent > 0:
            self._send(0, self._sent)
        self._send(0, 0)
        self._new_step()
        verdict = self._status.read(1)
        if verdict == b"1":
            theta -= self.update
            return True
        if verdict == b"0":
            self.lost = True
            return False
        raise self._failure(verdict)

    def _send(self, lo: int, hi: int) -> None:
        if self.lost:
            raise RuntimeError("adamw_step: a step with a non-finite gradient moved the AdamW worker's moments")
        if self.pid is None:
            self._fork()
        try:
            os.write(self._commands, _RUN.pack(lo, hi))
        except BrokenPipeError:
            raise self._failure(b"") from None

    def _failure(self, head: bytes) -> RuntimeError:
        message = (head + self._status.read()).decode(errors="replace").removeprefix("E")
        return RuntimeError(f"adamw_step: the AdamW worker failed: {message or 'it exited'}")

    def _fork(self) -> None:
        self.update = _shared_array(self.grads.size, self.dtype)
        commands, to_child = os.pipe()
        from_child, status = os.pipe()
        body = functools.partial(_run_worker, self.grads, self.update, self.lr, self.eps)
        self.pid = fork_child(body, (commands, status), (to_child, from_child))
        self._commands, self._status = to_child, open(from_child, "rb")

    def close(self) -> None:
        if self.pid is not None:
            os.close(self._commands)
            self._status.close()
            kill_and_reap(self.pid)
            self.pid = None


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    missing = [name for name, t in params.items() if t.grad is None]
    if missing:
        raise RuntimeError(f"collect_grads: no gradient for {missing}")
    return {name: t.grad for name, t in params.items()}
