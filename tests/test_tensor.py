import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from vict import model, tasks, training, tuning
from vict import tensor as T
from vict.gradcheck import FD_STEP, TINY_CONFIG, TOLERANCE, _check, check_op_gradients, finite_diff_grad, rel_error

from reference_ops import concat, gelu, layernorm, linear_gelu, narrow, repeat_rows, reshape, softmax, transpose


def arr(*values):
    return np.array(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------


def test_matmul_shape():
    out = T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 4))))
    assert out.shape == (2, 4)


def test_matmul_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))))


def _zeros(*shape, dtype=np.float64):
    return T.Tensor(np.zeros(shape, dtype=dtype))


@pytest.mark.parametrize(
    "args, message",
    [
        ((_zeros(2, 3, 1), _zeros(3, 4), _zeros(4)), r"expects \[R, K\], \[K, D\] and \[D\], got \(2, 3, 1\)"),
        ((_zeros(2, 3), _zeros(5, 4), _zeros(4)), r"shapes \(2, 3\), \(5, 4\) and \(4,\) do not align"),
        ((_zeros(2, 3), _zeros(3, 4, dtype=np.float32), _zeros(4)), "dtype mismatch float64 vs float32"),
        ((_zeros(2, 3), _zeros(3, 4), _zeros(4), _zeros(4, 2)), r"residual shape \(4, 2\) vs output shape \(2, 4\)"),
        ((_zeros(2, 3), _zeros(3, 4), _zeros(4), _zeros(2, 4, dtype=np.float32)), "dtype mismatch float64 vs float32"),
    ],
    ids=["rank", "align", "dtype", "residual-shape", "residual-dtype"],
)
def test_linear_rejects_bad_operands(args, message):
    # the affine map's checks, which every fused node shares; of the model's
    # nodes, ``attention`` is the one that takes a residual
    if len(args) == 3:
        with pytest.raises(ValueError, match=f"^linear: {message}"):
            T.linear(*args)
        with pytest.raises(ValueError, match=f"^linear_gelu: {message}"):
            linear_gelu(*args)
    else:
        x, w, b, residual = args
        with pytest.raises(ValueError, match=f"^attention: {message}"):
            T.attention(_zeros(x.shape[0], 3 * x.shape[1]), 1, None, w, b, residual)


def test_fused_nodes_reject_a_bad_norm_or_branch():
    h, w = _zeros(2, 3), _zeros(3, 4)
    with pytest.raises(ValueError, match=r"^linear: gain/bias must be \[3\], got \(4,\) and \(3,\)$"):
        T.linear(h, w, _zeros(4), (_zeros(4), _zeros(3)))
    with pytest.raises(ValueError, match=r"^mlp: gain/bias must be \[3\], got \(3,\) and \(2,\)$"):
        T.mlp(h, _zeros(3), _zeros(2), w, _zeros(4), _zeros(4, 3), _zeros(3))
    with pytest.raises(ValueError, match=r"^mlp: residual shape \(2, 3\) vs output shape \(2, 5\)$"):
        T.mlp(h, _zeros(3), _zeros(3), w, _zeros(4), _zeros(4, 5), _zeros(5))


def test_add_shape_mismatch():
    with pytest.raises(ValueError, match="add"):
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))))


def test_softmax_of_constant_row_is_uniform():
    out = softmax(T.Tensor(np.full((2, 5), 3.7)))
    assert np.allclose(out.data, 0.2, atol=1e-12)


def test_layernorm_normalizes_rows():
    x = T.Tensor(arr(100.0, 200.0, 300.0).reshape(1, 3))  # variance far above LAYERNORM_EPS
    out = layernorm(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
    assert abs(out.data.mean()) < 1e-6
    assert abs(out.data.var() - 1.0) < 1e-6


def test_non_finite_output_is_an_error():
    # ops propagate an overflow; backward's check on the loss names the op that made it
    big = T.parameter(np.full((4,), 1e300))
    with np.errstate(over="ignore"):
        loss = T.tsum(T.mul(big, big))
    with pytest.raises(FloatingPointError, match=r"^mul: non-finite values in output$"):
        loss.backward()


def test_non_finite_error_names_the_first_non_finite_op_on_the_tape():
    x = T.parameter(arr(1.0, 2.0, 3.0))
    with np.errstate(over="ignore", invalid="ignore"):
        h = T.mul(gelu(x), T.constant(np.full(3, 1e308)))  # the gelu is finite, the mul overflows
        h = gelu(T.add(h, h))
        with pytest.raises(FloatingPointError, match=r"^mul: non-finite values in output$"):
            T.sigmoid(h)
        loss = T.tsum(h)
    with pytest.raises(FloatingPointError, match=r"^mul: non-finite values in output$"):
        loss.backward()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_ops_that_could_hide_a_non_finite_input_check_it(value):
    # off the tape, the checking op is named
    with pytest.raises(FloatingPointError, match=r"^sigmoid: non-finite values in input$"):
        T.sigmoid(T.Tensor(arr(0.5, value)))  # the logistic would give a finite 1 or 0 for +-inf
    with pytest.raises(FloatingPointError, match=r"^softmax: non-finite values in input$"):
        softmax(T.Tensor(arr(0.5, value).reshape(1, 2)))  # -inf would come out as a finite 0
    with pytest.raises(FloatingPointError, match=r"^take_rows: non-finite values in input$"):
        T.take_rows(T.Tensor(arr(0.5, value).reshape(2, 1)), np.array([0]))  # the value lies in a row not taken
    with pytest.raises(FloatingPointError, match=r"^put_rows: non-finite values in replaced rows$"):
        T.put_rows(T.Tensor(arr(0.5, value).reshape(2, 1)), np.array([1]), T.Tensor(arr(0.5)))  # it is overwritten


def test_attention_rejects_non_finite_scores():
    # scores [[0, -inf], [0, -inf]]: the softmax alone would map them to a finite [1, 0]
    q = np.array([[1e20], [1e20]], dtype=np.float32)
    k = np.array([[0.0], [-1e20]], dtype=np.float32)
    qkv = T.Tensor(np.concatenate([q, k, np.ones((2, 1), dtype=np.float32)], axis=1))
    w, b, residual = (T.Tensor(np.ones(shape, dtype=np.float32)) for shape in [(1, 1), (1,), (2, 1)])
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="attention"):
        T.attention(qkv, 1, None, w, b, residual)


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 6))
    a = softmax(gelu(T.Tensor(x.copy()))).data
    b = softmax(gelu(T.Tensor(x.copy()))).data
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_square_sum():
    p = T.parameter(arr(1.0, 2.0, 3.0))
    T.tsum(T.mul(p, p)).backward()
    assert np.allclose(p.grad, [2.0, 4.0, 6.0])


def test_backward_matmul_against_finite_differences():
    rng = np.random.default_rng(1)
    a = T.parameter(rng.normal(size=(3, 4)))
    b_fixed = rng.normal(size=(4, 2))

    def loss():
        return T.tsum(T.matmul(a, T.constant(b_fixed)))

    loss().backward()
    # closed form: grad(A) = row-broadcast of B's column sums
    expected = np.tile(b_fixed.sum(axis=1), (3, 1))
    assert np.allclose(a.grad, expected)
    numeric = finite_diff_grad(lambda: loss().item(), a.data, h=FD_STEP)
    assert rel_error(a.grad, numeric) < 1e-6


def test_backward_disconnected_leaf_has_zero_grad():
    p = T.parameter(arr(1.0, 2.0))
    q = T.parameter(arr(3.0, 4.0))
    T.tsum(T.mul(p, p)).backward()
    assert np.array_equal(q.grad_or_zero(), np.zeros(2))


def test_backward_requires_scalar_root():
    p = T.parameter(arr(1.0, 2.0))
    with pytest.raises(ValueError, match="scalar"):
        T.mul(p, p).backward()


def test_backward_detached_root_is_an_error():
    with pytest.raises(RuntimeError, match="recorded"):
        T.Tensor(arr(1.0)).backward()


def test_repeated_backward_accumulates_until_zero_grads():
    p = T.parameter(arr(1.0, 2.0))
    loss = T.tsum(T.mul(p, p))
    loss.backward()
    first = p.grad.copy()
    loss.backward()
    assert np.allclose(p.grad, 2 * first)
    T.zero_grads([p])
    assert p.grad is None


def test_op_gradients_match_finite_differences():
    results = check_op_gradients()
    assert {"linear", "attention", "mlp"} <= set(results)
    assert {name: err for name, err in results.items() if not err < TOLERANCE} == {}


def test_reference_op_gradients_match_finite_differences():
    # the ops only the tests' reference chains use, checked here and not by ``vict gradcheck``
    rng = np.random.default_rng(0)
    n, c1, c2, row, r, s = (
        T.parameter(rng.uniform(-1.0, 1.0, size=shape)) for shape in [(4, 6), (2, 3), (4, 3), (1, 5), (2, 3, 4), (3, 6)]
    )
    wn, wc, wx, wr, wt, ws = (
        T.constant(rng.uniform(-1.0, 1.0, size=shape)) for shape in [(4, 3), (6, 3), (4, 5), (4, 6), (4, 2, 3), (3, 6)]
    )
    gain, bias, lw, lb = (T.parameter(rng.uniform(-1.0, 1.0, size=shape)) for shape in [(6,), (6,), (6, 3), (3,)])
    results = {
        "narrow": _check(lambda: T.tsum(T.mul(narrow(n, 1, 2, 3), wn)), {"n": n}),
        "concat": _check(lambda: T.tsum(T.mul(concat([c1, c2], axis=0), wc)), {"c1": c1, "c2": c2}),
        "repeat_rows": _check(lambda: T.tsum(T.mul(repeat_rows(row, 4), wx)), {"row": row}),
        "reshape": _check(lambda: T.tsum(T.mul(reshape(r, (4, 6)), wr)), {"r": r}),
        "transpose": _check(lambda: T.tsum(T.mul(transpose(r, (2, 0, 1)), wt)), {"r": r}),
        "softmax": _check(lambda: T.tsum(T.mul(softmax(s), ws)), {"s": s}),
        "gelu": _check(lambda: T.tsum(T.mul(gelu(s), ws)), {"s": s}),
        "layernorm": _check(lambda: T.tsum(T.mul(layernorm(s, gain, bias), ws)), {"s": s, "gain": gain, "bias": bias}),
        "linear_gelu": _check(lambda: T.tsum(T.mul(linear_gelu(n, lw, lb), wn)), {"n": n, "w": lw, "b": lb}),
    }
    assert {name: err for name, err in results.items() if not err < TOLERANCE} == {}


def _tape_ops(root):
    ops, seen, stack = set(), set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._parents:
                ops.add(t._op)
            stack.extend(t._parents)
    return ops


def test_gradcheck_covers_every_op_the_model_records():
    params = model.init(TINY_CONFIG, seed=0, dtype=np.float64)
    model.trainable(params, "all")
    c = TINY_CONFIG.cell_size
    prompt, query = (tasks.generate(tasks.TaskKind.DENOISE, seed, c) for seed in (1, 2))
    prompt, query = ((s.input.astype(np.float64), s.target.astype(np.float64)) for s in (prompt, query))
    tapes = [tuning.cycle_loss(params, *tuning.cycle_rows(prompt, query[0], params.config.patch_size))]
    tapes += [training.masked_cell_loss(params, prompt, query, flip) for flip in (False, True)]
    recorded = set().union(*map(_tape_ops, tapes))
    checked = set(check_op_gradients())
    assert {"linear", "attention", "smooth_l1"} <= recorded
    assert {op for op in recorded if op not in checked and not any(k.startswith(f"{op}_") for k in checked)} == set()
    # and the converse: every checked op is recorded, except ``mul``, which
    # with ``tsum`` (no check of its own) turns each check's output into a
    # scalar, and ``matmul``, which perfbench/tracing.py wraps by name
    unrecorded = {k for k in checked if not any(k == op or k.startswith(f"{op}_") for op in recorded)}
    assert unrecorded <= {"mul", "matmul"}
    # each fused node also with its weights frozen, when it keeps no input for them
    fused = {"linear", "attention", "mlp"}
    assert fused <= recorded
    assert {f"{op}_frozen" for op in fused} <= checked


# ---------------------------------------------------------------------------
# kernels against the textbook numpy expressions, bit for bit
# ---------------------------------------------------------------------------
# Each reference below is the plain expression the kernel evaluates in place
# and with fewer temporaries; values and gradients must not move by one bit.

DTYPES = [np.float32, np.float64]


def _op_and_grads(op, arrays, g):
    """Output bytes of ``op`` on leaves made from ``arrays``, and each leaf's
    gradient bytes when the output gradient is exactly ``g``."""
    leaves = [T.parameter(a.copy()) for a in arrays]
    out = op(*leaves)
    T.tsum(T.mul(out, T.constant(g))).backward()
    return out.data.tobytes(), [leaf.grad.tobytes() for leaf in leaves]


def _reference_bytes(out, grads):
    return out.tobytes(), [g.tobytes() for g in grads]


def _normal(rng, dtype, *shape, scale=1.0):
    return (rng.normal(size=shape) * scale).astype(dtype)


def _textbook_layernorm(x, gain, bias, g):
    """Layer norm of ``x``'s rows and, for the output gradient ``g``, the
    gradients at ``x``, ``gain`` and ``bias``, plus ``xhat``."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + T.LAYERNORM_EPS)
    xhat = centered * inv
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return xhat * gain + bias, [dx, (g * xhat).sum(axis=0), g.sum(axis=0)]


def _textbook_gelu(pre):
    """Exact GELU of ``pre`` and its derivative."""
    cdf = 0.5 * (1.0 + erf(pre * 0.7071067811865476))
    pdf = np.exp(-0.5 * pre * pre) * 0.3989422804014327
    return pre * cdf, cdf + pre * pdf


@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_matches_textbook_expression(dtype):
    rng = np.random.default_rng(11)
    x, w, b, g = _normal(rng, dtype, 64, 64), _normal(rng, dtype, 64, 256), _normal(rng, dtype, 256), _normal(rng, dtype, 64, 256)
    expected = _reference_bytes(x @ w + b[None, :], [g @ w.T, x.T @ g, g.sum(axis=0)])
    assert _op_and_grads(T.linear, [x, w, b], g) == expected
    # with a norm: the layer norm of x's rows, then the affine map
    gain, bias = _normal(rng, dtype, 64), _normal(rng, dtype, 64)
    normed, (dx, dgain, dbias) = _textbook_layernorm(x, gain, bias, g @ w.T)
    expected = _reference_bytes(normed @ w + b[None, :], [dx, normed.T @ g, g.sum(axis=0), dgain, dbias])
    normed_linear = lambda x, w, b, gain, bias: T.linear(x, w, b, (gain, bias))  # noqa: E731
    assert _op_and_grads(normed_linear, [x, w, b, gain, bias], g) == expected


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("d", [64, 48])  # 1/48 is inexact, so a mean by reciprocal would show
def test_layernorm_matches_textbook_expression(dtype, d):
    # the reference op, with the kernels of ``linear``'s and ``mlp``'s norms
    rng = np.random.default_rng(12)
    x = _normal(rng, dtype, 64, d, scale=3.0) + dtype(0.5)
    gain, bias, g = _normal(rng, dtype, d), _normal(rng, dtype, d), _normal(rng, dtype, 64, d)
    expected = _reference_bytes(*_textbook_layernorm(x, gain, bias, g))
    assert _op_and_grads(layernorm, [x, gain, bias], g) == expected


@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_gelu_matches_textbook_expression(dtype):
    # the reference op, with ``mlp``'s GELU kernel
    rng = np.random.default_rng(13)
    x, w, b = _normal(rng, dtype, 64, 64), _normal(rng, dtype, 64, 256, scale=0.2), _normal(rng, dtype, 256)
    g = _normal(rng, dtype, 64, 256)
    pre = x @ w + b[None, :]
    out, slope = _textbook_gelu(pre)
    dpre = g * slope
    expected = _reference_bytes(out, [dpre @ w.T, x.T @ dpre, dpre.sum(axis=0)])
    assert _op_and_grads(linear_gelu, [x, w, b], g) == expected
    # off the tape, the same output
    assert linear_gelu(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data.tobytes() == expected[0]


@pytest.mark.parametrize("dtype", DTYPES)
def test_mlp_matches_textbook_expression(dtype):
    rng = np.random.default_rng(17)
    h = _normal(rng, dtype, 64, 64, scale=3.0)
    gain, bias, b1, b2 = (_normal(rng, dtype, n) for n in (64, 64, 256, 64))
    w1, w2 = _normal(rng, dtype, 64, 256, scale=0.2), _normal(rng, dtype, 256, 64, scale=0.2)
    g = _normal(rng, dtype, 64, 64)
    normed, _ = _textbook_layernorm(h, gain, bias, g)  # the output; its gradients come below
    pre = normed @ w1 + b1[None, :]
    hidden, slope = _textbook_gelu(pre)
    dpre = (g @ w2.T) * slope
    _, (dh, dgain, dbias) = _textbook_layernorm(h, gain, bias, dpre @ w1.T)
    expected = _reference_bytes(
        hidden @ w2 + b2[None, :] + h,
        [g + dh, dgain, dbias, normed.T @ dpre, dpre.sum(axis=0), hidden.T @ g, g.sum(axis=0)],
    )
    arrays = [h, gain, bias, w1, b1, w2, b2]
    assert _op_and_grads(T.mlp, arrays, g) == expected
    # off the tape, the same output
    assert T.mlp(*map(T.Tensor, arrays)).data.tobytes() == expected[0]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(64, 64), (4, 64, 64)])
def test_softmax_matches_textbook_expression(dtype, shape):
    rng = np.random.default_rng(14)
    x, g = _normal(rng, dtype, *shape, scale=4.0), _normal(rng, dtype, *shape)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    expected = _reference_bytes(y, [y * (g - (g * y).sum(axis=-1, keepdims=True))])
    assert _op_and_grads(softmax, [x], g) == expected


@pytest.mark.parametrize("dtype", DTYPES)
def test_sigmoid_matches_textbook_expression(dtype):
    rng = np.random.default_rng(15)
    x, g = _normal(rng, dtype, 64, 192, scale=5.0), _normal(rng, dtype, 64, 192)
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    expected = _reference_bytes(y, [g * y * (1.0 - y)])
    assert _op_and_grads(T.sigmoid, [x], g) == expected


@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_matches_per_head_loop(dtype):
    rng = np.random.default_rng(16)
    heads, n, d = 4, 64, 64
    hd = d // heads
    qkv, w, b = _normal(rng, dtype, n, 3 * d), _normal(rng, dtype, d, d, scale=0.2), _normal(rng, dtype, d)
    scale = float(1.0 / np.sqrt(hd))
    for rows in (None, np.array([9, 3, 40, 41, 63])):  # all query rows, then a few
        queries = slice(None) if rows is None else rows
        r = n if rows is None else len(rows)
        g, residual = _normal(rng, dtype, r, d), _normal(rng, dtype, r, d)
        g_heads = g @ w.T
        outputs, dqkv = [], np.zeros_like(qkv)
        for lo in range(0, d, hd):
            q, k, v = (qkv[:, j * d + lo : j * d + lo + hd] for j in range(3))
            q = q[queries]
            e = (q @ k.T) * scale
            e = np.exp(e - e.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            outputs.append(p @ v)
            g_out = np.array(g_heads[:, lo : lo + hd])
            g_p = g_out @ v.T
            g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * scale
            dqkv[queries, lo : lo + hd] = g_s @ k
            dqkv[:, d + lo : d + lo + hd] = (q.T @ g_s).T
            dqkv[:, 2 * d + lo : 2 * d + lo + hd] = p.T @ g_out
        attended = np.concatenate(outputs, axis=1)
        expected = _reference_bytes(attended @ w + b[None, :] + residual, [dqkv, attended.T @ g, g.sum(axis=0), g])
        op = lambda t, w, b, residual: T.attention(t, heads, rows, w, b, residual)  # noqa: E731
        assert _op_and_grads(op, [qkv, w, b, residual], g) == expected


def _per_tensor(flat, group):
    """Each tensor's view of a flat array laid out like ``group``'s arena."""
    views, lo = {}, 0
    for name, t in group.items():
        views[name] = flat[lo : lo + t.size].reshape(t.shape)
        lo += t.size
    assert lo == flat.size
    return views


def _grad_arena(group, arrays):
    """``arrays`` copied into one gradient arena laid out like ``group``."""
    views = T.new_arena(((name, t.shape) for name, t in group.items()), next(iter(arrays.values())).dtype)
    for name, view in views.items():
        view[...] = arrays[name]
    return views


@pytest.mark.parametrize("dtype", DTYPES)
def test_adamw_matches_textbook_expression_over_60_steps(dtype):
    params = model.init(model.ModelConfig(), seed=0, dtype=dtype)
    group = model.trainable(params, "encoder")
    rng = np.random.default_rng(17)
    grad_sets = [
        _grad_arena(group, {name: _normal(rng, dtype, *t.shape, scale=1e-2) for name, t in group.items()})
        for _ in range(3)
    ]
    state = T.AdamWState(lr=3e-2, eps=1e-1)
    theta = {name: t.data.copy() for name, t in group.items()}
    m = {name: np.zeros_like(a) for name, a in theta.items()}
    v = {name: np.zeros_like(a) for name, a in theta.items()}
    for step in range(1, 61):
        grads = grad_sets[step % 3]
        T.adamw_step(group, grads, state)
        bc1, bc2 = 1.0 - T.ADAM_BETA1**step, 1.0 - T.ADAM_BETA2**step
        for name, g in grads.items():
            m[name] *= T.ADAM_BETA1
            m[name] += (1.0 - T.ADAM_BETA1) * g
            v[name] *= T.ADAM_BETA2
            v[name] += (1.0 - T.ADAM_BETA2) * (g * g)
            theta[name] -= state.lr * ((m[name] / bc1) / (np.sqrt(v[name] / bc2) + state.eps))
    assert [name for name, t in group.items() if t.data.tobytes() != theta[name].tobytes()] == []
    state_m, state_v = _per_tensor(state.m, group), _per_tensor(state.v, group)
    assert [name for name in group if state_m[name].tobytes() != m[name].tobytes()] == []
    assert [name for name in group if state_v[name].tobytes() != v[name].tobytes()] == []


def _arena_group(dtype, sizes, seed):
    """Parameters of the given sizes, random, tiling one arena."""
    rng = np.random.default_rng(seed)
    data = T.new_arena(((f"p{i}", (n,)) for i, n in enumerate(sizes)), dtype)
    for view in data.values():
        view[...] = _normal(rng, dtype, view.size)
    return {name: T.Tensor(view, requires_grad=True) for name, view in data.items()}


def _theta(group):
    """The flat arena ``group``'s data tiles."""
    return T.arena_of(((name, t.data) for name, t in group.items()), "theta")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("sizes", [(5, T.ADAMW_BLOCK - 5), (T.ADAMW_BLOCK, 1), None], ids=["block", "block+1", "tiny"])
def test_adamw_blocks_match_textbook_expression(dtype, sizes):
    if sizes is None:  # less than one block
        group = model.trainable(model.init(TINY_CONFIG, seed=0, dtype=dtype), "all")
        assert sum(t.size for t in group.values()) < T.ADAMW_BLOCK
    else:
        group = _arena_group(dtype, sizes, seed=5)
    rng = np.random.default_rng(18)
    grad_sets = [
        _grad_arena(group, {name: _normal(rng, dtype, *t.shape, scale=1e-2) for name, t in group.items()})
        for _ in range(3)
    ]
    state = T.AdamWState(lr=3e-2, eps=1e-1)
    theta = _theta(group).copy()
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for step in range(1, 7):
        grads = grad_sets[step % 3]
        T.adamw_step(group, grads, state)
        g = T.arena_of(((name, grads[name]) for name in group), "grads")
        bc1, bc2 = 1.0 - T.ADAM_BETA1**step, 1.0 - T.ADAM_BETA2**step
        m *= T.ADAM_BETA1
        m += (1.0 - T.ADAM_BETA1) * g
        v *= T.ADAM_BETA2
        v += (1.0 - T.ADAM_BETA2) * (g * g)
        theta -= state.lr * ((m / bc1) / (np.sqrt(v / bc2) + state.eps))
    assert _theta(group).tobytes() == theta.tobytes()
    assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


def _worker_step(group, grads, state, worker):
    """One ``adamw_step`` through ``worker``, with the gradients handed over
    as backward would: the tensors from the arena's end down."""
    for name in reversed(list(group)):
        group[name].grad_buffer[...] = grads[name]
        worker.finished(group[name])
    T.adamw_step(group, {name: t.grad_buffer for name, t in group.items()}, state)


def test_adamw_worker_gives_the_in_process_bits_and_refuses_a_step_after_a_nan():
    sizes = (T.ADAMW_RUN - 3, 7, T.ADAMW_BLOCK + 5, 2 * T.ADAMW_RUN, 11)  # runs that cross blocks, and a rest
    group, reference = (_arena_group(np.float32, sizes, seed=7) for _ in range(2))
    views = T.new_arena(((name, t.shape) for name, t in group.items()), np.float32)
    for name, t in group.items():
        t.grad_buffer = views[name]
    rng = np.random.default_rng(20)
    grad_sets = [{name: _normal(rng, np.float32, *t.shape, scale=1e-2) for name, t in group.items()} for _ in range(3)]
    state, reference_state = T.AdamWState(lr=3e-2, eps=1e-1), T.AdamWState(lr=3e-2, eps=1e-1)
    worker = T.AdamWWorker(group, state)
    try:
        for step in range(4):
            _worker_step(group, grad_sets[step % 3], state, worker)
            T.adamw_step(reference, _grad_arena(reference, grad_sets[step % 3]), reference_state)
            assert _theta(group).tobytes() == _theta(reference).tobytes()
        assert state.t == 4 and state.m is None
        before = _theta(group).tobytes()
        grad_sets[0]["p3"][5] = np.nan
        with pytest.raises(FloatingPointError, match=r"^adamw_step: non-finite gradient for 'p3'$"):
            _worker_step(group, grad_sets[0], state, worker)
        assert _theta(group).tobytes() == before and state.t == 4
        with pytest.raises(RuntimeError, match="^adamw_step: a step with a non-finite gradient moved the AdamW worker's moments$"):
            _worker_step(group, grad_sets[1], state, worker)
    finally:
        worker.close()


def test_an_error_in_the_adamw_worker_is_named(monkeypatch):
    def broken_update(*args):
        raise ValueError("no update here")

    monkeypatch.setattr(T, "_adam_update", broken_update)  # in the worker's memory too: it is forked after this
    group = model.trainable(model.init(TINY_CONFIG, seed=0), "all")
    state = T.AdamWState(lr=0.1)
    worker = T.AdamWWorker(group, state)
    try:
        with pytest.raises(RuntimeError, match="^adamw_step: the AdamW worker failed: ValueError: no update here$"):
            T.adamw_step(group, {name: t.grad_buffer for name, t in group.items()}, state)
    finally:
        worker.close()


def test_adamw_worker_needs_a_shared_gradient_arena():
    group = {"p": T.Tensor(arr(1.0, 2.0), requires_grad=True)}
    group["p"].grad_buffer = np.zeros(2)
    with pytest.raises(ValueError, match=r"^AdamWWorker: the gradient buffers are not a shared arena \(new_arena\)$"):
        T.AdamWWorker(group, T.AdamWState(lr=0.1))


def test_adamw_nan_in_the_last_block_changes_nothing():
    group = _arena_group(np.float32, (T.ADAMW_BLOCK, T.ADAMW_BLOCK, 9), seed=6)
    rng = np.random.default_rng(19)
    grads = _grad_arena(group, {name: _normal(rng, np.float32, *t.shape) for name, t in group.items()})
    state = T.AdamWState(lr=1e-2)
    T.adamw_step(group, grads, state)
    before = (_theta(group).tobytes(), state.m.tobytes(), state.v.tobytes(), state.t)
    grads["p2"][-1] = np.nan
    with pytest.raises(FloatingPointError, match=r"^adamw_step: non-finite gradient for 'p2'$"):
        T.adamw_step(group, grads, state)
    assert (_theta(group).tobytes(), state.m.tobytes(), state.v.tobytes(), state.t) == before


# ---------------------------------------------------------------------------
# erf against scipy.special.erf, bit for bit
# ---------------------------------------------------------------------------


def _assert_erf_matches_scipy(x):
    ours, theirs = T._erf(x), erf(x)
    assert ours.dtype == theirs.dtype == x.dtype
    nan = np.isnan(theirs)
    assert np.array_equal(np.isnan(ours), nan)
    assert ours[~nan].tobytes() == theirs[~nan].tobytes()


def test_erf_matches_scipy_on_every_float32_from_1_to_8():
    """The erfc branch, and the cap at 8, on every float32 it serves."""
    lo, hi = (int(np.array(v, np.float32).view(np.int32)) for v in (1.0, 8.0))
    chunk = 1 << 21
    for start in range(lo, hi, chunk):
        x = np.arange(start, min(start + chunk, hi), dtype=np.int32).view(np.float32)
        _assert_erf_matches_scipy(x)
        _assert_erf_matches_scipy(-x)


def test_erf_matches_scipy_on_float32_below_1_and_special_values():
    x = np.arange(0, int(np.array(1.0, np.float32).view(np.int32)), 251, dtype=np.int32).view(np.float32)
    _assert_erf_matches_scipy(np.concatenate([x, -x]))
    big = np.finfo(np.float32).max
    special = [0.0, -0.0, 1.0, -1.0, 6.0, 8.0, 1e30, -1e30, big, -big, np.inf, -np.inf, np.nan]
    _assert_erf_matches_scipy(np.array(special, np.float32))
    _assert_erf_matches_scipy(np.array([[0.5, np.nan], [2.0, -3.0]], np.float32).T)  # NaN among |x| > 1, not contiguous
    assert T._erf(np.zeros((0, 4), np.float32)).shape == (0, 4)


@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0, 30.0])
def test_erf_matches_scipy_on_float64(scale):
    x = np.random.default_rng(int(scale * 10)).standard_normal(100_000) * scale
    _assert_erf_matches_scipy(x)
    _assert_erf_matches_scipy(np.array([0.0, -0.0, 1.0, -1.0, 1e300, -np.inf, np.inf, np.nan]))


# ---------------------------------------------------------------------------
# smooth-L1
# ---------------------------------------------------------------------------


def test_smooth_l1_exact_values():
    target = T.Tensor(arr(0.0))
    assert T.smooth_l1(T.Tensor(arr(0.0)), target).item() == pytest.approx(0.0, abs=1e-12)
    assert T.smooth_l1(T.Tensor(arr(0.5)), target).item() == pytest.approx(0.125, abs=1e-12)
    assert T.smooth_l1(T.Tensor(arr(2.0)), target).item() == pytest.approx(1.5, abs=1e-12)


def test_smooth_l1_continuous_at_branch_point():
    target = T.Tensor(arr(0.0))
    below = T.smooth_l1(T.Tensor(arr(1.0 - 1e-9)), target).item()
    above = T.smooth_l1(T.Tensor(arr(1.0 + 1e-9)), target).item()
    assert abs(above - below) < 1e-8


def test_smooth_l1_c1_at_branch_point():
    # one-sided derivatives at |d| = 1 agree
    def grad_at(d):
        p = T.parameter(arr(d))
        T.smooth_l1(p, T.Tensor(arr(0.0))).backward()
        return p.grad[0]

    assert abs(grad_at(1.0 - 1e-9) - grad_at(1.0 + 1e-9)) < 1e-8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8))
def test_smooth_l1_nonnegative(values):
    pred = T.Tensor(np.array(values))
    assert T.smooth_l1(pred, T.Tensor(np.zeros(len(values)))).item() >= 0.0


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def _scalar_state(lr):
    return T.AdamWState(lr=lr)


def test_adamw_hand_derived_first_step():
    theta = T.Tensor(arr(1.0), requires_grad=True)
    state = _scalar_state(lr=0.1)
    T.adamw_step({"p": theta}, {"p": arr(1.0)}, state)
    # m=0.1, v=0.001, m_hat=1, v_hat=1 -> theta = 1 - 0.1/(1+1e-8)
    assert abs(theta.data[0] - 0.9) < 1e-7
    assert state.t == 1
    assert np.allclose(_per_tensor(state.m, {"p": theta})["p"], 0.1)
    assert np.allclose(_per_tensor(state.v, {"p": theta})["p"], 0.001)


def test_adamw_zero_gradient_is_identity():
    theta = T.Tensor(arr(1.25, -3.5), requires_grad=True)
    before = theta.data.copy()
    T.adamw_step({"p": theta}, {"p": np.zeros(2)}, _scalar_state(lr=0.1))
    assert np.array_equal(theta.data, before)


@pytest.mark.parametrize("lr", [-0.1, float("nan"), float("inf")])
def test_adamw_rejects_bad_lr_before_touching_state(lr):
    theta = T.Tensor(arr(1.0), requires_grad=True)
    state = _scalar_state(lr=lr)
    with pytest.raises(ValueError, match="adamw_step: lr must be finite and nonnegative"):
        T.adamw_step({"p": theta}, {"p": arr(1.0)}, state)
    assert state.t == 0 and theta.data[0] == 1.0


def test_adamw_lr_zero_is_identity():
    rng = np.random.default_rng(3)
    theta = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    before = theta.data.copy()
    state = _scalar_state(lr=0.0)
    for _ in range(3):
        T.adamw_step({"p": theta}, {"p": rng.normal(size=(4, 3))}, state)
    assert np.array_equal(theta.data, before)


def _reference_adamw(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent loop-and-scalar implementation for cross-checking."""
    theta = [float(v) for v in theta]
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    for t, g in enumerate(grads, start=1):
        for i in range(len(theta)):
            m[i] = beta1 * m[i] + (1 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1 - beta2) * g[i] * g[i]
            mhat = m[i] / (1 - beta1**t)
            vhat = v[i] / (1 - beta2**t)
            theta[i] -= lr * mhat / (np.sqrt(vhat) + eps)
    return np.array(theta)


def test_adamw_matches_independent_implementation():
    rng = np.random.default_rng(7)
    start = rng.normal(size=5)
    grads = [rng.normal(size=5) for _ in range(10)]

    theta = T.Tensor(start.copy(), requires_grad=True)
    state = _scalar_state(lr=0.01)
    for g in grads:
        T.adamw_step({"p": theta}, {"p": g}, state)

    expected = _reference_adamw(start, grads, lr=0.01)
    assert np.abs(theta.data - expected).max() < 1e-12


def test_adamw_rejects_non_finite_grad_and_bad_shapes():
    theta = T.Tensor(arr(1.0), requires_grad=True)
    with pytest.raises(FloatingPointError):
        T.adamw_step({"p": theta}, {"p": arr(np.inf)}, _scalar_state(lr=0.1))
    with pytest.raises(ValueError, match="shape"):
        T.adamw_step({"p": theta}, {"p": np.zeros(2)}, _scalar_state(lr=0.1))


def test_adamw_t_increments_once_per_step():
    data = T.new_arena([("a", (1,)), ("b", (1,))], np.float64)
    data["a"][...], data["b"][...] = 1.0, 2.0
    params = {name: T.Tensor(a, requires_grad=True) for name, a in data.items()}
    state = _scalar_state(lr=0.1)
    T.adamw_step(params, _grad_arena(params, {"a": arr(0.1), "b": arr(0.2)}), state)
    assert state.t == 1


def test_adamw_names_the_tensor_whose_gradient_is_non_finite():
    params = model.init(TINY_CONFIG, seed=0)
    group = model.trainable(params, "encoder")
    c = TINY_CONFIG.cell_size
    pair, query = tasks.generate(tasks.TaskKind.DENOISE, 1, c), tasks.generate(tasks.TaskKind.DENOISE, 2, c)
    rows = tuning.cycle_rows((pair.input, pair.target), query.input, params.config.patch_size)
    tuning.cycle_loss(params, *rows).backward()
    grads = T.collect_grads(group)
    grads["mask_token"][1] = np.nan  # one value in that tensor's slice of the gradient arena
    state = _scalar_state(lr=0.1)
    before = params.flat.tobytes()
    with pytest.raises(FloatingPointError, match=r"^adamw_step: non-finite gradient for 'mask_token'$"):
        T.adamw_step(group, grads, state)
    assert params.flat.tobytes() == before and state.t == 0


def test_adamw_rejects_tensors_that_are_not_one_arena():
    params = {"a": T.Tensor(arr(1.0), requires_grad=True), "b": T.Tensor(arr(2.0), requires_grad=True)}
    with pytest.raises(ValueError, match=r"^adamw_step: params: 'b' does not start"):
        T.adamw_step(params, {"a": arr(0.1), "b": arr(0.2)}, _scalar_state(lr=0.1))
    arena = {name: T.Tensor(a) for name, a in _grad_arena(params, {"a": arr(1.0), "b": arr(2.0)}).items()}
    with pytest.raises(ValueError, match=r"^adamw_step: grads: 'b' does not start"):
        T.adamw_step(arena, {"a": arr(0.1), "b": arr(0.2)}, _scalar_state(lr=0.1))
