import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vict import tensor as T
from vict.gradcheck import FD_STEP, TOLERANCE, check_op_gradients, finite_diff_grad, rel_error


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


def test_add_shape_mismatch():
    with pytest.raises(ValueError, match="add"):
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))))


def test_softmax_of_constant_row_is_uniform():
    out = T.softmax(T.Tensor(np.full((2, 5), 3.7)))
    assert np.allclose(out.data, 0.2, atol=1e-12)


def test_layernorm_normalizes_rows():
    x = T.Tensor(arr(1.0, 2.0, 3.0).reshape(1, 3))
    out = T.layernorm(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), eps=1e-12)
    assert abs(out.data.mean()) < 1e-6
    assert abs(out.data.var() - 1.0) < 1e-6


def test_non_finite_output_is_an_error():
    big = T.Tensor(np.full((4,), 1e300))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        T.mul(big, big)


def test_attention_rejects_non_finite_scores():
    # scores [[0, -inf], [0, -inf]]: the softmax alone would map them to a finite [1, 0]
    q = np.array([[1e20], [1e20]], dtype=np.float32)
    k = np.array([[0.0], [-1e20]], dtype=np.float32)
    qkv = T.Tensor(np.concatenate([q, k, np.ones((2, 1), dtype=np.float32)], axis=1))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="attention"):
        T.attention(qkv, 1)


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 6))
    a = T.softmax(T.gelu(T.Tensor(x.copy()))).data
    b = T.softmax(T.gelu(T.Tensor(x.copy()))).data
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
    assert {"linear", "attention"} <= set(results)
    assert {name: err for name, err in results.items() if not err < TOLERANCE} == {}


# ---------------------------------------------------------------------------
# smooth-L1
# ---------------------------------------------------------------------------


def test_smooth_l1_exact_values():
    target = T.Tensor(arr(0.0))
    assert T.smooth_l1(T.Tensor(arr(0.0)), target, 1.0).item() == pytest.approx(0.0, abs=1e-12)
    assert T.smooth_l1(T.Tensor(arr(0.5)), target, 1.0).item() == pytest.approx(0.125, abs=1e-12)
    assert T.smooth_l1(T.Tensor(arr(2.0)), target, 1.0).item() == pytest.approx(1.5, abs=1e-12)


def test_smooth_l1_continuous_at_branch_point():
    target = T.Tensor(arr(0.0))
    below = T.smooth_l1(T.Tensor(arr(1.0 - 1e-9)), target, 1.0).item()
    above = T.smooth_l1(T.Tensor(arr(1.0 + 1e-9)), target, 1.0).item()
    assert abs(above - below) < 1e-8


def test_smooth_l1_c1_at_branch_point():
    # one-sided derivatives at |d| = beta agree
    def grad_at(d):
        p = T.parameter(arr(d))
        T.smooth_l1(p, T.Tensor(arr(0.0)), 1.0).backward()
        return p.grad[0]

    assert abs(grad_at(1.0 - 1e-9) - grad_at(1.0 + 1e-9)) < 1e-8


def test_smooth_l1_rejects_bad_beta():
    a, b = T.Tensor(arr(1.0)), T.Tensor(arr(0.0))
    with pytest.raises(ValueError, match="beta"):
        T.smooth_l1(a, b, 0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8), st.floats(0.05, 2.0))
def test_smooth_l1_nonnegative(values, beta):
    pred = T.Tensor(np.array(values))
    assert T.smooth_l1(pred, T.Tensor(np.zeros(len(values))), beta).item() >= 0.0


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def _scalar_state(lr, wd=0.0):
    return T.AdamWState(lr=lr, weight_decay=wd)


def test_adamw_hand_derived_first_step():
    theta = T.Tensor(arr(1.0), requires_grad=True)
    state = _scalar_state(lr=0.1)
    T.adamw_step({"p": theta}, {"p": arr(1.0)}, state)
    # m=0.1, v=0.001, m_hat=1, v_hat=1 -> theta = 1 - 0.1/(1+1e-8)
    assert abs(theta.data[0] - 0.9) < 1e-7
    assert state.t == 1
    assert np.allclose(state.m["p"], 0.1)
    assert np.allclose(state.v["p"], 0.001)


def test_adamw_zero_gradient_is_identity():
    theta = T.Tensor(arr(1.25, -3.5), requires_grad=True)
    before = theta.data.copy()
    T.adamw_step({"p": theta}, {"p": np.zeros(2)}, _scalar_state(lr=0.1))
    assert np.array_equal(theta.data, before)


def test_adamw_lr_zero_is_identity():
    rng = np.random.default_rng(3)
    theta = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    before = theta.data.copy()
    state = _scalar_state(lr=0.0)
    for _ in range(3):
        T.adamw_step({"p": theta}, {"p": rng.normal(size=(4, 3))}, state)
    assert np.array_equal(theta.data, before)


def _reference_adamw(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
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
            theta[i] -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * theta[i])
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
    theta = T.Tensor(arr(1.0), requires_grad=True)
    other = T.Tensor(arr(2.0), requires_grad=True)
    state = _scalar_state(lr=0.1)
    T.adamw_step({"a": theta, "b": other}, {"a": arr(0.1), "b": arr(0.2)}, state)
    assert state.t == 1
