"""Tour of the tensor library: forward ops, backward, and a finite-difference check.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from vict import tensor as T
from vict.gradcheck import finite_diff_grad, rel_error

# A scalar loss built from a few ops: loss = sum(h ** 2), where h is a
# transformer block's MLP branch, h = x + gelu(norm(x) @ W1 + b1) @ W2 + b2
rng = np.random.default_rng(0)
x = T.parameter(rng.normal(size=(4, 6)))
gain, bias = T.parameter(np.ones(6)), T.parameter(np.zeros(6))
w1, b1 = T.parameter(rng.normal(size=(6, 8)) * 0.5), T.parameter(np.zeros(8))
w2, b2 = T.parameter(rng.normal(size=(8, 6)) * 0.5), T.parameter(np.zeros(6))

h = T.mlp(x, gain, bias, w1, b1, w2, b2)  # one node: norm, linear, gelu, linear, residual add
loss = T.tsum(T.mul(h, h))
print(f"loss = {loss.item():.6f}")

loss.backward()
print(f"grad shapes: x {x.grad.shape}, w1 {w1.grad.shape}, w2 {w2.grad.shape}")

# Same gradient by central finite differences.
def loss_value():
    h = T.mlp(x, gain, bias, w1, b1, w2, b2)
    return T.tsum(T.mul(h, h)).item()

numeric = finite_diff_grad(loss_value, w1.data)
print(f"max relative error vs finite differences: {rel_error(w1.grad, numeric):.2e}")

# Gradients accumulate until cleared.
first = x.grad.copy()
loss2 = T.tsum(T.mul(T.linear(x, w1, b1), T.linear(x, w1, b1)))
loss2.backward()
print(f"accumulated: {not np.allclose(x.grad, first)}")
T.zero_grads([x, gain, bias, w1, b1, w2, b2])

# The smooth-L1 loss behind all training in this package.
pred = T.parameter(np.array([0.0, 0.5, 2.0]))
target = T.constant(np.zeros(3))
print(f"smooth_l1 per-branch values: {T.smooth_l1(pred, target).item():.6f} (mean of 0, 0.125, 1.5)")

# One AdamW step on a scalar: theta 1.0 -> ~0.9 with lr=0.1.
theta = T.parameter(np.array([1.0]))
state = T.AdamWState(lr=0.1)
T.adamw_step({"theta": theta}, {"theta": np.array([1.0])}, state)
print(f"adamw: theta after one unit-gradient step = {theta.data[0]:.9f}")
