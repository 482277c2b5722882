"""Tour of the tensor library: forward ops, backward, and a finite-difference check.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from vict import tensor as T
from vict.gradcheck import finite_diff_grad, rel_error

# A scalar loss built from a few ops: loss = sum(gelu(x @ W + b) ** 2)
rng = np.random.default_rng(0)
x = T.parameter(rng.normal(size=(4, 6)))
w = T.parameter(rng.normal(size=(6, 3)) * 0.5)
b = T.parameter(np.zeros(3))

hidden = T.linear_gelu(x, w, b)  # one node: gelu of the affine map
loss = T.tsum(T.mul(hidden, hidden))
print(f"loss = {loss.item():.6f}")

loss.backward()
print(f"grad shapes: x {x.grad.shape}, w {w.grad.shape}, b {b.grad.shape}")

# Same gradient by central finite differences.
def loss_value():
    h = T.linear_gelu(x, w, b)
    return T.tsum(T.mul(h, h)).item()

numeric = finite_diff_grad(loss_value, w.data)
print(f"max relative error vs finite differences: {rel_error(w.grad, numeric):.2e}")

# Gradients accumulate until cleared.
first = x.grad.copy()
loss2 = T.tsum(T.mul(T.linear(x, w, b), T.linear(x, w, b)))
loss2.backward()
print(f"accumulated: {not np.allclose(x.grad, first)}")
T.zero_grads([x, w, b])

# The smooth-L1 loss behind all training in this package.
pred = T.parameter(np.array([0.0, 0.5, 2.0]))
target = T.constant(np.zeros(3))
print(f"smooth_l1 per-branch values: {T.smooth_l1(pred, target).item():.6f} (mean of 0, 0.125, 1.5)")

# One AdamW step on a scalar: theta 1.0 -> ~0.9 with lr=0.1.
theta = T.parameter(np.array([1.0]))
state = T.AdamWState(lr=0.1)
T.adamw_step({"theta": theta}, {"theta": np.array([1.0])}, state)
print(f"adamw: theta after one unit-gradient step = {theta.data[0]:.9f}")
