"""Tour of the tensor engine: build a graph, run backward, check gradients.

The engine stores float32 data and accumulates every reduction in float64.
The finite-difference checker evaluates its probes on float64 tensors, which
is what makes the quadratic case tight to ~1e-7.
"""

import numpy as np

from deskclip import tensor as T
from deskclip.errors import ContractError
from deskclip.tensor import Tensor

rng = np.random.default_rng(0)

# -- a tiny graph -------------------------------------------------------------
x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32), requires_grad=True)
w = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
y = T.tsum(T.gelu(T.matmul(x, w)))
T.backward(y)
print("forward value     :", y.item())
print("dL/dx row sums    :", x.grad.sum(axis=1))
print("dL/dw shape       :", w.grad.shape)

# A graph is walked once: backward frees the tape as it goes, so walking y again is an error.
try:
    T.backward(y)
except ContractError as err:
    print("second backward   :", err)

# Leaf gradients accumulate across backward calls until explicitly reset.
T.zero_grads([x, w])
print("after zero_grads  :", x.grad, w.grad)

# -- fan-out accumulates ----------------------------------------------------------
a = Tensor(np.array([1.5]), requires_grad=True)
T.backward(T.tsum(T.add(a, a)))
print("d(a+a)/da         :", a.grad, "(two uses, contributions add)")

# -- finite-difference checks ------------------------------------------------------
quad = T.grad_check(lambda t: T.tsum(T.mul(t, t)), Tensor(rng.standard_normal(8)))
print(f"sum-of-squares    : max rel error {quad:.2e} (exact up to rounding)")

gain = Tensor(rng.standard_normal(6).astype(np.float32))
bias = Tensor(rng.standard_normal(6).astype(np.float32))


def norm_then_sum(t):
    return T.tsum(T.layer_norm(t, Tensor(gain.data, dtype=t.dtype), Tensor(bias.data, dtype=t.dtype)))


ln_err = T.grad_check(norm_then_sum, Tensor(rng.standard_normal((4, 6))))
print(f"layer_norm -> sum : max rel error {ln_err:.2e}")

soft = T.softmax_rows(Tensor(np.array([1000.0, 0.0])))
print("softmax([1000, 0]):", soft.data, "(max subtraction keeps this finite)")
