"""A tour of the tensor engine.

The package carries its own reverse-mode autodiff over numpy arrays.
This script builds a few graphs, pulls gradients back through them, and
cross-checks one against central finite differences, which is the same
procedure the bundled gradient suite applies to every operation.

Run from the repository root:

    python3 demos/01_autodiff.py
"""

import numpy as np

from promptscan.tensor import Tensor, matmul, tsum

rng = np.random.default_rng(0)

# A Tensor wraps a float64 array. Operations record their inputs and a
# vector-Jacobian closure; calling backward() on a scalar walks the
# graph in reverse topological order and accumulates .grad on leaves.
x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

y = matmul(x, w)
loss = tsum(y * y)
loss.backward()

print("loss:", float(loss.data))
print("x.grad shape:", x.grad.shape, " w.grad shape:", w.grad.shape)

# The analytic gradient of sum((x@w)^2) wrt w is 2 * x^T (x@w). Check it.
manual = 2.0 * x.data.T @ (x.data @ w.data)
print("matches closed form:", np.allclose(w.grad, manual, atol=1e-12))

# Finite differences see the same thing. Bump one weight entry both
# ways, re-run the forward, and compare the slope to the stored grad.
def f(wdata):
    return float(np.sum((x.data @ wdata) ** 2))

h = 1e-6
bumped = w.data.copy()
bumped[1, 0] += h
up = f(bumped)
bumped[1, 0] -= 2 * h
dn = f(bumped)
fd = (up - dn) / (2 * h)
print(f"w[1,0]: analytic {w.grad[1, 0]:+.8f}  finite-diff {fd:+.8f}")

# Broadcasting works the way numpy broadcasts, and the backward pass
# sums gradients over the broadcast axes so shapes always line up.
a = Tensor(np.ones((3, 1)), requires_grad=True)
b = Tensor(np.ones((1, 4)), requires_grad=True)
tsum(a * b).backward()
print("broadcast grads:", a.grad.ravel(), b.grad.ravel())

# Only scalars seed a backward pass. Anything else is a contract error,
# which keeps silent shape bugs from producing garbage gradients.
try:
    matmul(x, w).backward()
except Exception as e:
    print("non-scalar backward rejected:", type(e).__name__)
