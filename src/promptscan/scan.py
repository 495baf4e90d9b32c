"""Gated diagonal recurrence and everything wrapped around it.

The core primitive runs, per batch row and channel, the scalar
recurrence

    h[0] = 0
    h[t] = a[t] * h[t-1] + b[t] * x[t]
    y[t] = c[t] * h[t]

Nothing mixes channels or batch rows. Rather than taping 3N elementwise
nodes, the scan is one node with a hand-derived adjoint: with G the
cotangent of y and lam[t] = dL/dh[t],

    lam[t] = G[t] * c[t] + lam[t+1] * a[t+1]      (zero past the end)
    dc[t] = G[t] * h[t]
    da[t] = lam[t] * h[t-1]
    db[t] = lam[t] * x[t]
    dx[t] = lam[t] * b[t]

so backward is O(N) like forward. Both directions are the same linear
recurrence h[t] = a[t] * h[t-1] + u[t], the adjoint one run backwards
with a shifted by one, and both are evaluated in chunks (the chunked
form of Mamba-2's SSD, i.e. a two-level prefix scan). The N tokens are
split into m chunks of L = ceil(sqrt(N)) tokens. One pass over the L
positions, vectorised across all chunks, gives every chunk's states
from a zero start together with the running product of a inside the
chunk; m - 1 carry steps then add product * (last state of the previous
chunk). That is about 2 sqrt(N) interpreter steps instead of N. The
scan multiplies decays rather than summing their logs, so exact zeros
in a (an underflowed zoh decay) stay exact and any finite multiplier,
negative or above one, needs no separate path. A decay product that
overflows to a non-finite state although every decay and input is
finite raises ``NumericalConsistencyError`` rather than passing NaN on.

The semantic token order lives inside the same node, so reordering
records no tape nodes of its own. Only the two recurrences run in scan
order: the forward gathers a and b * x with the permutation, and the
vjp a and G * c from the node's parents. Everything else is formed in
token order against the states and adjoints gathered back with the
inverse (y = c * h there, and dx = lam * b, ...), so the node keeps
only h and no scan-order copy of an operand outlives the call.

Causality of the bare recurrence is structural: y[t] never reads x[s]
for s > t, hence dy[t]/dx[s] is exactly zero there. The only way later
tokens influence earlier outputs is through the fused prompt added to
the output gate, which is the point of the whole construction.

On top of the primitive: Mamba's zero-order-hold decay as one node that
keeps only the projection's C timescale channels, the semantic token
ordering, and a gradient-based reach probe used to demonstrate the
causal/non-causal dichotomy. :func:`gated_recurrence` is the one scan
entry point; the module in ``network`` slices its gates out of the
packed projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericalConsistencyError
from .tensor import Tensor, _sigmoid, _softplus, _unbroadcast, astensor


def _linear_scan(a, u):
    """States of h[t] = a[t] * h[t-1] + u[t] along axis 1 of (B, N, C), h[-1] = 0.

    The caller hands over ``a`` and ``u``: when N is a whole number of
    chunks the scan runs in place on them (``a`` ends as running decay
    products, and the states returned are ``u``'s memory); otherwise
    both are copied into padded buffers.
    """
    bsz, n, ch = u.shape
    size = math.isqrt(max(n - 1, 0)) + 1
    m = -(-n // size)
    finite = np.isfinite(a).all() and np.isfinite(u).all()
    if m * size == n:
        prod, h = a, u
    else:
        # padding with a = 1, u = 0 sits after the last token, so it changes nothing
        prod = np.ones((bsz, m * size, ch))
        h = np.zeros((bsz, m * size, ch))
        prod[:, :n] = a
        h[:, :n] = u
    prod = prod.reshape(bsz, m, size, ch)
    h = h.reshape(bsz, m, size, ch)
    for i in range(1, size):
        h[:, :, i] += prod[:, :, i] * h[:, :, i - 1]
        prod[:, :, i] *= prod[:, :, i - 1]
    for j in range(1, m):
        carry = h[:, j - 1, -1:]
        if not carry.all():
            # a zero state carries nothing, also where the decay product
            # overflowed to inf: inf * 0 would be nan
            np.copyto(prod[:, j], 0.0, where=carry == 0.0)
        h[:, j] += prod[:, j] * carry
    h = h.reshape(bsz, m * size, ch)[:, :n]
    if finite and not np.isfinite(h).all():
        raise NumericalConsistencyError(
            "scan states are not finite although the decays and inputs are: "
            "a running product of decays overflowed"
        )
    return h


def _gather(a, idx):
    """out[b, t] = a[b, idx[b, t]]: a per-batch-row gather along axis 1;
    ``a`` itself when ``idx`` is None (no reordering)."""
    if idx is None:
        return a
    return a[np.arange(a.shape[0])[:, None], idx]


def gated_recurrence(x, a, b, c, order: SemanticOrder | None = None) -> Tensor:
    """The raw scan: all operands (B, N, C), returns y of the same shape.

    With an ``order`` the recurrence visits the tokens in the order
    ``order.perm``, and y[:, t] still belongs to input token t: the
    recurrences gather their inputs into scan order and their states
    back, and the node keeps only the scan-order states, the ones
    ``_linear_scan`` returns.
    """
    x, a, b, c = astensor(x), astensor(a), astensor(b), astensor(c)
    if x.ndim != 3:
        raise DimensionError(f"scan expects (B, N, C) operands, got {tuple(x.shape)}")
    for name, t in (("a", a), ("b", b), ("c", c)):
        if t.shape != x.shape:
            raise DimensionError(
                f"scan operand {name} has shape {tuple(t.shape)}, input is {tuple(x.shape)}"
            )
    perm = inv = None
    if order is not None:
        if order.perm.shape != x.shape[:2] or order.inv_perm.shape != x.shape[:2]:
            raise DimensionError(
                f"permutation shape {order.perm.shape} does not match tokens {x.shape[:2]}"
            )
        perm, inv = order.perm, order.inv_perm
    xd, ad, bd, cd = x.data, a.data, b.data, c.data
    # the scan overwrites its inputs, so a is copied even when not gathered
    a_scan = ad.copy() if perm is None else _gather(ad, perm)
    h = _linear_scan(a_scan, _gather(bd * xd, perm))
    del a_scan  # now running decay products, which nothing reads
    y = cd * _gather(h, inv)

    def vjp(g):
        # only the adjoint recurrence runs in scan order; each cotangent is
        # its scan-order product gathered back, formed in token order
        a_next = np.zeros_like(h)
        a_next[:, :-1] = _gather(ad, perm)[:, 1:]
        lam = _linear_scan(a_next[:, ::-1], _gather(g * cd, perm)[:, ::-1])[:, ::-1]
        da = np.zeros_like(lam)
        da[:, 1:] = lam[:, 1:] * h[:, :-1]
        lam = _gather(lam, inv)
        return lam * bd, _gather(da, inv), lam * xd, g * _gather(h, inv)

    return Tensor._from_op(y, (x, a, b, c), vjp)


# -- zero-order-hold decay ---------------------------------------------


def zoh_decay(x_in, c: int, a_log) -> Tensor:
    """Mamba's zero-order-hold decay exp(softplus(x_in[..., :c]) * A), with
    A = -exp(a_log) learned per channel, as one node (Gu & Dao 2023).

    The timescale softplus(.) is positive and A negative, so the decay is
    a state multiplier in (0, 1] that underflows to an exact 0 for large
    timescales. The node keeps a copy of the C-channel slice, not the
    packed projection it came from, plus the decay itself, which the scan
    keeps anyway; the vjp forms the timescale and its sigmoid again from
    the slice. Untracked, the slice is read as a view. Every value and
    gradient is the one the chain index, softplus, exp, neg, mul, exp
    gives: the a_log gradient is -sum(g * a * timescale) * exp(a_log),
    summed over the leading axes.
    """
    x_in, a_log = astensor(x_in), astensor(a_log)
    raw = x_in.data[..., :c]
    if x_in.requires_grad or a_log.requires_grad:
        raw = raw.copy()  # a view would keep the whole projection alive
    ea = np.exp(a_log.data)
    na = -ea
    a = _softplus(raw)
    a *= na
    np.exp(a, out=a)
    shape = x_in.shape

    def vjp(g):
        g = g * a
        gx = np.zeros(shape)
        gx[..., :c] = g * na * _sigmoid(raw)
        return gx, -_unbroadcast(g * _softplus(raw), na.shape) * ea

    return Tensor._from_op(a, (x_in, a_log), vjp)


# the a_log at which the decay is 0.9 at the softplus(0) = ln 2 timescale:
# exp(ln 2 * -exp(a_log)) = 0.9
A_LOG_INIT = float(np.log(-np.log(0.9) / np.log(2.0)))


# -- semantic ordering --------------------------------------------------


@dataclass
class SemanticOrder:
    """A per-batch-row token permutation and its inverse."""

    perm: np.ndarray
    inv_perm: np.ndarray


def semantic_order(route) -> SemanticOrder:
    """Sort tokens by their routed prompt index, ties kept in raster order.

    ``route`` is the one-hot (B, N, T) routing matrix; grouping tokens
    that chose the same prompt makes the scan visit semantically related
    tokens consecutively regardless of where they sit on the grid.
    """
    data = route.data if isinstance(route, Tensor) else np.asarray(route)
    if data.ndim != 3:
        raise DimensionError(f"routing matrix must be (B, N, T), got {data.shape}")
    is_binary = np.all((data == 0.0) | (data == 1.0))
    if not is_binary or not np.allclose(data.sum(axis=-1), 1.0):
        raise ContractError("semantic_order needs one-hot routing rows")
    keys = np.argmax(data, axis=-1)
    perm = np.argsort(keys, axis=-1, kind="stable")
    inv_perm = np.argsort(perm, axis=-1)
    return SemanticOrder(perm=perm, inv_perm=inv_perm)


# -- reach probe ----------------------------------------------------------


def causal_reach(model_fn, x0: np.ndarray, probe_index: int) -> np.ndarray:
    """Gradient magnitude of output token ``probe_index`` w.r.t. every input token.

    ``model_fn`` maps a (B, N, C) tensor to a (B, N, C) tensor; reach[s]
    is the Frobenius norm of the Jacobian block d y[0, probe] / d x[0, s],
    assembled from one backward pass per output channel. Exact zeros in
    the result are structural, not rounding.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 3:
        raise DimensionError(f"probe input must be (B, N, C), got {x0.shape}")
    n = x0.shape[1]
    if not 0 <= probe_index < n:
        raise ContractError(f"probe index {probe_index} outside 0..{n - 1}")
    first = model_fn(Tensor(x0.copy()))
    if first.ndim != 3 or first.shape[:2] != x0.shape[:2]:
        raise DimensionError(
            f"model_fn changed token layout: {tuple(first.shape)} from {x0.shape}"
        )
    acc = np.zeros(n)
    for c in range(first.shape[2]):
        x = Tensor(x0.copy(), requires_grad=True)
        y = model_fn(x)
        y[(0, probe_index, c)].backward()
        acc += (x.grad[0] ** 2).sum(axis=-1)
    return np.sqrt(acc)
