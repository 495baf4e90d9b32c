import math

import numpy as np
import pytest

from promptscan.errors import ContractError, DimensionError, NumericalConsistencyError
from promptscan.network import asf_ssm_forward, build_model, desk_config
from promptscan.scan import (
    A_LOG_INIT,
    SemanticOrder,
    gated_recurrence,
    semantic_order,
    zoh_decay,
)
from promptscan.tensor import Tensor

from oracles import exp, neg, softplus


def recurrence_oracle(x, a, b, c):
    """Scalar-by-scalar python-float recurrence, the slowest possible way."""
    bsz, n, ch = x.shape
    y = np.zeros_like(x)
    for bi in range(bsz):
        for ci in range(ch):
            h = 0.0
            for t in range(n):
                h = float(a[bi, t, ci]) * h + float(b[bi, t, ci]) * float(x[bi, t, ci])
                y[bi, t, ci] = float(c[bi, t, ci]) * h
    return y


def test_recurrence_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    shape = (2, 9, 4)
    x, b, c = rng.standard_normal((3,) + shape)
    a = rng.uniform(-0.99, 0.99, shape)
    out = gated_recurrence(Tensor(x), Tensor(a), Tensor(b), Tensor(c)).data
    assert np.max(np.abs(out - recurrence_oracle(x, a, b, c))) <= 1e-14


def sequential_adjoint(x, a, b, c, g):
    """Token-by-token reverse sweep of the scan's adjoint: (dx, da, db, dc)."""
    bsz, n, ch = x.shape
    h = np.empty_like(x)
    prev = np.zeros((bsz, ch))
    for t in range(n):
        prev = a[:, t] * prev + b[:, t] * x[:, t]
        h[:, t] = prev
    lam = np.zeros((bsz, ch))
    dx, da, db = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for t in range(n - 1, -1, -1):
        lam = g[:, t] * c[:, t] + lam
        da[:, t] = lam * (h[:, t - 1] if t > 0 else 0.0)
        db[:, t] = lam * x[:, t]
        dx[:, t] = lam * b[:, t]
        lam = lam * a[:, t]
    return dx, da, db, g * h


@pytest.mark.parametrize(
    "n,low",
    [(1, 0.0), (2, 0.0), (2, -0.99), (4099, 0.0), (4099, -0.99)],
)
def test_recurrence_matches_scalar_oracle_across_chunks(n, low):
    # 4099 is not a perfect square, so the last chunk is padded
    rng = np.random.default_rng(n)
    shape = (2, n, 2)
    x, b, c = rng.standard_normal((3,) + shape)
    a = rng.uniform(low, 0.99, shape)
    ref = recurrence_oracle(x, a, b, c)
    out = gated_recurrence(Tensor(x), Tensor(a), Tensor(b), Tensor(c)).data
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_recurrence_with_exact_zero_decays(module_stages):
    rng = np.random.default_rng(6)
    shape = (2, 40, 3)
    x, b, c = rng.standard_normal((3,) + shape)
    a = rng.uniform(0.5, 0.99, shape)
    a[rng.uniform(size=shape) < 0.2] = 0.0
    a[:, [0, 7, 13, 14]] = 0.0
    ref = recurrence_oracle(x, a, b, c)
    out = gated_recurrence(Tensor(x), Tensor(a), Tensor(b), Tensor(c)).data
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
    # a zero decay restarts the state from the current input alone
    np.testing.assert_array_equal(module_stages["h"][a == 0.0], (b * x)[a == 0.0])


def test_recurrence_vjp_matches_sequential_adjoint():
    rng = np.random.default_rng(7)
    shape = (2, 300, 3)
    x, b, c, g = rng.standard_normal((4,) + shape)
    a = rng.uniform(-0.99, 0.99, shape)
    leaves = [Tensor(v, requires_grad=True) for v in (x, a, b, c)]
    (gated_recurrence(*leaves) * Tensor(g)).sum().backward()
    for leaf, ref in zip(leaves, sequential_adjoint(x, a, b, c, g)):
        assert np.max(np.abs(leaf.grad - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_zero_state_carries_no_overflowed_decay_product():
    # finite multipliers this large overflow a chunk's decay product to
    # inf; the states before the last token are exactly 0 and must stay so
    n = 100
    a = np.full((1, n, 1), -1e40)
    x, b, c = np.zeros((1, n, 1)), np.ones((1, n, 1)), np.ones((1, n, 1))
    x[0, -1] = 1.0
    g = np.zeros((1, n, 1))
    g[0, 0] = 1.0  # the adjoint's states are 0 until its last step too
    leaves = [Tensor(v, requires_grad=True) for v in (x, a, b, c)]
    with np.errstate(over="ignore"):
        y = gated_recurrence(*leaves)
        (y * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(y.data, recurrence_oracle(x, a, b, c))
    np.testing.assert_array_equal(y.data[0, -3:, 0], [0.0, 0.0, 1.0])
    for leaf, ref in zip(leaves, sequential_adjoint(x, a, b, c, g)):
        assert not np.any(np.isnan(leaf.grad))
        np.testing.assert_array_equal(leaf.grad, ref)


def test_overflowed_decay_product_raises_instead_of_nan():
    # chunks of 3: the product 1e200 * 1e200 overflows to inf and the
    # exact zero after it makes inf * 0 = nan, where the token loop gives
    # [..., 2.5e-101, 2.5e99, 0, 0, 0, 0]
    n = 9
    a = np.full((1, n, 1), 0.5)
    a[0, 3:6, 0] = [1e200, 1e200, 0.0]
    x, b, c = np.zeros((1, n, 1)), np.ones((1, n, 1)), np.ones((1, n, 1))
    x[0, 0] = 1e-300
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalConsistencyError, match="overflow"):
            gated_recurrence(Tensor(x), Tensor(a), Tensor(b), Tensor(c))


def test_non_finite_input_reaches_the_states_without_the_overflow_error():
    # 9 tokens are whole chunks, so the scan runs in place on its copies;
    # the inputs' finiteness is taken before they are overwritten
    a = np.full((1, 9, 1), 0.5)
    a[0, 4, 0] = np.nan
    x, b, c = np.ones((3, 1, 9, 1))
    y = gated_recurrence(Tensor(x), Tensor(a), Tensor(b), Tensor(c)).data
    assert np.isnan(y[0, 4:, 0]).all() and np.isfinite(y[0, :4, 0]).all()


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("n", [16, 17])
def test_scan_leaves_its_operands_untouched(ordered, n):
    rng = np.random.default_rng(n)
    shape = (2, n, 3)
    x, b, c, g = rng.standard_normal((4,) + shape)
    a = rng.uniform(-0.99, 0.99, shape)
    perm = np.stack([rng.permutation(n) for _ in range(2)])
    order = SemanticOrder(perm=perm, inv_perm=np.argsort(perm, axis=-1)) if ordered else None
    leaves = [Tensor(v.copy(), requires_grad=True) for v in (x, a, b, c)]
    (gated_recurrence(*leaves, order=order) * Tensor(g)).sum().backward()
    for leaf, v in zip(leaves, (x, a, b, c)):
        np.testing.assert_array_equal(leaf.data, v)


def test_untracked_ordered_scan_holds_three_token_arrays(traced_peak):
    """(1, 4096, 32): the scan-order copies of a and b * x are the scan's
    buffers, so the call peaks at them plus the output. Copying both into
    padded buffers peaked at 4.1 arrays."""
    rng = np.random.default_rng(9)
    shape = (1, 4096, 32)
    x, b, c = (Tensor(v) for v in rng.standard_normal((3,) + shape))
    a = Tensor(rng.uniform(0.0, 0.99, shape))
    perm = rng.permutation(4096)[None]
    order = SemanticOrder(perm=perm, inv_perm=np.argsort(perm, axis=-1))
    _, peak = traced_peak(lambda: gated_recurrence(x, a, b, c, order=order))
    assert peak <= 3.25 * x.data.nbytes, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("t0", [1, 8, 27, 35, 49])
def test_zero_decay_cuts_every_earlier_gradient(t0):
    # N = 50 runs in chunks of 8: t0 covers chunk starts, middles and the end
    rng = np.random.default_rng(t0)
    shape = (2, 50, 3)
    b, c, w = rng.standard_normal((3,) + shape)
    a = rng.uniform(0.9, 0.99, shape)
    a[:, t0] = 0.0
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    y = gated_recurrence(x, Tensor(a), Tensor(b), Tensor(c))
    (y * Tensor(w))[:, t0:].sum().backward()
    assert np.all(x.grad[:, :t0] == 0.0)
    assert np.all(x.grad[:, t0:] != 0.0)


def test_trace_records_state_trajectory(module_stages):
    rng = np.random.default_rng(1)
    shape = (1, 5, 2)
    x, b, c = rng.standard_normal((3,) + shape)
    a = rng.uniform(-0.9, 0.9, shape)
    out = gated_recurrence(Tensor(x), Tensor(a), Tensor(b), Tensor(c)).data
    h = module_stages["h"]
    assert h.shape == shape
    np.testing.assert_allclose(c * h, out, atol=0)
    # replaying the recurrence from the stored states must be consistent
    for t in range(1, 5):
        np.testing.assert_allclose(
            h[:, t], a[:, t] * h[:, t - 1] + b[:, t] * x[:, t], atol=1e-15
        )


def test_identity_order_is_causal_exact_zeros():
    rng = np.random.default_rng(2)
    shape = (1, 6, 3)
    a = rng.uniform(-0.9, 0.9, shape)
    b, c = rng.standard_normal((2,) + shape)
    for t in range(6):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        y = gated_recurrence(x, Tensor(a), Tensor(b), Tensor(c) + Tensor(np.zeros(shape)))
        y[(0, t)].sum().backward()
        assert np.all(x.grad[0, t + 1 :] == 0.0)
        # and the diagonal itself is live
        assert np.any(x.grad[0, t] != 0.0)


def test_semantic_order_from_routing_keys():
    # keys [2,0,1,0,2] sort stably to positions [1,3,2,0,4]
    route = np.zeros((1, 5, 3))
    for i, k in enumerate([2, 0, 1, 0, 2]):
        route[0, i, k] = 1.0
    order = semantic_order(Tensor(route))
    np.testing.assert_array_equal(order.perm[0], [1, 3, 2, 0, 4])
    np.testing.assert_array_equal(order.perm[0][order.inv_perm[0]], np.arange(5))


def test_semantic_order_rejects_soft_routes():
    route = np.full((1, 4, 2), 0.5)
    with pytest.raises(ContractError):
        semantic_order(Tensor(route))


def test_ordered_scan_equals_oracle_on_permuted_sequence():
    rng = np.random.default_rng(3)
    shape = (2, 7, 3)
    x, b, c, pf = rng.standard_normal((4,) + shape)
    a = rng.uniform(-0.95, 0.95, shape)
    perm = np.stack([rng.permutation(7) for _ in range(2)])
    order = SemanticOrder(perm=perm, inv_perm=np.argsort(perm, axis=-1))

    c_s = Tensor(c) + Tensor(pf)
    out = gated_recurrence(Tensor(x), Tensor(a), Tensor(b), c_s, order=order).data

    ref = np.zeros(shape)
    for bi in range(2):
        pm = perm[bi]
        ys = recurrence_oracle(
            x[bi : bi + 1, pm], a[bi : bi + 1, pm], b[bi : bi + 1, pm],
            (c + pf)[bi : bi + 1, pm],
        )
        ref[bi, pm] = ys[0]
    assert np.max(np.abs(out - ref)) <= 1e-14


def test_hard_order_scan_is_one_node_matching_gather_oracle():
    rng = np.random.default_rng(4)
    shape = (3, 10, 2)
    x0, b0, c0, pf0, g = rng.standard_normal((5,) + shape)
    a0 = rng.uniform(-0.95, 0.95, shape)
    perm = np.stack([rng.permutation(10) for _ in range(3)])
    inv = np.argsort(perm, axis=-1)
    rows = np.arange(3)[:, None]
    x, a, b, cr, pf = (Tensor(v, requires_grad=True) for v in (x0, a0, b0, c0, pf0))
    y = gated_recurrence(x, a, b, cr + pf, order=SemanticOrder(perm=perm, inv_perm=inv))
    assert len(y._parents) == 4
    assert all(p is q for p, q in zip(y._parents[:3], (x, a, b)))
    c_s = y._parents[3]
    assert c_s._parents[0] is cr and c_s._parents[1] is pf
    (y * Tensor(g)).sum().backward()

    # oracle: gather with numpy, scan in order, scatter back with numpy
    leaves = [Tensor(v[rows, perm], requires_grad=True) for v in (x0, a0, b0, c0 + pf0)]
    ys = gated_recurrence(*leaves)
    (ys * Tensor(g[rows, perm])).sum().backward()
    assert y.data.tobytes() == ys.data[rows, inv].tobytes()
    for got, leaf in zip((x, a, b, cr, pf), leaves + leaves[3:]):
        assert got.grad.tobytes() == leaf.grad[rows, inv].tobytes()


def test_ordered_scan_rejects_wrong_perm_shape():
    good = Tensor(np.zeros((1, 4, 3)))
    perm = np.zeros((1, 3), dtype=int)
    with pytest.raises(DimensionError):
        gated_recurrence(good, good, good, good, order=SemanticOrder(perm=perm, inv_perm=perm))


def test_prompted_scan_checks_operand_shapes():
    shape = (1, 4, 2)
    good = Tensor(np.zeros(shape))
    bad = Tensor(np.zeros((1, 4, 3)))
    with pytest.raises(DimensionError) as err:
        gated_recurrence(good, good, good, bad)
    assert "scan operand c has shape (1, 4, 3)" in str(err.value)


def test_derive_split_layout_oracle():
    rng = np.random.default_rng(4)
    c, t = 3, 4
    raw = rng.standard_normal((2, 5, 3 * c + t))
    a_log = rng.standard_normal(c)
    x_in = Tensor(raw)
    a_decay = zoh_decay(x_in, c, Tensor(a_log))
    b_in, c_raw, logits = x_in[..., c : 2 * c], x_in[..., 2 * c : 3 * c], x_in[..., 3 * c :]

    delta_ref = np.log1p(np.exp(-np.abs(raw[..., :c]))) + np.maximum(raw[..., :c], 0)
    np.testing.assert_array_equal(b_in.data, raw[..., c : 2 * c])
    np.testing.assert_array_equal(c_raw.data, raw[..., 2 * c : 3 * c])
    np.testing.assert_array_equal(logits.data, raw[..., 3 * c :])
    np.testing.assert_allclose(a_decay.data, np.exp(delta_ref * -np.exp(a_log)), atol=1e-12)
    assert np.all(a_decay.data > 0) and np.all(a_decay.data < 1)


def _zoh_chain(x_in, c, a_log):
    """The decay as the six nodes it took: index, softplus, exp, neg, mul, exp."""
    return exp(softplus(x_in[..., :c]) * neg(exp(a_log)))


@pytest.mark.parametrize("layout", [np.array, np.asfortranarray])
def test_zoh_decay_is_one_node_matching_the_chain(layout):
    """The decay and the gradients of x_in and a_log equal the chain's
    bytes and layout, also where the decay is exactly 0 or 1 (timescale
    inputs +-0, +-40, +-800); the node keeps a copy of the slice, never
    a view of the packed projection."""
    rng = np.random.default_rng(9)
    c = 4
    x0 = rng.standard_normal((2, 5, 3 * c)) * 3.0
    x0[0, :2, :c] = np.array([0.0, -0.0, 40.0, -40.0, 800.0, -800.0, 1.0, -1.0]).reshape(2, c)
    a_log0 = rng.standard_normal(c)
    g = rng.standard_normal((2, 5, c))
    results = []
    for fn in (zoh_decay, _zoh_chain):
        x_in = Tensor(layout(x0), requires_grad=True)
        a_log = Tensor(a_log0.copy(), requires_grad=True)
        out = fn(x_in, c, a_log)
        if fn is zoh_decay:
            assert out._parents == (x_in, a_log)
            held = [cell.cell_contents for cell in out._vjp.__closure__]
            held = [a for a in held if isinstance(a, np.ndarray)]
            assert any(a is out.data for a in held)
            assert not any(np.shares_memory(a, x_in.data) for a in held)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, x_in.grad, a_log.grad))
    assert {0.0, 1.0} <= set(results[0][0][0, :2].ravel())
    for got, want in zip(*results):
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.tobytes() == want.tobytes()


def test_derive_rejects_wrong_width():
    cfg = desk_config(channels=3, blocks=1, modules_per_block=1, pool_size=4)
    mp = build_model(cfg).blocks[0].modules[0]
    mp.w_in, mp.b_in = Tensor(np.zeros((3, 7))), Tensor(np.zeros(7))
    with pytest.raises(DimensionError) as err:
        asf_ssm_forward(Tensor(np.zeros((1, 64, 3))), mp, cfg, 8, 8)
    assert "3C+T = 13" in str(err.value)


def test_stable_a_log_init_hits_target_decay_at_zero_input():
    # softplus(0) = ln 2, so the decay at a zero pre-activation is 0.9
    decay = math.exp(math.log(2.0) * -math.exp(A_LOG_INIT))
    assert abs(decay - 0.9) <= 1e-12

