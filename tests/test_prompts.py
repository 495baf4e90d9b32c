import inspect
import tracemalloc

import numpy as np
import pytest

from promptscan import prompts
from promptscan.errors import ConfigError, ContractError, DimensionError
from promptscan.prompts import (
    GlobalPromptParams,
    PromptPool,
    global_prompt,
    gumbel_noise,
    route_tokens,
)
from promptscan.fft import grid_half_spectrum, unfold_features
from promptscan.tensor import Tensor, matmul, reshape

from oracles import attention, fft2d_hermitian, softmax, spectral_features, transpose


def make_pool(t=4, c=3, seed=0, temperature=1.0):
    rng = np.random.default_rng(seed)
    return PromptPool(
        pool=Tensor(rng.standard_normal((t, c))), temperature=temperature, rng_seed=seed
    )


def test_hard_routes_are_exactly_one_hot():
    pool = make_pool()
    rng = np.random.default_rng(1)
    logits = Tensor(rng.standard_normal((2, 50, 4)))
    route = route_tokens(logits, pool, train_mode=True).data
    assert np.all((route == 0.0) | (route == 1.0))
    np.testing.assert_array_equal(route.sum(axis=-1), np.ones((2, 50)))


def test_eval_routing_is_argmax_without_noise():
    pool = make_pool()
    logits = np.zeros((1, 3, 4))
    logits[0, 0, 2] = 5.0
    logits[0, 1, 0] = 1.0
    logits[0, 2, 3] = 0.5
    route = route_tokens(Tensor(logits), pool, train_mode=False).data
    np.testing.assert_array_equal(np.argmax(route, axis=-1)[0], [2, 0, 3])


def test_identical_seeds_reproduce_identical_routing():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((1, 40, 4))
    r1 = route_tokens(Tensor(logits), make_pool(seed=7), train_mode=True).data
    r2 = route_tokens(Tensor(logits), make_pool(seed=7), train_mode=True).data
    np.testing.assert_array_equal(r1, r2)


def test_straight_through_backward_equals_soft_backward():
    pool = make_pool(seed=3)
    rng = np.random.default_rng(3)
    base = rng.standard_normal((1, 6, 4))
    noise = gumbel_noise((1, 6, 4), rng)
    w = rng.standard_normal((1, 6, 4))

    hard_leaf = Tensor(base.copy(), requires_grad=True)
    hard = route_tokens(hard_leaf, pool, train_mode=True, noise=noise)
    (hard * Tensor(w)).sum().backward()

    soft_leaf = Tensor(base.copy(), requires_grad=True)
    soft = route_tokens(soft_leaf, pool, train_mode=True, route_mode="soft", noise=noise)
    (soft * Tensor(w)).sum().backward()

    np.testing.assert_array_equal(hard_leaf.grad, soft_leaf.grad)


def test_gather_picks_pool_rows():
    pool = make_pool(t=3, c=2)
    route = np.zeros((1, 4, 3))
    keys = [2, 0, 1, 2]
    for i, k in enumerate(keys):
        route[0, i, k] = 1.0
    picked = (Tensor(route) @ pool.pool).data
    np.testing.assert_array_equal(picked[0], pool.pool.data[keys])


def test_routing_parameter_validation():
    pool = make_pool()
    logits = Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(ConfigError):
        route_tokens(logits, make_pool(temperature=0.0), train_mode=False)
    with pytest.raises(ConfigError):
        route_tokens(logits, pool, train_mode=False, route_mode="warm")
    with pytest.raises(DimensionError):
        route_tokens(Tensor(np.zeros((1, 2, 5))), pool, train_mode=False)
    with pytest.raises(ContractError):
        PromptPool(pool=Tensor(np.zeros((1, 3))), temperature=1.0, rng_seed=0)
    with pytest.raises(DimensionError):
        PromptPool(pool=Tensor(np.zeros((4,))), temperature=1.0, rng_seed=0)


def test_global_prompt_matches_hand_oracle():
    """Four tokens on a 2x2 grid, one channel pair, worked by hand."""
    rng = np.random.default_rng(4)
    c, h, w = 2, 2, 2
    x = rng.standard_normal((1, 4, c))
    params = GlobalPromptParams(
        wq=Tensor(rng.standard_normal((2 * c, c))),
        wk=Tensor(rng.standard_normal((2 * c, c))),
        wv=Tensor(rng.standard_normal((2 * c, c))),
    )
    out = global_prompt(Tensor(x), h, w, params).data

    # oracle: per channel, the 2x2 DFT is four +/- sums
    grid = x.reshape(2, 2, c)
    feats = np.zeros((4, 2 * c))
    for ch in range(c):
        g = grid[:, :, ch]
        spec = np.array(
            [
                [g[0, 0] + g[0, 1] + g[1, 0] + g[1, 1], g[0, 0] - g[0, 1] + g[1, 0] - g[1, 1]],
                [g[0, 0] + g[0, 1] - g[1, 0] - g[1, 1], g[0, 0] - g[0, 1] - g[1, 0] + g[1, 1]],
            ],
            dtype=complex,
        )
        feats[:, ch] = spec.real.reshape(4)
        feats[:, c + ch] = spec.imag.reshape(4)
    feats /= 4.0
    q = feats @ params.wq.data
    k = feats @ params.wk.data
    v = feats @ params.wv.data
    scores = q @ k.T / np.sqrt(c)
    attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn /= attn.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out[0], attn @ v, atol=1e-12)


def test_global_prompt_reim_features_keep_the_concat_layout(monkeypatch):
    """The forward takes the grid's rfft once, and [re | im] unfolded
    from it equals concat of the two flattened planes bit for bit."""
    rng = np.random.default_rng(6)
    bsz, h, w, c = 2, 3, 5, 4
    x = Tensor(rng.standard_normal((bsz, h * w, c)))
    params = GlobalPromptParams(*(Tensor(rng.standard_normal((2 * c, c))) for _ in range(3)))
    halves, seen = [], []

    def spy_half(*args):
        halves.append(grid_half_spectrum(*args))
        return halves[-1]

    def spy_unfold(*args):
        seen.append(unfold_features(*args))
        return seen[-1]

    monkeypatch.setattr(prompts, "grid_half_spectrum", spy_half)
    monkeypatch.setattr(prompts, "unfold_features", spy_unfold)
    global_prompt(x, h, w, params)
    assert len(halves) == 1
    rfft = np.fft.rfft2(x.data.reshape(bsz, h, w, c), axes=(1, 2))
    assert halves[0].tobytes() == rfft.tobytes()

    spec = fft2d_hermitian(transpose(reshape(x, (bsz, h, w, c)), (0, 3, 1, 2)))

    def flat(t):
        return reshape(transpose(t, (0, 2, 3, 1)), (bsz, h * w, c))

    old = np.concatenate([flat(spec[..., 0]).data, flat(spec[..., 1]).data], axis=-1) * (
        1.0 / (h * w)
    )
    assert len(seen) == 1
    for feats in seen:
        np.testing.assert_array_equal(feats, old)


def _attention_chain(qkv, w, f, scale):
    """Output and the three gradients of ``sum(f(q, k, v, scale) * w)``."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in qkv]
    out = f(*leaves, scale)
    (out * Tensor(w)).sum().backward()
    return [out.data] + [t.grad for t in leaves]


def _composite_attention(q, k, v, scale):
    return matmul(softmax(matmul(q, transpose(k, (0, 2, 1))) * scale), v)


_ROWS = {"ragged": 5, "single-row": 1, "one-block": 64}
_KEY_TILES = {"": 64, "-ragged-key-tiles": 5, "-single-key-tiles": 1}


@pytest.mark.parametrize(
    "rows, tile",
    [
        pytest.param(rows, tile, id=name + suffix)
        for name, rows in _ROWS.items()
        for suffix, tile in _KEY_TILES.items()
    ],
)
def test_attention_matches_composite_chain(monkeypatch, rows, tile):
    """The tiled node against matmul/softmax/matmul through the engine:
    37 queries in blocks of 5, 1 or all rows, crossed with 37 keys in
    tiles of 5 (the last one ragged), 1 or all keys."""
    bsz, n, d = 2, 37, 3
    monkeypatch.setattr(prompts, "_ATTN_KEY_TILE", tile)
    monkeypatch.setattr(prompts, "_ATTN_BLOCK_ELEMS", rows * min(n, tile))
    rng = np.random.default_rng(6)
    qkv = [rng.standard_normal((bsz, n, d)) for _ in range(3)]
    w = rng.standard_normal((bsz, n, d))
    scale = 1.0 / np.sqrt(d)
    tiled = _attention_chain(qkv, w, attention, scale)
    chain = _attention_chain(qkv, w, _composite_attention, scale)
    for got, want in zip(tiled, chain):
        # relative to the array's scale: single entries can cancel to ~0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _split_cuts(q, k, scale):
    """Per batch element: (light rows, far keys of the largest cut) of the
    chosen split, or None when it has no chunk of light rows."""
    sq = abs(scale) * np.linalg.norm(q, axis=-1)
    kn = np.linalg.norm(k, axis=-1)
    cuts = []
    for b in range(q.shape[0]):
        _, heavy, chunks = prompts._far_split(sq[b], kn[b], k.shape[-1], k.shape[-1])
        cuts.append((q.shape[1] - heavy.size, int(max(c for _, c in chunks))) if chunks else None)
    return cuts


def _near_far_operands(rng, n, c, small=1e-4):
    """(1, n, c) q, k, v: entries of size ``small`` except 5% of the query
    rows and 5% of the keys, a thousand times larger, so that a split
    has heavy rows, near keys, light rows and far keys."""
    q, k = rng.standard_normal((2, 1, n, c)) * small
    q[0, rng.choice(n, n // 20, replace=False)] *= 1e3
    k[0, rng.choice(n, n // 20, replace=False)] *= 1e3
    return q, k, rng.standard_normal((1, n, c))


def test_attention_recomputes_rows_whose_bound_shift_underflows(monkeypatch):
    """Logits up to about +-2000: rows with q orthogonal to the longest keys
    have a norm bound far above their true max, so exp(s - bound) would
    underflow to 0 on the whole row without the exact-max fallback.

    A second case has all-zero keys and one query whose norm overflows,
    so that row's bound is inf * 0 = NaN. Every key tile then adds NaN to
    its total and output, and only a fallback that replaces the tile
    sums, rather than adding to them, gives a finite row. (An underflowed
    row cannot show the difference: its tile sums are below 1e-200.)

    Two more cases take the near/far split (256 small keys and queries at
    C = 4). In the third, one key of norm 1e7 makes the shift of every
    light row about 1000, so the light rows not aligned with it underflow
    in both their near exps and their far series. In the fourth, one
    query and one key have overflowing norms: they must stay heavy and
    near, and the infinite max key norm sends every row to the fallback.
    All cases run with the keys in one tile and in tiles of 10.
    """
    rng = np.random.default_rng(8)
    bsz, n, d = 2, 48, 4
    k = rng.standard_normal((bsz, n, d))
    k[..., 0] = rng.uniform(-2000.0, 2000.0, (bsz, n))
    q = rng.standard_normal((bsz, n, d)) * 0.01
    q[..., 0] = rng.uniform(-2.0, 2.0, (bsz, n))
    q[:, ::3, 0] = 0.0
    q[:, ::3, 1:] = rng.standard_normal((bsz, (n + 2) // 3, d - 1))
    v = rng.standard_normal((bsz, n, d))
    scale = 1.0 / np.sqrt(d)

    logits = scale * q @ k.swapaxes(-1, -2)
    bound = scale * np.linalg.norm(q, axis=-1) * np.linalg.norm(k, axis=-1).max(axis=1)[:, None]
    overshoot = bound - logits.max(axis=-1)
    assert np.abs(logits).max() > 1500.0
    assert (overshoot > 700.0).sum() >= 10
    assert (overshoot < 1.0).sum() >= 10

    w = rng.standard_normal((bsz, n, d))
    q_nan = rng.standard_normal((1, n, d))
    q_nan[0, 5] = 1e160
    k_nan = np.zeros((1, n, d))
    v_nan, w_nan = rng.standard_normal((2, 1, n, d))

    m = 256
    q_far, k_far, v_far = rng.standard_normal((3, 1, m, d)) * 1e-4
    k_far[0, 7] = [1e7, 0.0, 0.0, 0.0]
    w_far = rng.standard_normal((1, m, d))
    cuts = _split_cuts(q_far, k_far, scale)[0]
    assert cuts is not None and cuts[0] > 100
    sq = scale * np.linalg.norm(q_far[0], axis=-1)
    logits = scale * q_far[0] @ k_far[0].T
    overshoot = sq * 1e7 - logits.max(axis=-1)
    assert (overshoot[np.argsort(sq)[: cuts[0]]] > 700.0).sum() >= 10

    # one query along axis 0 and one key along axis 1, which no other
    # key or query touches, so every score stays finite
    q_inf, k_inf = q_far.copy(), k_far.copy()
    q_inf[..., :2] = 0.0
    k_inf[..., 0] = 0.0
    q_inf[0, 3, 0] = 1e160
    k_inf[0, 7] = [0.0, 1e160, 0.0, 0.0]
    # the overflowing norms and inf * 0 are meant here
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(np.linalg.norm(q_nan[0, 5]))
        assert _split_cuts(q_inf, k_inf, scale)[0] is not None
        cases = (
            ((q, k, v), w),
            ((q_nan, k_nan, v_nan), w_nan),
            ((q_far, k_far, v_far), w_far),
            ((q_inf, k_inf, v_far), w_far),
        )
        for qkv, w in cases:
            chain = _attention_chain(qkv, w, _composite_attention, scale)
            for tile in (qkv[1].shape[1], 10):
                monkeypatch.setattr(prompts, "_ATTN_KEY_TILE", tile)
                tiled = _attention_chain(qkv, w, attention, scale)
                for got, want in zip(tiled, chain):
                    assert np.all(np.isfinite(got))
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _long_double_attention(q, k, v, scale):
    """softmax(q k^T * scale) v of one batch element in long double, 256 rows at a time."""
    q, k, v = (np.asarray(a, dtype=np.longdouble) for a in (q, k, v))
    out = np.empty((q.shape[0], v.shape[1]), dtype=np.longdouble)
    for lo in range(0, q.shape[0], 256):
        s = (q[lo : lo + 256] * scale) @ k.T
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        out[lo : lo + 256] = (e @ v) / e.sum(axis=-1, keepdims=True)
    return out


def _tiled_loop(q, k, v, scale):
    """out and lse from the tiled loop over all keys, with no split."""
    sq = abs(scale) * np.linalg.norm(q, axis=-1)
    shift = sq[..., None] * np.linalg.norm(k, axis=-1).max(axis=1)[:, None, None]
    out = np.empty(q.shape[:2] + v.shape[2:])
    total = np.empty(q.shape[:2])
    buf = np.empty(prompts._ATTN_BLOCK_ELEMS)
    rows = prompts._block_shape(q.shape[1], k.shape[1])[0]
    for b in range(q.shape[0]):
        qa, kat = prompts._augment(q[b] * scale, -shift[b]), prompts._augment_t(k[b])
        for blk in (slice(lo, lo + rows) for lo in range(0, q.shape[1], rows)):
            prompts._exact_sums(qa[blk], kat, v[b], buf, out[b, blk], total[b, blk])
    return out / total[..., None], shift + np.log(total)[..., None]


def _out_and_lse(q, k, v, scale):
    """A tracked call's output and the log-sum-exp its vjp keeps."""
    node = attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), scale)
    return node.data, inspect.getclosurevars(node._vjp).nonlocals["lse"]


def test_attention_split_matches_long_double_oracle():
    """(1, 2048, 32), small q and k but for 5% heavy rows and 5% near keys,
    so the forward runs all three parts of the near/far split. Queries
    and keys lie near one direction spanning two axes, the keys' sizes
    are graded and v's first column is their square: so light pairs come
    within 15% of the series' bound, and the quadratic term
    moves the output coherently (without it by 4.0e-13, without the
    halved squares by 2.0e-13, both caught by the bound).

    The output is within 1e-13 * max|v| of a long-double softmax (not of
    max|out|: the columns of v can cancel), and the gradients, from the
    exact vjp through the split's lse, match the composite chain."""
    rng = np.random.default_rng(12)
    n, c = 2048, 32
    direction = np.zeros(c)
    direction[:2] = 4.0
    q, k = (direction + 0.3 * rng.standard_normal((2, 1, n, c))) * 1e-3
    size = rng.uniform(0.0, 1.0, n)
    k *= size[:, None]
    q[0, rng.choice(n, n // 20, replace=False)] *= 1e3
    k[0, rng.choice(n, n // 20, replace=False)] *= 1e3
    v = rng.standard_normal((1, n, c))
    v[0, :, 0] = size**2
    scale = 1.0 / np.sqrt(c)
    ((light, far),) = _split_cuts(q, k, scale)
    assert n // 2 < light < n and n // 2 < far < n
    w = rng.standard_normal((1, n, c))
    got = _attention_chain((q, k, v), w, attention, scale)
    oracle = _long_double_attention(q[0], k[0], v[0], scale)
    assert np.abs(got[0][0] - oracle).max() <= 1e-13 * np.abs(v).max()
    chain = _attention_chain((q, k, v), w, _composite_attention, scale)
    for grad, want in zip(got[1:], chain[1:]):
        assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()


def test_attention_split_chunks_light_rows_with_growing_cuts_within_the_bound():
    """(1, 4096, 32) with graded query and key sizes and 2% heavy rows:
    light rows go in chunks of one score block's rows in order of their
    far-key counts, and each chunk's cut is the least count among its
    rows. So cuts grow from chunk to chunk, every pair a chunk sends
    through the series has its norm bound within t, and the output is
    within 1e-13 * max|v| of the tiled loop's."""
    rng = np.random.default_rng(16)
    n, c = 4096, 32
    q, k = rng.standard_normal((2, 1, n, c)) * rng.uniform(0.0, 8e-3, (2, 1, n, 1))
    q[0, rng.choice(n, n // 50, replace=False)] *= 100.0
    v = rng.standard_normal((1, n, c))
    scale = 1.0 / np.sqrt(c)
    sq = scale * np.linalg.norm(q[0], axis=-1)
    kn = np.linalg.norm(k[0], axis=-1)
    order, heavy, chunks = prompts._far_split(sq, kn, c, c)
    cuts = [cut for _, cut in chunks]
    assert len(set(cuts)) > 5 and cuts == sorted(cuts)
    assert heavy.size >= n // 50
    rows = np.concatenate([heavy] + [r for r, _ in chunks])
    assert np.array_equal(np.sort(rows), np.arange(n))
    for r, cut in chunks:
        assert r.size <= prompts._block_shape(n, n)[0]
        # the certificate is the norm bound, not the score, which is smaller
        assert sq[r].max() * kn[order[:cut]].max() <= prompts._FAR_BOUND
    out, _ = _out_and_lse(q, k, v, scale)
    tiled, _ = _tiled_loop(q, k, v, scale)
    assert np.abs(out - tiled).max() <= 1e-13 * np.abs(v).max()


@pytest.mark.parametrize(
    "shape, size",
    [
        pytest.param((4, 256, 32), 1e-4, id="train-desk"),
        pytest.param((1, 4096, 32), 1.0, id="large-norms"),
    ],
)
def test_attention_runs_the_tiled_loop_when_no_split_pays(shape, size):
    """At N = 256 no light row can repay its moment row, whatever the
    norms; at N = 4096 with unit-size entries no pair is within the
    series' bound. Either way out and lse are the tiled loop's, byte
    for byte."""
    rng = np.random.default_rng(13)
    q, k = rng.standard_normal((2,) + shape) * size
    v = rng.standard_normal(shape)
    scale = 1.0 / np.sqrt(shape[-1])
    assert _split_cuts(q, k, scale) == [None] * shape[0]
    for got, want in zip(_out_and_lse(q, k, v, scale), _tiled_loop(q, k, v, scale)):
        assert got.tobytes() == want.tobytes()


def test_attention_splits_each_batch_element_on_its_own():
    """Each element's output, log-sum-exp and q, k and v gradients come
    out byte for byte as they do alone, whatever the other elements are.
    At (2, 1024, 8) element 0 has small norms and splits and element 1
    has unit norms and does not; at the desk shape (4, 256, 32) none
    splits. An element that does not split gives the tiled loop's
    output, and one that splits is within 1e-13 * max|v| of it."""
    rng = np.random.default_rng(14)
    small, unit = _near_far_operands(rng, 1024, 8), rng.standard_normal((3, 1, 1024, 8))
    cases = (
        ([np.concatenate([a, b]) for a, b in zip(small, unit)], [True, False]),
        (rng.standard_normal((3, 4, 256, 32)), [False] * 4),
    )
    for (q, k, v), cuts in cases:
        w = rng.standard_normal(v.shape)
        scale = 1.0 / np.sqrt(q.shape[-1])
        assert [cut is not None for cut in _split_cuts(q, k, scale)] == cuts
        out, lse = _out_and_lse(q, k, v, scale)
        grads = _attention_chain((q, k, v), w, attention, scale)[1:]
        for b, split in enumerate(cuts):
            one = [a[b : b + 1] for a in (q, k, v)]
            alone = _out_and_lse(*one, scale)
            assert out[b].tobytes() == alone[0][0].tobytes()
            assert lse[b].tobytes() == alone[1][0].tobytes()
            for got, want in zip(grads, _attention_chain(one, w[b : b + 1], attention, scale)[1:]):
                assert got[b].tobytes() == want[0].tobytes()
            tiled = _tiled_loop(*one, scale)
            assert (out[b].tobytes() == tiled[0][0].tobytes()) != split
            assert np.abs(out[b] - tiled[0][0]).max() <= 1e-13 * np.abs(v[b]).max()


def test_attention_score_blocks_do_not_shrink_with_the_batch(monkeypatch):
    """(32, 256, 32): every score block of the forward and the vjp holds
    all 256 query rows of one element, as at batch 1, against one key
    tile, not 2**16 / (32 * 256) = 8 rows."""
    rng = np.random.default_rng(17)
    q, k, v = rng.standard_normal((3, 32, 256, 32))
    shapes = []
    probs = prompts._probs

    def spy(qa_blk, kat_tile, buf):
        e = probs(qa_blk, kat_tile, buf)
        shapes.append(e.shape)
        return e

    monkeypatch.setattr(prompts, "_probs", spy)
    _attention_chain((q, k, v), rng.standard_normal(v.shape), attention, 1.0 / np.sqrt(32))
    # one block per element in the forward and one in the vjp
    assert shapes == [(256, 256)] * 64


def test_attention_split_stays_within_one_score_tile_and_the_augmented_operands(traced_peak):
    """(1, 4096, 32) with the split engaged: the transient peak has the
    same bound as the tiled loop's (see the test below), because all
    three parts share one score-sized buffer and the split builds no
    augmented q."""
    rng = np.random.default_rng(15)
    n, c = 4096, 32
    q, k, v = _near_far_operands(rng, n, c)
    scale = 1.0 / np.sqrt(c)
    assert _split_cuts(q, k, scale)[0] is not None
    q, k, v = Tensor(q), Tensor(k), Tensor(v)
    out, peak = traced_peak(lambda: attention(q, k, v, scale))
    kept = out.data.nbytes + n * 8
    augmented = 2 * n * (c + 1) * 8
    scores = prompts._ATTN_BLOCK_ELEMS * 8
    assert peak - kept <= scores + augmented + 2**19, f"peak {peak / 2**20:.2f} MiB"


def test_attention_score_block_counts_the_batch(traced_peak):
    """(4, 1024, 32): one tile holds at most ``_ATTN_BLOCK_ELEMS`` scores
    (2**16, 512 KiB) over all four images, not that many per image."""
    rng = np.random.default_rng(9)
    bsz, n, c = 4, 1024, 32
    q, k, v = (Tensor(rng.standard_normal((bsz, n, c))) for _ in range(3))
    out, peak = traced_peak(lambda: attention(q, k, v, 1.0 / np.sqrt(c)))
    kept = out.data.nbytes + bsz * n * 8  # out and the per-row log-sum-exp
    augmented = 2 * bsz * n * (c + 1) * 8  # [scale * q, -m] and [k, 1]
    scores = prompts._ATTN_BLOCK_ELEMS * 8
    # slack: row norms, shifts, block totals and numpy's ufunc buffers
    assert peak - kept <= scores + augmented + 2**19, f"peak {peak / 2**20:.2f} MiB"


def test_attention_without_a_split_builds_no_augmented_query_copy(traced_peak):
    """(1, 4096, 32) with unit-size entries, where no split pays: every
    row is heavy and goes through the tiled loop in gathered chunks of
    one score block, so the transient peak holds one score block and
    [k, 1]^T but no [scale * q, -m] of all rows (2.73 MiB while it had
    one, 1.92 MiB without)."""
    rng = np.random.default_rng(18)
    n, c = 4096, 32
    q, k, v = rng.standard_normal((3, 1, n, c))
    scale = 1.0 / np.sqrt(c)
    assert _split_cuts(q, k, scale) == [None]
    q, k, v = Tensor(q), Tensor(k), Tensor(v)
    out, peak = traced_peak(lambda: attention(q, k, v, scale))
    kept = out.data.nbytes + n * 8  # out and the per-row log-sum-exp
    keys = n * (c + 1) * 8  # [k, 1]^T
    scores = prompts._ATTN_BLOCK_ELEMS * 8
    assert peak - kept <= scores + keys + 2**19, f"peak {peak / 2**20:.2f} MiB"


def test_untracked_global_prompt_frees_the_spectrum_before_attention(monkeypatch, traced_peak):
    """(1, 4096, 32): only q, k and v (3 MiB) are live when attention
    starts; the half spectrum (1 MiB) and the features (2 MiB) are
    already freed, and the half died before the q, k and v GEMMs, so
    until attention the peak is the features and q, k and v."""
    rng = np.random.default_rng(11)
    c, h, w = 32, 64, 64
    n = h * w
    x = Tensor(rng.standard_normal((1, n, c)))
    params = GlobalPromptParams(
        *(Tensor(rng.standard_normal((2 * c, c)) * 0.1) for _ in range(3))
    )
    live = []
    forward = prompts._attention_forward

    def spy(*args):
        live.append(tracemalloc.get_traced_memory())
        return forward(*args)

    monkeypatch.setattr(prompts, "_attention_forward", spy)
    _, peak = traced_peak(lambda: global_prompt(x, h, w, params))
    qkv, feats = 3 * n * c * 8, n * 2 * c * 8
    ((live_at, peak_before),) = live
    assert live_at <= qkv + 2**18, f"live at attention {live_at / 2**20:.2f} MiB"
    assert peak_before <= feats + qkv + 2**18, (
        f"peak before attention {peak_before / 2**20:.2f} MiB"
    )
    assert peak <= 9 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _composite_global_prompt(x, h, w, params):
    """The global prompt as the five nodes it took: the features, the
    three projections and attention."""
    feats = spectral_features(x, h, w)
    q, k, v = (matmul(feats, m) for m in (params.wq, params.wk, params.wv))
    return attention(q, k, v, 1.0 / np.sqrt(x.shape[-1]))


@pytest.mark.parametrize(
    "bsz, h, w, c",
    [
        pytest.param(2, 4, 4, 3, id="batch-2-4x4"),
        pytest.param(3, 3, 5, 4, id="batch-3-3x5"),
        pytest.param(2, 36, 40, 4, id="split-batch-2-36x40"),
    ],
)
def test_global_prompt_is_one_node_matching_the_composite_chain(bsz, h, w, c):
    """The output and the gradients of x, wq, wk and wv equal the
    composite's bytes. At 36x40 with weights at checkpoint scale both
    batch elements' forwards split near/far."""
    rng = np.random.default_rng(h * w + c)
    x0 = rng.standard_normal((bsz, h * w, c))
    w0 = [rng.uniform(-1.0, 1.0, (2 * c, c)) / np.sqrt(2 * c) for _ in range(3)]
    g = rng.standard_normal((bsz, h * w, c))
    if h * w > 1024:
        feats = spectral_features(x0, h, w).data
        cuts = _split_cuts(feats @ w0[0], feats @ w0[1], 1.0 / np.sqrt(c))
        assert all(cut is not None for cut in cuts)
    results = []
    for fn in (global_prompt, _composite_global_prompt):
        x = Tensor(x0.copy(), requires_grad=True)
        params = GlobalPromptParams(*(Tensor(m.copy(), requires_grad=True) for m in w0))
        out = fn(x, h, w, params)
        if fn is global_prompt:
            assert out._parents == (x, params.wq, params.wk, params.wv)
        (out * Tensor(g)).sum().backward()
        results.append([out.data, x.grad, params.wq.grad, params.wk.grad, params.wv.grad])
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_global_prompt_node_keeps_the_half_spectrum_output_and_log_sum_exp():
    """Besides the three weights the closure holds the grid's rfft half,
    the output and the per-row log-sum-exp, and no features, q, k or v:
    the vjp unfolds the features from the half and rebuilds the rest."""
    rng = np.random.default_rng(13)
    bsz, h, w, c = 2, 3, 5, 4
    x = Tensor(rng.standard_normal((bsz, h * w, c)), requires_grad=True)
    params = GlobalPromptParams(
        *(Tensor(rng.standard_normal((2 * c, c)), requires_grad=True) for _ in range(3))
    )
    out = global_prompt(x, h, w, params)
    held = []
    for cell in out._vjp.__closure__:
        v = cell.cell_contents
        held += [a for a in (v if isinstance(v, (tuple, list)) else (v,)) if isinstance(a, np.ndarray)]
    weights = [params.wq.data, params.wk.data, params.wv.data]
    assert len(held) == 6
    assert all(any(a is m for a in held) for m in weights + [out.data])
    half, lse = sorted(
        (a for a in held if not any(a is m for m in weights + [out.data])),
        key=lambda a: a.ndim, reverse=True,
    )
    assert half.tobytes() == grid_half_spectrum(x.data, h, w).tobytes()
    assert half.shape == (bsz, h, w // 2 + 1, c)
    feats = unfold_features(half, w, 1.0 / (h * w))
    assert feats.tobytes() == spectral_features(x, h, w).data.tobytes()
    assert lse.shape == (bsz, h * w, 1)


def _global_prompt_at_128_grid(traced_peak, weights):
    """Run global_prompt at N = 16384, C = 8 under ``traced_peak`` with
    projection weights drawn by ``weights(rng, shape)``. Check its peak,
    and 8 random rows (plus 8 light rows when the call splits) against a
    dense softmax. Returns the call's split cuts."""
    rng = np.random.default_rng(7)
    c, h, w = 8, 128, 128
    n = h * w
    x = rng.standard_normal((1, n, c))
    params = GlobalPromptParams(
        wq=Tensor(weights(rng, (2 * c, c))),
        wk=Tensor(weights(rng, (2 * c, c))),
        wv=Tensor(weights(rng, (2 * c, c))),
    )
    out, peak = traced_peak(lambda: global_prompt(Tensor(x), h, w, params).data)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert out.shape == (1, n, c)
    assert np.all(np.isfinite(out))

    spec = np.fft.fft2(x[0].reshape(h, w, c), axes=(0, 1)).reshape(n, c)
    feats = np.concatenate([spec.real, spec.imag], axis=-1) / n
    q = feats @ params.wq.data
    k = feats @ params.wk.data
    v = feats @ params.wv.data
    (cuts,) = _split_cuts(q[None], k[None], 1.0 / np.sqrt(c))
    picked = rng.choice(n, size=8, replace=False)
    if cuts is not None:  # and 8 of the light rows
        sq = np.linalg.norm(q, axis=-1)
        picked = np.concatenate([picked, np.argsort(sq)[: cuts[0]][::97][:8]])
    scores = q[picked] @ k.T / np.sqrt(c)
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out[0, picked], probs @ v, rtol=1e-9, atol=1e-12)
    return cuts


def test_global_prompt_at_128_grid_stays_under_memory_cap(traced_peak):
    """N = 16384: one copy of the full score matrix alone would be 2 GiB."""
    _global_prompt_at_128_grid(traced_peak, lambda rng, shape: rng.standard_normal(shape))


def test_global_prompt_at_128_grid_with_checkpoint_weights_splits_under_memory_cap(traced_peak):
    """The same with weights at checkpoint scale, +-1/sqrt(fan_in): now
    the rows and keys of smallest norm pair within the series' bound,
    and the near/far split engages."""
    cuts = _global_prompt_at_128_grid(
        traced_peak,
        lambda rng, shape: rng.uniform(-1.0, 1.0, shape) / np.sqrt(shape[0])
    )
    assert cuts is not None and cuts[0] >= 8 and cuts[1] >= 8
