import tracemalloc

import numpy as np
import pytest

from promptscan import prompts
from promptscan.errors import ConfigError, ContractError, DimensionError
from promptscan.prompts import (
    GlobalPromptParams,
    PromptPool,
    attention,
    fuse_prompts,
    gather_spatial_prompt,
    global_prompt,
    gumbel_noise,
    route_tokens,
)
from promptscan.fft import fft2d
from promptscan.tensor import Tensor, matmul, reshape, softmax, transpose


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
    picked = gather_spatial_prompt(Tensor(route), pool).data
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


def test_global_prompt_magnitude_features():
    rng = np.random.default_rng(5)
    c = 3
    x = Tensor(rng.standard_normal((1, 9, c)))
    params = GlobalPromptParams(
        wq=Tensor(rng.standard_normal((c, c))),
        wk=Tensor(rng.standard_normal((c, c))),
        wv=Tensor(rng.standard_normal((c, c))),
    )
    out = global_prompt(x, 3, 3, params, features="magnitude")
    assert out.shape == (1, 9, c)


def test_global_prompt_reim_features_keep_the_concat_layout(monkeypatch):
    """[re | im] from the stacked planes equals concat of the two flattened
    planes bit for bit."""
    rng = np.random.default_rng(6)
    bsz, h, w, c = 2, 3, 5, 4
    x = Tensor(rng.standard_normal((bsz, h * w, c)))
    params = GlobalPromptParams(*(Tensor(rng.standard_normal((2 * c, c))) for _ in range(3)))
    seen = []

    def spy(a, b):
        seen.append(a.data)
        return matmul(a, b)

    monkeypatch.setattr(prompts, "matmul", spy)
    global_prompt(x, h, w, params)

    spec = fft2d(transpose(reshape(x, (bsz, h, w, c)), (0, 3, 1, 2)))

    def flat(t):
        return reshape(transpose(t, (0, 2, 3, 1)), (bsz, h * w, c))

    old = np.concatenate([flat(spec.re).data, flat(spec.im).data], axis=-1) * (1.0 / (h * w))
    assert len(seen) == 3
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
    monkeypatch.setattr(prompts, "_ATTN_BLOCK_ELEMS", rows * min(n, tile) * bsz)
    rng = np.random.default_rng(6)
    qkv = [rng.standard_normal((bsz, n, d)) for _ in range(3)]
    w = rng.standard_normal((bsz, n, d))
    scale = 1.0 / np.sqrt(d)
    tiled = _attention_chain(qkv, w, attention, scale)
    chain = _attention_chain(qkv, w, _composite_attention, scale)
    for got, want in zip(tiled, chain):
        # relative to the array's scale: single entries can cancel to ~0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_attention_recomputes_rows_whose_bound_shift_underflows(monkeypatch):
    """Logits up to about +-2000: rows with q orthogonal to the longest keys
    have a norm bound far above their true max, so exp(s - bound) would
    underflow to 0 on the whole row without the exact-max fallback.

    A second case has all-zero keys and one query whose norm overflows,
    so that row's bound is inf * 0 = NaN. Every key tile then adds NaN to
    its total and output, and only a fallback that replaces the tile
    sums, rather than adding to them, gives a finite row. (An underflowed
    row cannot show the difference: its tile sums are below 1e-200.) Both
    cases run with the 48 keys in one tile and in five, the last ragged.
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
    # the overflowing norm and inf * 0 are meant here
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(np.linalg.norm(q_nan[0, 5]))
        for qkv, w in (((q, k, v), w), ((q_nan, k_nan, v_nan), w_nan)):
            chain = _attention_chain(qkv, w, _composite_attention, scale)
            for tile in (n, 10):
                monkeypatch.setattr(prompts, "_ATTN_KEY_TILE", tile)
                tiled = _attention_chain(qkv, w, attention, scale)
                for got, want in zip(tiled, chain):
                    assert np.all(np.isfinite(got))
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_attention_score_block_counts_the_batch():
    """(4, 1024, 32): one tile holds at most ``_ATTN_BLOCK_ELEMS`` scores
    (2**16, 512 KiB) over all four images, not that many per image."""
    rng = np.random.default_rng(9)
    bsz, n, c = 4, 1024, 32
    q, k, v = (Tensor(rng.standard_normal((bsz, n, c))) for _ in range(3))
    tracemalloc.start()
    try:
        out = attention(q, k, v, 1.0 / np.sqrt(c))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = out.data.nbytes + bsz * n * 8  # out and the per-row log-sum-exp
    augmented = 2 * bsz * n * (c + 1) * 8  # [scale * q, -m] and [k, 1]
    scores = prompts._ATTN_BLOCK_ELEMS * 8
    # slack: row norms, shifts, block totals and numpy's ufunc buffers
    assert peak - kept <= scores + augmented + 2**19, f"peak {peak / 2**20:.2f} MiB"


def test_attention_node_keeps_only_its_output_and_log_sum_exp():
    """After a tracked forward the augmented operands are gone: they
    would add about 2 * N * C * 8 bytes (1 MiB here) to what stays live."""
    rng = np.random.default_rng(10)
    n, c = 2048, 32
    leaves = [Tensor(rng.standard_normal((1, n, c)), requires_grad=True) for _ in range(3)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = attention(*leaves, 1.0 / np.sqrt(c))
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert grown <= out.data.nbytes + n * 8 + 2**16, f"grew {grown / 2**10:.0f} KiB"


def test_untracked_global_prompt_frees_the_spectrum_before_attention(monkeypatch):
    """(1, 4096, 32): only q, k and v (3 MiB) are live when attention
    starts; the spectrum planes and features (4 MiB) are already freed."""
    rng = np.random.default_rng(11)
    c, h, w = 32, 64, 64
    n = h * w
    x = Tensor(rng.standard_normal((1, n, c)))
    params = GlobalPromptParams(
        *(Tensor(rng.standard_normal((2 * c, c)) * 0.1) for _ in range(3))
    )
    live = []

    def spy(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return attention(*args)

    monkeypatch.setattr(prompts, "attention", spy)
    tracemalloc.start()
    try:
        global_prompt(x, h, w, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    qkv = 3 * n * c * 8
    assert live[0] <= qkv + 2**18, f"live at attention {live[0] / 2**20:.2f} MiB"
    assert peak <= 9 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_attention_rejects_mismatched_operands():
    q = Tensor(np.zeros((1, 4, 3)))
    with pytest.raises(DimensionError):
        attention(q, Tensor(np.zeros((1, 4, 2))), q, 1.0)
    with pytest.raises(DimensionError):
        attention(q, q, Tensor(np.zeros((1, 5, 3))), 1.0)


def test_global_prompt_at_128_grid_stays_under_memory_cap():
    """N = 16384: one copy of the full score matrix alone would be 2 GiB."""
    rng = np.random.default_rng(7)
    c, h, w = 8, 128, 128
    n = h * w
    x = rng.standard_normal((1, n, c))
    params = GlobalPromptParams(
        wq=Tensor(rng.standard_normal((2 * c, c))),
        wk=Tensor(rng.standard_normal((2 * c, c))),
        wv=Tensor(rng.standard_normal((2 * c, c))),
    )
    tracemalloc.start()
    try:
        out = global_prompt(Tensor(x), h, w, params).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert out.shape == (1, n, c)
    assert np.all(np.isfinite(out))

    spec = np.fft.fft2(x[0].reshape(h, w, c), axes=(0, 1)).reshape(n, c)
    feats = np.concatenate([spec.real, spec.imag], axis=-1) / n
    k = feats @ params.wk.data
    v = feats @ params.wv.data
    picked = rng.choice(n, size=8, replace=False)
    scores = feats[picked] @ params.wq.data @ k.T / np.sqrt(c)
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out[0, picked], probs @ v, rtol=1e-9, atol=1e-12)


def test_fuse_prompts_shape_check():
    a = Tensor(np.zeros((1, 4, 3)))
    b = Tensor(np.zeros((1, 4, 2)))
    with pytest.raises(DimensionError):
        fuse_prompts(a, b)
