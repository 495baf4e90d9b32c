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


@pytest.mark.parametrize("rows", [5, 1, 64], ids=["ragged", "single-row", "one-block"])
def test_attention_matches_composite_chain(monkeypatch, rows):
    """The blocked node against matmul/softmax/matmul through the engine."""
    bsz, n, d = 2, 37, 3
    monkeypatch.setattr(prompts, "_ATTN_BLOCK_ELEMS", rows * n)
    rng = np.random.default_rng(6)
    qkv = [rng.standard_normal((bsz, n, d)) for _ in range(3)]
    w = Tensor(rng.standard_normal((bsz, n, d)))
    scale = 1.0 / np.sqrt(d)

    def run(f):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in qkv]
        out = f(*leaves)
        (out * w).sum().backward()
        return [out.data] + [t.grad for t in leaves]

    blocked = run(lambda q, k, v: attention(q, k, v, scale))
    chain = run(
        lambda q, k, v: matmul(softmax(matmul(q, transpose(k, (0, 2, 1))) * scale), v)
    )
    for got, want in zip(blocked, chain):
        # relative to the array's scale: single entries can cancel to ~0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
