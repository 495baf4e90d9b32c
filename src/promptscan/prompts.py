"""Prompt construction: discrete routing and spectral attention.

Two prompt streams are built per token and fused by addition. The
spatial stream picks one row of a learnable pool per token through a
hard Gumbel-Softmax router (straight-through gradients). The global
stream transforms the token grid to the frequency domain and runs
single-head scaled dot-product attention over the spectral features, so
every token sees a summary of the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .fft import fft2d
from .tensor import (
    Tensor,
    astensor,
    matmul,
    reshape,
    softmax,
    transpose,
)

# keys per attention tile, and score elements per (query block x key
# tile) over the whole batch: 2**16 float64 values, 512 KiB, so that a
# tile's scores, keys and values stay in a 2 MiB L2 through all passes
_ATTN_KEY_TILE = 256
_ATTN_BLOCK_ELEMS = 1 << 16


@dataclass
class PromptPool:
    """Learnable prompt rows plus the router's sampling state."""

    pool: Tensor
    temperature: float = 1.0
    rng_seed: int = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if self.pool.ndim != 2:
            raise DimensionError(f"prompt pool must be (T, C), got {tuple(self.pool.shape)}")
        if self.pool.shape[0] < 2:
            raise ContractError("prompt pool needs at least 2 rows")
        self.rng = np.random.default_rng(self.rng_seed)

    @property
    def size(self) -> int:
        return self.pool.shape[0]


@dataclass
class GlobalPromptParams:
    """Q/K/V projection weights for the spectral attention."""

    wq: Tensor
    wk: Tensor
    wv: Tensor


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard Gumbel(0,1) samples via inverse CDF of -log(-log U)."""
    u = rng.random(shape)
    return -np.log(-np.log(u + 1e-20) + 1e-20)


def _straight_through(soft: Tensor, hard_value: np.ndarray) -> Tensor:
    """Forward the hard value while routing gradients to the soft path."""
    return Tensor._from_op(hard_value, (soft,), lambda g: (g,))


def route_tokens(
    logits: Tensor,
    pool: PromptPool,
    train_mode: bool,
    *,
    route_mode: str = "hard",
    noise: np.ndarray | None = None,
) -> Tensor:
    """Assign each token to one prompt row.

    Training draws Gumbel noise from the pool's seeded stream, softens
    with temperature tau, then substitutes the one-hot argmax on the
    forward pass only (straight-through). Inference skips the noise and
    takes the plain argmax. ``route_mode="soft"`` skips the hard
    substitution and returns the relaxation itself; gradient checks use
    it because finite differences cannot see through the substitution.
    """
    logits = astensor(logits)
    if pool.temperature <= 0:
        raise ConfigError(f"gumbel temperature must be positive, got {pool.temperature}")
    if route_mode not in ("hard", "soft"):
        raise ConfigError(f"unknown route_mode {route_mode!r}")
    if logits.ndim != 3 or logits.shape[-1] != pool.size:
        raise DimensionError(
            f"routing logits {tuple(logits.shape)} do not match pool size {pool.size}"
        )
    if train_mode:
        if noise is None:
            noise = gumbel_noise(logits.shape, pool.rng)
        pre = (logits + Tensor(noise)) * (1.0 / pool.temperature)
    else:
        pre = logits * (1.0 / pool.temperature)
    soft = softmax(pre, axis=-1)
    if route_mode == "soft":
        return soft
    keys = np.argmax(soft.data, axis=-1)
    hard = np.zeros_like(soft.data)
    np.put_along_axis(hard, keys[..., None], 1.0, axis=-1)
    return _straight_through(soft, hard)


def gather_spatial_prompt(route: Tensor, pool: PromptPool) -> Tensor:
    """Per-token pool lookup, written as route @ pool so both get gradients."""
    route = astensor(route)
    if route.shape[-1] != pool.size:
        raise DimensionError(
            f"route width {route.shape[-1]} does not match pool size {pool.size}"
        )
    return matmul(route, pool.pool)


def _augment(x: np.ndarray, col) -> np.ndarray:
    """``x`` with ``col`` appended as one more entry of the last axis.

    A GEMM against an operand whose extra column is all ones then adds
    ``col`` to every entry of its row, for free inside BLAS.
    """
    aug = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    aug[..., :-1] = x
    aug[..., -1:] = col
    return aug


def _augment_t(x: np.ndarray) -> np.ndarray:
    """``[x, 1]`` transposed, as a contiguous (..., C + 1, N) array, so
    that a key tile is a column range whose rows BLAS reads in order."""
    aug = np.empty(x.shape[:-2] + (x.shape[-1] + 1, x.shape[-2]))
    aug[..., :-1, :] = x.swapaxes(-1, -2)
    aug[..., -1, :] = 1.0
    return aug


def attention(q, k, v, scale: float) -> Tensor:
    """softmax(q @ k^T * scale) @ v as one node, tiled over queries and keys.

    Both passes walk blocks of query rows and, inside each block, tiles
    of ``_ATTN_KEY_TILE`` keys. A block holds at most
    ``_ATTN_BLOCK_ELEMS`` scores over the whole batch, so one step's
    scores, key tile and value tile stay in cache through its score
    GEMM, ``exp`` and value GEMM at any token count. Each pass allocates
    its tile buffers once (forward: the scores; backward: the
    probabilities and their cotangent, in one array) and refills them,
    so memory is linear in the token count.

    Row i is shifted by the Cauchy-Schwarz bound
    m_i = |scale| * |q_i| * max_j |k_j|, which no score in the row
    exceeds, so ``exp`` cannot overflow and the row max is never taken.
    The shift is fixed before any score is computed, so every key tile
    of a row is exponentiated against the same m_i: the tiles' partial
    exp-sums and value products simply add, with none of the online
    rescaling a running max would need. The scale and the shift ride in
    the score GEMM through one extra contraction column,
    [scale * q, -m] @ [k^T; 1] = s - m, and row totals are a GEMV
    against ones. Forward keeps the per-row log-sum-exp; backward
    recomputes each tile's probabilities from it with the same GEMM and
    gets dp - delta as [g, -delta] @ [v^T; 1] (Rabe & Staats 2021;
    Dao et al. 2022). ``scale`` is applied once to the (N, C) gradients
    of q and k.

    A row whose total underflows (below 1e-200: the bound overshoots its
    true max by about 460 or more, which needs extreme logits) is
    recomputed with its exact max over all keys, and its total and
    output replace the tile sums. Backward needs no such case: it
    shifts by the exact log-sum-exp.
    """
    q, k, v = astensor(q), astensor(k), astensor(v)
    if not (
        q.ndim == k.ndim == v.ndim == 3
        and q.shape[0] == k.shape[0] == v.shape[0]
        and q.shape[2] == k.shape[2]
        and k.shape[1] == v.shape[1]
    ):
        raise DimensionError(
            f"attention operands do not fit: q {tuple(q.shape)}, "
            f"k {tuple(k.shape)}, v {tuple(v.shape)}"
        )
    bsz, nk = k.shape[:2]
    tk = min(nk, _ATTN_KEY_TILE)
    rows = max(1, _ATTN_BLOCK_ELEMS // (bsz * tk))
    blocks = [slice(lo, lo + rows) for lo in range(0, q.shape[1], rows)]
    tiles = [slice(lo, lo + tk) for lo in range(0, nk, tk)]
    tile_shape = (bsz, min(rows, q.shape[1]), tk)
    ones = np.ones(tk)

    def probs(blk, tile, buf, qa, kat):
        """exp of the augmented score GEMM for one block and key tile, in ``buf``."""
        qa_blk, kat_tile = qa[:, blk], kat[..., tile]
        e = np.matmul(qa_blk, kat_tile, out=buf[:, : qa_blk.shape[1], : kat_tile.shape[-1]])
        np.exp(e, out=e)
        return e

    qn = np.linalg.norm(q.data, axis=-1, keepdims=True)
    kn = np.linalg.norm(k.data, axis=-1).max(axis=1)
    shift = abs(scale) * qn * kn[:, None, None]
    qa = _augment(q.data * scale, -shift)
    kat = _augment_t(k.data)
    out = np.empty(q.shape[:2] + v.shape[2:])
    lse = np.empty(q.shape[:2] + (1,))
    scores = np.empty(tile_shape)
    part = np.empty(tile_shape[:2] + v.shape[2:])
    for blk in blocks:
        o = out[:, blk]
        for tile in tiles:
            e = probs(blk, tile, scores, qa, kat)
            if tile.start == 0:
                total = e @ ones[: e.shape[-1]]
                np.matmul(e, v.data[:, tile], out=o)
            else:
                total += e @ ones[: e.shape[-1]]
                o += np.matmul(e, v.data[:, tile], out=part[:, : e.shape[1]])
        # "not >=" also takes a NaN total: the bound is inf * 0 when one
        # norm overflows and the other is zero
        for b, i in zip(*np.nonzero(~(total >= 1e-200))):
            row = k.data[b] @ qa[b, blk.start + i, :-1]
            top = row.max()
            row -= top
            np.exp(row, out=row)
            shift[b, blk.start + i] = top
            total[b, i] = row.sum()
            o[b, i] = row @ v.data[b]
        o /= total[..., None]
        lse[:, blk] = shift[:, blk] + np.log(total)[..., None]

    def vjp(g):
        delta = (g * out).sum(axis=-1, keepdims=True)
        gq = np.zeros_like(q.data)
        gk = np.zeros_like(k.data)
        gv = np.zeros_like(v.data)
        qa = _augment(q.data * scale, -lse)
        kat = _augment_t(k.data)
        ga = _augment(g, -delta)
        vat = _augment_t(v.data)
        pbuf, dbuf = np.empty((2,) + tile_shape)
        for blk in blocks:
            ga_blk, g_blk, q_blk = ga[:, blk], g[:, blk], q.data[:, blk]
            for tile in tiles:
                p = probs(blk, tile, pbuf, qa, kat)
                gv[:, tile] += p.swapaxes(-1, -2) @ g_blk
                ds = np.matmul(ga_blk, vat[..., tile], out=dbuf[:, : p.shape[1], : p.shape[2]])
                ds *= p
                gq[:, blk] += ds @ k.data[:, tile]
                gk[:, tile] += ds.swapaxes(-1, -2) @ q_blk
        gq *= scale
        gk *= scale
        return gq, gk, gv

    return Tensor._from_op(out, (q, k, v), vjp)


def global_prompt(
    x: Tensor,
    h: int,
    w: int,
    params: GlobalPromptParams,
    *,
    features: str = "reim",
) -> Tensor:
    """Whole-grid context vector per token via spectral attention.

    The token sequence is laid back on its h-by-w grid, transformed per
    channel with a 2-d FFT, and the real/imaginary planes (or the
    magnitude, under ``features="magnitude"``) become the attention
    input. Spectral coefficients grow with token count, so features are
    scaled by 1/N to keep the attention logits in a sane range at any
    grid size.
    """
    x = astensor(x)
    q, k, v = _spectral_qkv(x, h, w, params, features)
    return attention(q, k, v, 1.0 / np.sqrt(x.shape[-1]))


def _spectral_qkv(x: Tensor, h: int, w: int, params: GlobalPromptParams, features: str):
    """Q, K and V projections of the spectral features of ``x``.

    A function of its own so that the spectrum and the features, when
    no tape holds them, are freed before attention runs.
    """
    bsz, n, c = x.shape
    if h * w != n:
        raise DimensionError(f"token count {n} does not factor as {h}x{w}")
    if features not in ("reim", "magnitude"):
        raise ConfigError(f"unknown spectral feature mode {features!r}")

    grid = transpose(reshape(x, (bsz, h, w, c)), (0, 3, 1, 2))
    spec = fft2d(grid)

    if features == "reim":
        # (B, C, H, W, 2) -> (B, H, W, 2, C): per token, all real parts
        # then all imaginary parts
        feats = reshape(transpose(spec.planes, (0, 2, 3, 4, 1)), (bsz, n, 2 * c))
    else:
        feats = reshape(transpose(spec.magnitude(), (0, 2, 3, 1)), (bsz, n, c))
    feats = feats * (1.0 / n)

    fdim = feats.shape[-1]
    for name, m in (("wq", params.wq), ("wk", params.wk), ("wv", params.wv)):
        if m.shape != (fdim, c):
            raise DimensionError(
                f"{name} has shape {tuple(m.shape)}, expected ({fdim}, {c})"
            )
    return matmul(feats, params.wq), matmul(feats, params.wk), matmul(feats, params.wv)


def fuse_prompts(p_spatial: Tensor, p_global: Tensor) -> Tensor:
    """Elementwise sum of the two streams.

    Any reordering for the scan happens downstream, where the fused
    prompt is permuted together with the other per-token operands.
    """
    p_spatial, p_global = astensor(p_spatial), astensor(p_global)
    if p_spatial.shape != p_global.shape:
        raise DimensionError(
            f"prompt shapes differ: {tuple(p_spatial.shape)} vs {tuple(p_global.shape)}"
        )
    return p_spatial + p_global
