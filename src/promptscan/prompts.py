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
from .fft import grid_half_spectrum, spectral_features_grad, unfold_features
from .tensor import Tensor, _unbroadcast, astensor

# keys per attention tile, and score elements per (query block x key
# tile) of one batch element: 2**16 float64 values, 512 KiB, so that a
# tile's scores, keys and values stay in a 2 MiB L2 through all passes
_ATTN_KEY_TILE = 256
_ATTN_BLOCK_ELEMS = 1 << 16
# pair bound t below which exp(s) is replaced by 1 + s + s^2 / 2: the
# remainder t^3/6 * e^t, over exp(s) >= e^-t, is 2.8e-14 of each term,
# within gamma_256 = 256 u / (1 - 256 u) (u = 2^-53), the a-priori
# relative error bound of the 256-term dot products of which the tiled
# loop builds every exact row sum (Higham 2002, section 3.1)
_FAR_BOUND = 5.5e-5
# the near/far cost model's prices, in GEMM flops: one exp of a score,
# and one moment feature built by a numpy product. Set from timings on a
# 2-vCPU x86 VM with single-threaded OpenBLAS, where at C = 32 an exact
# pair took ~5.3 ns and a moment row as long as ~570-670 pairs
_EXP_FLOPS = 40
_FEATURE_FLOPS = 140


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
    takes the plain argmax. ``route_mode="soft"`` returns the relaxation
    itself; gradient checks use it because finite differences cannot see
    through the substitution. All of it is one node, whose vjp is the
    softmax's times 1/tau in either mode.
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
    inv_tau = 1.0 / pool.temperature
    if train_mode and noise is None:
        noise = gumbel_noise(logits.shape, pool.rng)
    pre = (logits.data + noise if train_mode else logits.data) * inv_tau
    e = np.exp(pre - pre.max(axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    out = soft
    if route_mode == "hard":
        out = np.zeros_like(soft)
        np.put_along_axis(out, np.argmax(soft, axis=-1)[..., None], 1.0, axis=-1)

    def vjp(g):
        return (soft * (g - (g * soft).sum(axis=-1, keepdims=True)) * inv_tau,)

    return Tensor._from_op(out, (logits,), vjp)


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


def _exact_sums(qa, kat, v, buf, out, total):
    """Write sum_j e_ij v_j into ``out`` and sum_j e_ij into ``total``,
    with e_ij = exp(qa_i . kat_j), for one batch element's (R, C + 1)
    rows ``qa`` against its (C + 1, K) keys ``kat``.

    Rows go in blocks and keys in tiles of ``_ATTN_KEY_TILE``; a block
    holds at most ``_ATTN_BLOCK_ELEMS`` scores and lives in ``buf``. The
    tiles' partial sums add: each row's shift rides in ``qa`` and is the
    same for every tile.
    """
    nq, nk = qa.shape[0], kat.shape[1]
    rows, tk = _block_shape(nq, nk)
    scores = buf[: rows * tk].reshape(rows, tk)
    part = np.empty((rows, v.shape[-1]))
    ones = np.ones(tk)
    for lo in range(0, nq, rows):
        blk = slice(lo, lo + rows)
        o = out[blk]
        for tile in (slice(t, t + tk) for t in range(0, nk, tk)):
            e = _probs(qa[blk], kat[:, tile], scores)
            if tile.start == 0:
                total[blk] = e @ ones[: e.shape[1]]
                np.matmul(e, v[tile], out=o)
            else:
                total[blk] += e @ ones[: e.shape[1]]
                o += np.matmul(e, v[tile], out=part[: e.shape[0]])


def _block_shape(nq, nk):
    """(rows, keys) of a score block: a tile of ``_ATTN_KEY_TILE`` keys and
    the rows that fill ``_ATTN_BLOCK_ELEMS`` scores, whatever the batch."""
    tk = min(nk, _ATTN_KEY_TILE)
    return min(nq, max(1, _ATTN_BLOCK_ELEMS // tk)), tk


def _probs(qa_blk, kat_tile, buf):
    """exp of the augmented score GEMM for one block and key tile, in ``buf``."""
    e = np.matmul(qa_blk, kat_tile, out=buf[: qa_blk.shape[0], : kat_tile.shape[1]])
    np.exp(e, out=e)
    return e


def _far_split(sq, kn, c, cv):
    """The cheapest near/far split of one batch element's pairs: the
    keys' order by norm, the heavy rows, and the light rows in chunks,
    each with its cut: the number of smallest keys it takes as far. When
    the tiled loop alone is cheapest, every row is heavy, no chunk is
    left, and the order is None, as nothing reads it.

    Row i could take as far the f_i smallest keys, those with
    sq_i * kn_j <= t, so that each such score is within the series'
    certificate; one ``searchsorted`` over the sorted key norms gives
    every f_i. A row is light when its f_i exact pairs cost more than
    its moment row. Light rows go in order of f_i, in chunks of one
    score block's rows, and a chunk's cut is the least f_i among its
    rows, so its exact pairs are full tiles against the keys past the
    cut. Costs count GEMM flops: an exact pair is its score and value
    columns, 2(C + 1) + 2(C' + 1), plus one ``exp``; a light row or far
    key is a moment row of ``_far_width(c)`` features, each built at
    elementwise speed and multiplied into C' + 1 columns, and the far
    keys' moments are built once, up to the largest cut. No split can
    pay unless the cheapest one imaginable, all rows light and all keys
    far, does (never below N ~ 1340 at C = 32). Non-finite norms never
    qualify, so those rows stay heavy and those keys near.
    """
    nq, nk = sq.size, kn.size
    every_row_heavy = None, np.arange(nq), []
    pair = 2 * (c + 1) + 2 * (cv + 1) + _EXP_FLOPS
    far = _far_width(c) * (2 * (cv + 1) + _FEATURE_FLOPS)
    if far * (nq + nk) >= pair * nq * nk:  # all rows light, all keys far
        return every_row_heavy
    order = np.argsort(kn, kind="stable")  # non-finite norms sort last
    keys = kn[order[: np.count_nonzero(np.isfinite(kn))]]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.searchsorted(keys, _FAR_BOUND / sq, side="right")
    f[~np.isfinite(sq)] = 0
    light = pair * f > far
    heavy, light = np.flatnonzero(~light), np.flatnonzero(light)
    light = light[np.argsort(f[light], kind="stable")]
    rows = _block_shape(nq, nk)[0]
    cuts = f[light[::rows]]
    sizes = np.minimum(rows, light.size - np.arange(0, light.size, rows))
    exact = heavy.size * nk + sizes @ (nk - cuts)
    if pair * exact + far * (light.size + cuts.max(initial=0)) >= pair * nq * nk:
        return every_row_heavy
    return order, heavy, list(zip(np.split(light, range(rows, light.size, rows)), cuts))


def _far_width(c):
    """Moment rows per key: [k, 1] and the c (c + 1) / 2 products k_a k_b, a <= b."""
    return c + 1 + c * (c + 1) // 2


def _far_features(feats, c):
    """Fill rows c + 1 onwards of ``feats`` with the products x_a x_b,
    a <= b, of its first c rows (one column per vector x)."""
    off = c + 1
    for i in range(c):
        np.multiply(feats[i], feats[i:c], out=feats[off : off + c - i])
        off += c - i


def _far_moments(k, v, keys, buf):
    """M = sum_j phi(k_j) [v_j, 1] over ``keys``, (F, C' + 1), with
    phi(k) = [k, 1, k_a k_b (a < b), k_a^2 / 2]: the far field's summary.

    Keys go in chunks whose features, built transposed (one column per
    key), fill at most ``_ATTN_BLOCK_ELEMS`` values of ``buf``; the
    chunks' moments are added pairwise.
    """
    c = k.shape[-1]
    width = _far_width(c)
    chunk = max(1, _ATTN_BLOCK_ELEMS // width)
    chunks = range(0, keys.size, chunk)
    # level l holds a sum of 2**l chunks while bit l of the count is set;
    # one allocation for all levels keeps the heap from fragmenting
    levels = np.zeros((max(1, len(chunks).bit_length()), width, v.shape[-1] + 1))
    m = np.empty(levels.shape[1:])
    for j, lo in enumerate(chunks):
        idx = keys[lo : lo + chunk]
        feats = buf[: width * idx.size].reshape(width, idx.size)
        feats[:c] = k[idx].T
        feats[c] = 1.0
        _far_features(feats, c)
        np.matmul(feats, _augment(v[idx], 1.0), out=m)
        level = 0
        while j >> level & 1:  # carry through the levels this chunk completes
            m += levels[level]
            level += 1
        levels[level] = m
    m[:] = 0.0
    for level in range(levels.shape[0]):
        if len(chunks) >> level & 1:
            m += levels[level]
    i = np.arange(c)
    m[c + 1 + i * c - i * (i - 1) // 2] *= 0.5  # the rows of k_a^2
    return m


def _row_sums(q, scale, shift, rows, kat, v, moments, buf, out, total):
    """Write into ``out`` and ``total`` the ``_exact_sums`` of one batch
    element's ``rows`` of q against the keys of ``kat``, plus, given the
    far keys' ``moments`` M, each row's degree-2 series
    [x, 1, x_a x_b (a <= b)] . M e^(-m_i), x = scale * q_i.

    Rows go in gathered chunks of one score block against the keys of
    ``kat``, so the exact pairs run in full-size tiles; the series then
    takes each chunk in slices whose features, built transposed (one
    column per row), fill ``buf``.
    """
    c = q.shape[-1]
    width = _far_width(c)
    chunk = _block_shape(max(1, rows.size), max(1, kat.shape[-1]))[0]
    part = max(1, _ATTN_BLOCK_ELEMS // width)
    for lo in range(0, rows.size, chunk):
        idx = rows[lo : lo + chunk]
        qa = _augment(q[idx] * scale, -shift[idx])
        o, t = np.zeros((idx.size, v.shape[-1])), np.zeros(idx.size)
        if kat.shape[-1]:
            _exact_sums(qa, kat, v, buf, o, t)
        if moments is not None:
            for f in range(0, idx.size, part):
                x = qa[f : f + part]
                feats = buf[: width * x.shape[0]].reshape(width, x.shape[0])
                feats[: c + 1] = x.T
                feats[c] = 1.0
                _far_features(feats, c)
                far = feats.T @ moments
                w = np.exp(x[:, -1])
                o[f : f + part] += far[:, :-1] * w[:, None]
                t[f : f + part] += far[:, -1] * w
        out[idx], total[idx] = o, t


def _attention_forward(q, k, v, scale):
    """softmax(q @ k^T * scale) @ v on plain (B, N, C) arrays: the output
    and each row's log-sum-exp, (B, N, 1).

    Row i is shifted by the Cauchy-Schwarz bound m_i = sq_i * max_j kn_j,
    with sq_i = |scale| * |q_i| and kn_j = |k_j|, which no score in the
    row exceeds, so ``exp`` cannot overflow and the row max is never
    taken. The shift is fixed before any score is computed, so any
    partition of a row's keys gives partial exp-sums and value products
    that simply add. The scale and the shift ride in the score GEMM
    through one extra contraction column, [scale * q, -m] @ [k^T; 1] =
    s - m. Each batch element takes the near/far split ``_far_split``
    chooses: heavy rows (every row, when no split pays) run the tiled
    loop over all keys in gathered chunks, light rows run it over their
    near keys and a certified degree-2 series over their far ones (the
    linear attention of Katharopoulos et al. 2020 with the feature map
    of Arora et al. 2024, split near/far as in Greengard & Rokhlin
    1987). All parts share one buffer of ``_ATTN_BLOCK_ELEMS`` values,
    so memory is linear in the token count.

    A row whose total underflows (below 1e-200: the bound overshoots its
    true max by about 460 or more, which needs extreme logits) or is NaN
    is recomputed with its exact max over all keys, and its total and
    output replace the parts' sums.
    """
    bsz, nk, c = k.shape
    sq = abs(scale) * np.linalg.norm(q, axis=-1)
    kn = np.linalg.norm(k, axis=-1)
    shift = sq[..., None] * kn.max(axis=1)[:, None, None]
    out = np.empty(q.shape[:2] + v.shape[2:])
    total = np.empty(q.shape[:2])
    buf = np.empty(_ATTN_BLOCK_ELEMS)
    for b in range(bsz):
        qb, kb, vb, ob, tb = q[b], k[b], v[b], out[b], total[b]
        order, heavy, chunks = _far_split(sq[b], kn[b], c, v.shape[2])
        if heavy.size:  # else no [k, 1] copy of all keys is built
            _row_sums(qb, scale, shift[b], heavy, _augment_t(kb), vb, None, buf, ob, tb)
        # the chunks' cuts grow, and the far keys' moments with them by
        # sums that add like the tiled loop's tile sums
        moments, done = np.zeros((_far_width(c), v.shape[2] + 1)), 0
        for rows, cut in chunks:
            if cut > done:
                moments += _far_moments(kb, vb, order[done:cut], buf)
                done = cut
            # the keys past the cut, gathered for this chunk alone so
            # that no gathered copy is alive while moments are built
            near = order[cut:]
            kat, vn = _augment_t(kb[near]), vb[near]
            _row_sums(qb, scale, shift[b], rows, kat, vn, moments, buf, ob, tb)
            del kat, vn
    # "not >=" also takes a NaN total: the bound is inf * 0 when one
    # norm overflows and the other is zero
    for b, i in zip(*np.nonzero(~(total >= 1e-200))):
        row = k[b] @ (q[b, i] * scale)
        top = row.max()
        row -= top
        np.exp(row, out=row)
        shift[b, i] = top
        total[b, i] = row.sum()
        out[b, i] = row @ v[b]
    out /= total[..., None]
    return out, shift + np.log(total)[..., None]


def _attention_grads(q, k, v, out, lse, g, scale):
    """The gradients of q, k and v of ``_attention_forward`` for the
    cotangent ``g`` of its output ``out``.

    A node that runs the forward keeps what rebuilds q, k and v, the
    output and each row's log-sum-exp ``lse`` = m_i + log(total_i),
    split or not. Each tile's probabilities are recomputed from ``lse``
    with the forward's score GEMM over all pairs, and dp - delta comes
    as [g, -delta] @ [v^T; 1] (Rabe & Staats 2021; Dao et al. 2022), so
    the backward needs no fallback and no split. ``scale`` is applied
    once to the (N, C) gradients of q and k.
    """
    nq, nk = q.shape[1], k.shape[1]
    delta = (g * out).sum(axis=-1, keepdims=True)
    gq, gk, gv = (np.zeros_like(a) for a in (q, k, v))
    rows, tk = _block_shape(nq, nk)
    blocks = [slice(lo, lo + rows) for lo in range(0, nq, rows)]
    tiles = [slice(lo, lo + tk) for lo in range(0, nk, tk)]
    pbuf, dbuf = np.empty((2, rows, tk))
    for b in range(q.shape[0]):
        qa, ga = _augment(q[b] * scale, -lse[b]), _augment(g[b], -delta[b])
        kat, vat = _augment_t(k[b]), _augment_t(v[b])
        for blk in blocks:
            for tile in tiles:
                p = _probs(qa[blk], kat[:, tile], pbuf)
                gv[b, tile] += p.T @ g[b, blk]
                ds = np.matmul(ga[blk], vat[:, tile], out=dbuf[: p.shape[0], : p.shape[1]])
                ds *= p
                gq[b, blk] += ds @ k[b, tile]
                gk[b, tile] += ds.T @ q[b, blk]
    gq *= scale
    gk *= scale
    return gq, gk, gv


def global_prompt(x: Tensor, h: int, w: int, params: GlobalPromptParams) -> Tensor:
    """Whole-grid context vector per token via spectral attention.

    The token sequence is laid back on its h-by-w grid, transformed per
    channel with a 2-d FFT, and the real and imaginary planes become the
    attention input. Spectral coefficients grow with token count, so
    features are scaled by 1/N to keep the attention logits in a sane
    range at any grid size.

    An image's spectrum sits in a few low frequencies, so most tokens'
    features, and with them most score bounds |scale| |q_i| |k_j|, are
    tiny: ``_attention_forward`` runs those pairs through its far-field
    series (exact to float64 rounding) and only the rest through score
    tiles.

    One node with parents x, wq, wk and wv. The forward takes the rfft
    half of the grid's spectrum (``fft.grid_half_spectrum``), unfolds it
    into the features (``fft.unfold_features``), builds the projections
    q, k and v as plain arrays and runs attention's forward; the node
    keeps the half spectrum, the output and each row's log-sum-exp (and
    the weights), not the features (the half is 9/16 of their size at
    w = 16) and not q, k or v. Its vjp unfolds the features again,
    rebuilds q, k and v with the same three GEMMs, runs attention's
    tiled vjp, then the projections' and the features' vjps, the
    features' cotangent adding the three projections' terms in the order
    the tape walk would. So every value and gradient is the one a chain
    of five nodes gives: the features, three ``matmul`` and attention.
    Untracked, the half spectrum dies before the q, k and v GEMMs
    and the features before attention runs.
    """
    x = astensor(x)
    c = x.shape[-1]
    weights = (params.wq, params.wk, params.wv)
    for name, m in zip(("wq", "wk", "wv"), weights):
        if m.shape != (2 * c, c):
            raise DimensionError(
                f"{name} has shape {tuple(m.shape)}, expected ({2 * c}, {c})"
            )
    ws = [m.data for m in weights]
    half = grid_half_spectrum(x.data, h, w)
    feats = unfold_features(half, w)
    parents = (x,) + weights
    if not any(p.requires_grad for p in parents):
        half = None  # no vjp will read it
    q, k, v = (feats @ m for m in ws)
    del feats
    scale = 1.0 / np.sqrt(c)
    out, lse = _attention_forward(q, k, v, scale)

    def vjp(g):
        feats = unfold_features(half, w)
        gq, gk, gv = _attention_grads(*(feats @ m for m in ws), out, lse, g, scale)
        gx = spectral_features_grad(gq @ ws[0].T + gk @ ws[1].T + gv @ ws[2].T, h, w)
        ft = feats.swapaxes(-1, -2)
        return (gx,) + tuple(_unbroadcast(ft @ gm, m.shape) for gm, m in zip((gq, gk, gv), ws))

    return Tensor._from_op(out, parents, vjp)
