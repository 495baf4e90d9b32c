"""The 2-d Fourier transform of a real grid on ``numpy.fft``, with its
gradient.

Conventions: the forward transform is unnormalized, kernel
``exp(-2*pi*i*k*n/N)``, over the grid axes.

One transform serves both of its readers. The spectral attention's
front end is the transform of a (B, h*w, C) token grid, per channel over
its grid axes, laid out per token, in two steps
(:func:`grid_half_spectrum`, then :func:`unfold_features`) so that a
caller can keep the smaller rfft half and unfold it again;
:func:`spectral_features_grad` is that map's vjp. :func:`fft2d`, the
losses' spectrum, is the same map on a one-channel grid per leading
slice of a real (..., H, W) tensor, unscaled: one tape node whose value
holds both planes in one real array, ``planes[..., 0]`` the real part
and ``planes[..., 1]`` the imaginary part, so the backward pass is a
single transform however many consumers read its planes.
:func:`magnitude` and :func:`phase` read such planes.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, astensor


def _unfold_half(dst: np.ndarray, half: np.ndarray, negate: bool = False) -> None:
    """Fill one (B, h, w, C) plane of a real grid's spectrum from the same
    plane of its rfft half ``half`` (B, h, w // 2 + 1, C): the columns
    rfft leaves out are F[k1, k2] = conj(F[-k1, w - k2]), so ``negate``
    is set for the imaginary plane."""
    w, k = dst.shape[2], half.shape[2]
    dst[:, :, :k] = half
    tail = half[:, :, (w - 1) // 2 : 0 : -1]
    mirror = np.negative if negate else np.positive
    mirror(tail[:, :1], out=dst[:, :1, k:])
    mirror(tail[:, :0:-1], out=dst[:, 1:, k:])


def grid_half_spectrum(x: np.ndarray, h: int, w: int) -> np.ndarray:
    """The rfft half of a (B, h*w, C) token grid's 2-d DFT, taken per
    channel over the grid axes: complex (B, h, w // 2 + 1, C), a little
    over half the size of the unfolded features it determines."""
    bsz, n, c = x.shape
    if h * w != n:
        raise DimensionError(f"token count {n} does not factor as {h}x{w}")
    return np.fft.rfft2(x.reshape(bsz, h, w, c), axes=(1, 2))


def unfold_features(half: np.ndarray, w: int, scale: float) -> np.ndarray:
    """The per-token spectral features (B, N, 2C) of a grid of width
    ``w`` from its :func:`grid_half_spectrum`: token (k1, k2) gets the C
    real parts, then the C imaginary parts, of F[k1, k2], times
    ``scale``. The half and its Hermitian mirror are written straight
    into the token layout and scaled in place."""
    bsz, h, _, c = half.shape
    feats = np.empty((bsz, h, w, 2, c))
    _unfold_half(feats[..., 0, :], half.real)
    _unfold_half(feats[..., 1, :], half.imag, negate=True)
    feats *= scale
    return feats.reshape(bsz, h * w, 2 * c)


def spectral_features_grad(g: np.ndarray, h: int, w: int, scale: float) -> np.ndarray:
    """The token gradient of a (B, h*w, C) grid's spectral features
    (:func:`unfold_features` of its :func:`grid_half_spectrum`, times
    ``scale``) for a (B, N, 2C) cotangent G: the map is linear, so it is
    Re(FFT2(scale * conj(G))) with G read as complex numbers, as
    contiguous (B, N, C) token gradients."""
    bsz, n, c2 = g.shape
    c = c2 // 2
    g = g.reshape(bsz, h, w, 2, c)
    z = np.empty((bsz, h, w, c), dtype=np.complex128)
    np.multiply(g[..., 0, :], scale, out=z.real)
    np.multiply(g[..., 1, :], -scale, out=z.imag)
    return np.ascontiguousarray(np.fft.fft2(z, axes=(1, 2)).real).reshape(bsz, n, c)


def fft2d(x) -> Tensor:
    """Differentiable forward 2-d DFT of a real (..., H, W) tensor: the
    (..., H, W, 2) planes, real part then imaginary part.

    Each leading slice is a one-channel H-by-W token grid, and the
    planes are its unscaled :func:`unfold_features`; the vjp is
    :func:`spectral_features_grad`, Re(FFT(conj G)), since for real input
    the cotangents pull back through the (symmetric) DFT matrix.
    """
    x = astensor(x)
    if x.ndim < 2:
        raise DimensionError(f"fft2d needs at least 2 axes, got shape {tuple(x.shape)}")
    shape = x.shape
    h, w = shape[-2:]
    grid = x.data.reshape(-1, h * w, 1)
    planes = unfold_features(grid_half_spectrum(grid, h, w), w, 1.0)

    def vjp(g):
        return (spectral_features_grad(g.reshape(-1, h * w, 2), h, w, 1.0).reshape(shape),)

    return Tensor._from_op(planes.reshape(shape + (2,)), (x,), vjp)


def magnitude(planes: Tensor) -> Tensor:
    """|F| of (..., 2) planes, with gradient defined as 0 at exact zeros."""
    pd = planes.data
    out = np.hypot(pd[..., 0], pd[..., 1])
    with np.errstate(divide="ignore"):
        inv = np.where(out > 0, 1.0 / out, 0.0)
    return Tensor._from_op(out, (planes,), lambda g: ((g * inv)[..., None] * pd,))


def phase(planes: Tensor) -> Tensor:
    """atan2(im, re) of (..., 2) planes, with gradient defined as 0 at
    exact zeros."""
    pd = planes.data
    re, im = pd[..., 0], pd[..., 1]
    out = np.arctan2(im, re)
    r2 = re * re + im * im
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(r2 > 0, 1.0 / r2, 0.0)
    inv = np.where(np.isfinite(inv), inv, 0.0)

    def vjp(g):
        gi = g * inv
        ga = np.empty_like(pd)
        ga[..., 0] = -gi * im
        ga[..., 1] = gi * re
        return (ga,)

    return Tensor._from_op(out, (planes,), vjp)
