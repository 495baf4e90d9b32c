"""2-d Fourier transforms on ``numpy.fft``, with a differentiable spectrum.

Conventions: the forward transform is unnormalized, kernel
``exp(-2*pi*i*k*n/N)``, over the trailing two axes.

:func:`fft2d_raw` works on numpy arrays and carries no gradient;
:func:`fft2d` is the same transform for :class:`~.tensor.Tensor`
inputs. A spectrum is one tape node whose value holds both planes in one
real array, ``planes[..., 0]`` the real part and ``planes[..., 1]`` the
imaginary part (the memory layout of a complex array), so the backward
pass of a transform is a single transform however many consumers read
its planes. The spectral attention's front end is the transform of a
token grid over its grid axes, laid out per token, in two steps
(:func:`grid_half_spectrum`, then :func:`unfold_features`) so that a
caller can keep the smaller rfft half and unfold it again;
:func:`spectral_features_grad` is that map's vjp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import Tensor

# -- raw complex transform --------------------------------------------


def fft2d_raw(a: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT over the trailing two axes."""
    a = np.asarray(a)
    if a.ndim < 2:
        raise DimensionError(f"fft2d needs at least 2 axes, got shape {a.shape}")
    return np.fft.fft2(a)


def _complex(planes: np.ndarray) -> np.ndarray:
    """Complex view of a C-contiguous (..., 2) real/imaginary plane
    array, as every cotangent is."""
    return planes.view(np.complex128)[..., 0]


# -- differentiable wrappers --------------------------------------------


@dataclass
class ComplexSpectrum:
    """A transform as one tracked tensor of shape ``(..., H, W, 2)``."""

    planes: Tensor

    @property
    def re(self) -> Tensor:
        return self.planes[..., 0]

    @property
    def im(self) -> Tensor:
        return self.planes[..., 1]

    def magnitude(self) -> Tensor:
        """|F|, with gradient defined as 0 at exact zeros."""
        p = self.planes
        pd = p.data
        out = np.hypot(pd[..., 0], pd[..., 1])
        with np.errstate(divide="ignore"):
            inv = np.where(out > 0, 1.0 / out, 0.0)
        return Tensor._from_op(out, (p,), lambda g: ((g * inv)[..., None] * pd,))

    def phase(self) -> Tensor:
        """atan2(im, re), with gradient defined as 0 at exact zeros."""
        p = self.planes
        pd = p.data
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

        return Tensor._from_op(out, (p,), vjp)


def fft2d(x: Tensor) -> ComplexSpectrum:
    """Differentiable forward 2-d DFT of a real tensor.

    The forward pass runs a real-input transform and fills the other
    half of the spectrum from Hermitian symmetry, writing both planes
    straight into one array. For real input the cotangents pull back
    through the (symmetric) DFT matrix: with G = Gre - i*Gim,
    dL/dx = Re(F(G)).
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.ndim < 2:
        raise DimensionError(f"fft2d needs at least 2 axes, got shape {tuple(x.shape)}")
    w = x.shape[-1]
    half = w // 2 + 1
    r = np.fft.rfft2(x.data)
    planes = np.empty(x.shape + (2,))
    spec = _complex(planes)
    spec[..., :half] = r
    # F[k1, k2] = conj(F[-k1, w - k2]) for the columns rfft2 leaves out
    tail = r[..., (w - 1) // 2 : 0 : -1]
    np.conjugate(tail[..., :1, :], out=spec[..., :1, half:])
    np.conjugate(tail[..., :0:-1, :], out=spec[..., 1:, half:])

    def vjp(g):
        return (np.real(fft2d_raw(np.conj(_complex(g)))),)

    return ComplexSpectrum(Tensor._from_op(planes, (x,), vjp))


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


def unfold_features(half: np.ndarray, w: int) -> np.ndarray:
    """The per-token spectral features (B, N, 2C) of a grid of width
    ``w`` from its :func:`grid_half_spectrum`: token (k1, k2) gets the C
    real parts, then the C imaginary parts, of F[k1, k2], scaled by 1/N.
    The half and its Hermitian mirror are written straight into the
    token layout and scaled in place."""
    bsz, h, _, c = half.shape
    feats = np.empty((bsz, h, w, 2, c))
    _unfold_half(feats[..., 0, :], half.real)
    _unfold_half(feats[..., 1, :], half.imag, negate=True)
    feats *= 1.0 / (h * w)
    return feats.reshape(bsz, h * w, 2 * c)


def spectral_features_grad(g: np.ndarray, h: int, w: int) -> np.ndarray:
    """The token gradient of a (B, h*w, C) grid's spectral features
    (:func:`unfold_features` of its :func:`grid_half_spectrum`) for a
    (B, N, 2C) cotangent G: the map is linear, so it is
    Re(FFT2(conj(G) / N)) with G read as complex numbers, as contiguous
    (B, N, C) token gradients."""
    bsz, n, c2 = g.shape
    c, scale = c2 // 2, 1.0 / n
    g = g.reshape(bsz, h, w, 2, c)
    z = np.empty((bsz, h, w, c), dtype=np.complex128)
    np.multiply(g[..., 0, :], scale, out=z.real)
    np.multiply(g[..., 1, :], -scale, out=z.imag)
    return np.ascontiguousarray(np.fft.fft2(z, axes=(1, 2)).real).reshape(bsz, n, c)

