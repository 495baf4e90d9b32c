"""Separable image resampling with cubic and linear kernels.

Resampling is expressed as two fixed weight matrices, one per axis,
built once from the kernel and applied with a pair of matrix products.
That makes the operation exactly linear, cheap to differentiate (the
matrices are constants), and easy to test against per-pixel kernel-sum
oracles.

Geometry: output sample i is taken at source coordinate
(i + 0.5) / scale - 0.5, i.e. pixel centers are aligned. When
downscaling, the kernel is stretched by the inverse scale so it
low-passes before decimation (antialias); upscaling never stretches.
Out-of-range taps are clamped to the edge pixel, and every row of
weights is renormalized to sum to 1, so constants are reproduced
exactly everywhere including corners.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor, separable_map, separable_product

# the classic Keys parameter; -0.5 reproduces quadratics
_CUBIC_A = -0.5


def cubic_kernel(t: np.ndarray) -> np.ndarray:
    """Keys bicubic kernel with a = -0.5, support (-2, 2)."""
    a = _CUBIC_A
    t = np.abs(np.asarray(t, dtype=np.float64))
    t2 = t * t
    t3 = t2 * t
    near = (a + 2.0) * t3 - (a + 3.0) * t2 + 1.0
    far = a * t3 - 5.0 * a * t2 + 8.0 * a * t - 4.0 * a
    return np.where(t <= 1.0, near, np.where(t < 2.0, far, 0.0))


def linear_kernel(t: np.ndarray) -> np.ndarray:
    """Triangle kernel, support (-1, 1)."""
    t = np.abs(np.asarray(t, dtype=np.float64))
    return np.maximum(0.0, 1.0 - t)


_KERNELS = {"cubic": (cubic_kernel, 2.0), "linear": (linear_kernel, 1.0)}


@functools.lru_cache(maxsize=64)
def resample_matrix(
    n_in: int, n_out: int, kind: str = "cubic", antialias: bool = True
) -> np.ndarray:
    """Dense (n_out, n_in) weight matrix for one axis.

    Matrices are cached per argument set and returned read-only, so
    every caller shares one copy.
    """
    if kind not in _KERNELS:
        raise ConfigError(f"unknown resampling kernel {kind!r}")
    if n_in < 1 or n_out < 1:
        raise ContractError(f"resample extents must be positive, got {n_in}->{n_out}")
    kernel, support = _KERNELS[kind]
    scale = n_out / n_in
    stretch = max(1.0 / scale, 1.0) if antialias else 1.0
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = (i + 0.5) / scale - 0.5
        lo = int(np.floor(src - support * stretch)) + 1
        hi = int(np.floor(src + support * stretch))
        taps = np.arange(lo, hi + 1)
        w = kernel((taps - src) / stretch)
        total = w.sum()
        if total <= 0:
            raise ContractError(f"empty kernel footprint at output index {i}")
        w = w / total
        np.add.at(m[i], np.clip(taps, 0, n_in - 1), w)
    m.flags.writeable = False
    return m


def resample(x, out_h: int, out_w: int, kind: str = "cubic", antialias=None):
    """Resize the trailing two axes; differentiable for Tensor input.

    ``antialias=None`` decides per axis: stretch the kernel only where
    the extent shrinks. Values are NOT clipped; this is the path used
    inside the model, where clipping would zero gradients.
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if data.ndim < 2:
        raise DimensionError(f"resample needs at least 2 axes, got {data.shape}")
    h, w = data.shape[-2], data.shape[-1]
    aa_h = (out_h < h) if antialias is None else bool(antialias)
    aa_w = (out_w < w) if antialias is None else bool(antialias)
    rows = resample_matrix(h, out_h, kind, aa_h)
    cols = resample_matrix(w, out_w, kind, aa_w)
    if isinstance(x, Tensor):
        return separable_map(x, rows, cols)
    return separable_product(data, rows, cols)


_FACTORS = {0.25: None, 0.5: None, 2.0: None, 4.0: None}


def bicubic_resize(img: np.ndarray, factor: float) -> np.ndarray:
    """Dataset-pipeline resize: bicubic, then clipped to [0, 255].

    Only the pipeline's factors are accepted. Shrinking requires the
    extents to be divisible so LR and HR grids stay exactly aligned.
    This op is for data preparation; the model's internal skip uses
    :func:`resample`, which keeps gradients and does not clip.
    """
    f = float(factor)
    if f not in _FACTORS:
        raise ConfigError(f"unsupported resize factor {factor}; use 1/4, 1/2, 2, or 4")
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[-2], img.shape[-1]
    out_h, out_w = h * f, w * f
    if out_h != int(out_h) or out_w != int(out_w):
        raise DimensionError(
            f"extents {h}x{w} do not divide by factor {factor}"
        )
    out = resample(img, int(out_h), int(out_w), kind="cubic", antialias=None)
    return np.clip(out, 0.0, 255.0)
