"""Fidelity metrics over 8-bit-range grayscale images.

All functions take plain numpy arrays; metrics sit on the evaluation
side of the pipeline where nothing needs a gradient. PSNR of identical
images is reported as +inf and formatted with an INF sentinel upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError

_PEAK = 255.0
# SSIM's standard constants (Wang et al. 2004): an 11x11 Gaussian window
# of sigma 1.5, and c1 = (0.01 L)^2, c2 = (0.03 L)^2 at peak L
_SSIM_SIZE = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = (0.01 * _PEAK) ** 2
_SSIM_C2 = (0.03 * _PEAK) ** 2


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.mean(d * d))


def psnr(a: np.ndarray, b: np.ndarray) -> tuple:
    """(psnr_db, mse); identical inputs give (inf, 0.0)."""
    err = mse(a, b)
    if err == 0.0:
        return math.inf, 0.0
    return 10.0 * math.log10(_PEAK * _PEAK / err), err


def _gaussian_taps() -> np.ndarray:
    """1-d Gaussian summing to one; the 2-d window is its outer product."""
    half = (_SSIM_SIZE - 1) / 2.0
    x = np.arange(_SSIM_SIZE) - half
    g = np.exp(-(x * x) / (2.0 * _SSIM_SIGMA * _SSIM_SIGMA))
    return g / g.sum()


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM, 11x11 Gaussian window sigma 1.5, valid positions only."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise DimensionError(f"ssim expects 2-d images, got {a.shape}")
    size = _SSIM_SIZE
    if a.shape[0] < size or a.shape[1] < size:
        raise ContractError(f"image {a.shape} smaller than the {size}x{size} window")
    g = _gaussian_taps()
    h, w = a.shape[0] - size + 1, a.shape[1] - size + 1

    def filt(x):
        # the window is separable: shifted axpys down the rows, then across
        down = g[0] * x[:h]
        for i in range(1, size):
            down += g[i] * x[i : i + h]
        out = g[0] * down[:, :w]
        for j in range(1, size):
            out += g[j] * down[:, j : j + w]
        return out

    mu_a, mu_b = filt(a), filt(b)
    var_a = filt(a * a) - mu_a * mu_a
    var_b = filt(b * b) - mu_b * mu_b
    cov = filt(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return float(np.mean(num / den))


_BIN_EDGES = (5.0, 10.0, 20.0)
BIN_LABELS = ("f0_5", "f5_10", "f10_20", "f20_inf")


@dataclass
class ErrorHistogram:
    """Absolute-error counts over [0,5), [5,10), [10,20), [20,inf).

    Counts are exact integers so the fractions sum to exactly one as
    rationals; float fractions are derived views.
    """

    counts: tuple
    total: int

    def fractions(self) -> tuple:
        return tuple(c / self.total for c in self.counts)


def error_histogram(sr: np.ndarray, hr: np.ndarray) -> ErrorHistogram:
    sr, hr = np.asarray(sr, dtype=np.float64), np.asarray(hr, dtype=np.float64)
    if sr.shape != hr.shape:
        raise DimensionError(f"shape mismatch: {sr.shape} vs {hr.shape}")
    d = np.abs(sr - hr).ravel()
    e0, e1, e2 = _BIN_EDGES
    c0 = int(np.count_nonzero(d < e0))
    c1 = int(np.count_nonzero((d >= e0) & (d < e1)))
    c2 = int(np.count_nonzero((d >= e1) & (d < e2)))
    c3 = int(np.count_nonzero(d >= e2))
    return ErrorHistogram(counts=(c0, c1, c2, c3), total=d.size)
