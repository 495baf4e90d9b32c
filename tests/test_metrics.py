import math
from fractions import Fraction

import numpy as np
import pytest

from promptscan.errors import ContractError, DimensionError
from promptscan.metrics import (
    BIN_LABELS,
    ErrorHistogram,
    error_histogram,
    mse,
    psnr,
    ssim,
)


def test_psnr_closed_forms():
    zeros = np.zeros((10, 10))
    ones = np.ones((10, 10))
    db, m = psnr(ones, zeros)
    assert m == 1.0
    assert abs(db - 10 * math.log10(255.0**2)) <= 1e-12
    assert abs(db - 48.1308) <= 1e-4

    db_inf, m0 = psnr(zeros, zeros)
    assert math.isinf(db_inf) and m0 == 0.0


def test_mse_matches_numpy():
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0, 255, (2, 6, 7))
    assert abs(mse(a, b) - np.mean((a - b) ** 2)) <= 1e-10


def test_ssim_self_similarity_is_one():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 255, (16, 16))
    assert abs(ssim(img, img) - 1.0) <= 1e-12


def gaussian_window_reference(size=11, sigma=1.5):
    g = np.exp(-((np.arange(size) - size // 2) ** 2) / (2 * sigma**2))
    g /= g.sum()
    return np.outer(g, g)


def ssim_reference(a, b):
    """Straight per-window loops; independent of the library implementation."""
    win = gaussian_window_reference()
    k1, k2, L = 0.01, 0.03, 255.0
    c1, c2 = (k1 * L) ** 2, (k2 * L) ** 2
    h, w = a.shape
    vals = []
    for i in range(h - 10):
        for j in range(w - 10):
            pa = a[i : i + 11, j : j + 11]
            pb = b[i : i + 11, j : j + 11]
            mu_a = (win * pa).sum()
            mu_b = (win * pb).sum()
            var_a = (win * (pa - mu_a) ** 2).sum()
            var_b = (win * (pb - mu_b) ** 2).sum()
            cov = (win * (pa - mu_a) * (pb - mu_b)).sum()
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(vals))


def test_ssim_matches_window_oracle():
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 255, (14, 15))
    b = np.clip(a + rng.normal(0, 12, a.shape), 0, 255)
    assert abs(ssim(a, b) - ssim_reference(a, b)) <= 1e-8


def test_ssim_rejects_small_images():
    with pytest.raises(ContractError):
        ssim(np.zeros((10, 11)), np.zeros((10, 11)))


def test_error_histogram_bin_edges_are_exact():
    hr = np.zeros((1, 8))
    sr = np.array([[0.0, 4.999, 5.0, 9.999, 10.0, 19.999, 20.0, 1000.0]])
    hist = error_histogram(sr, hr)
    assert hist.counts == (2, 2, 2, 2)
    assert hist.total == 8
    np.testing.assert_allclose(hist.fractions(), [0.25] * 4)


def test_histogram_fractions_sum_exactly_to_one():
    rng = np.random.default_rng(3)
    sr = rng.uniform(0, 255, (13, 17))  # odd sizes: fractions are not dyadic
    hist = error_histogram(sr, np.zeros_like(sr))
    assert sum(Fraction(c, hist.total) for c in hist.counts) == Fraction(1)
    assert len(BIN_LABELS) == 4


def test_histogram_of_equal_images_is_all_first_bin():
    img = np.full((4, 4), 7.0)
    hist = error_histogram(img, img)
    assert hist.counts == (16, 0, 0, 0)
    assert hist.fractions() == (1.0, 0.0, 0.0, 0.0)


def test_histogram_dataclass_consistency():
    h = ErrorHistogram(counts=(1, 2, 3, 4), total=10)
    assert sum(Fraction(c, h.total) for c in h.counts) == Fraction(1)
    assert h.fractions()[3] == 0.4
