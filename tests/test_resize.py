import numpy as np
import pytest

from promptscan.errors import ConfigError, DimensionError
from promptscan.resize import bicubic_resize, cubic_kernel, linear_kernel, resample, resample_matrix
from promptscan.tensor import Tensor


def keys_reference(s, a=-0.5):
    s = abs(s)
    if s <= 1:
        return (a + 2) * s**3 - (a + 3) * s**2 + 1
    if s < 2:
        return a * s**3 - 5 * a * s**2 + 8 * a * s - 4 * a
    return 0.0


def test_cubic_kernel_against_closed_form():
    xs = np.array([0.0, 0.3, 0.5, 1.0, 1.4, 1.999, 2.0, 2.5, -0.7, -1.6])
    vals = cubic_kernel(xs)
    ref = [keys_reference(s) for s in xs]
    np.testing.assert_allclose(vals, ref, atol=1e-15)
    assert cubic_kernel(np.array([0.0]))[0] == 1.0
    assert cubic_kernel(np.array([1.0]))[0] == 0.0


def test_linear_kernel_hat():
    xs = np.array([0.0, 0.5, 1.0, 1.5, -0.25])
    np.testing.assert_allclose(linear_kernel(xs), [1.0, 0.5, 0.0, 0.0, 0.75], atol=1e-15)


def test_resample_matrix_rows_are_normalized():
    for n_in, n_out, kind in ((8, 16, "cubic"), (16, 8, "cubic"), (5, 9, "linear")):
        m = resample_matrix(n_in, n_out, kind, antialias=n_out < n_in)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_resample_matrix_is_cached_read_only():
    m = resample_matrix(8, 16, "cubic", False)
    assert resample_matrix(8, 16, "cubic", False) is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_constants_survive_any_resize():
    x = np.full((1, 1, 6, 7), 42.0)
    for hw in ((12, 14), (3, 7), (9, 5)):
        out = resample(x, *hw, kind="cubic")
        np.testing.assert_allclose(out, 42.0, atol=1e-10)


def test_linear_ramp_reproduced_in_the_interior():
    # cubic convolution is exact on affine signals away from clamped edges
    ramp = np.arange(16.0)[None, None, None, :] * np.ones((1, 1, 4, 1))
    out = resample(ramp, 4, 32, kind="cubic", antialias=False)
    src = (np.arange(32) + 0.5) / 2.0 - 0.5
    inner = slice(4, 28)
    np.testing.assert_allclose(out[0, 0, 0, inner], src[inner], atol=1e-10)


def test_bilinear_midpoint_closed_form():
    x = np.array([[[[0.0, 10.0], [20.0, 30.0]]]])
    out = resample(x, 4, 4, kind="linear", antialias=False)
    # output pixel centers at src offsets -0.25, 0.25, 0.75, 1.25
    np.testing.assert_allclose(out[0, 0, 0], [0.0, 2.5, 7.5, 10.0], atol=1e-12)
    np.testing.assert_allclose(out[0, 0, :, 0], [0.0, 5.0, 15.0, 20.0], atol=1e-12)


def test_tensor_path_matches_ndarray_path():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 255, (1, 1, 8, 10))
    a = resample(x, 16, 20, kind="cubic")
    b = resample(Tensor(x), 16, 20, kind="cubic").data
    np.testing.assert_array_equal(a, b)


def test_antialias_widens_the_downscale_kernel():
    # the stretched kernel must gather from twice the footprint
    sharp = resample_matrix(16, 8, "cubic", antialias=False)
    smooth = resample_matrix(16, 8, "cubic", antialias=True)
    mid = 4
    assert np.count_nonzero(smooth[mid]) > np.count_nonzero(sharp[mid])
    np.testing.assert_allclose(smooth.sum(axis=1), 1.0, atol=1e-12)


def test_bicubic_resize_validates_factor_and_divisibility():
    img = np.zeros((8, 8))
    with pytest.raises(ConfigError):
        bicubic_resize(img, 3.0)
    with pytest.raises(DimensionError):
        bicubic_resize(np.zeros((7, 8)), 0.5)
    out = bicubic_resize(img, 0.25)
    assert out.shape == (2, 2)


def test_bicubic_resize_clips_to_pixel_range():
    # a step edge makes cubic overshoot; the pipeline op must clamp it
    img = np.zeros((8, 8))
    img[:, 4:] = 255.0
    up = bicubic_resize(img, 2.0)
    assert up.min() >= 0.0 and up.max() <= 255.0


def test_resample_rejects_unknown_kernel():
    with pytest.raises(ConfigError):
        resample(np.zeros((1, 1, 4, 4)), 8, 8, kind="lanczos")
