import numpy as np
import pytest

from promptscan.errors import ConfigError, ContractError, DimensionError
from promptscan.fft import fft2d_raw
from promptscan.losses import (
    PHASE_EPS,
    LossWeights,
    build_feature_extractor,
    freq_loss,
    phase_loss,
    pixel_loss,
    thermal_mask,
    total_loss,
    uniform_mask,
)
from promptscan.tensor import Tensor


def rand_img(rng, shape=(1, 1, 8, 8)):
    return Tensor(rng.uniform(5, 250, shape))


def test_total_loss_is_zero_at_equality():
    rng = np.random.default_rng(0)
    img = rand_img(rng)
    for mask in (uniform_mask(img), Tensor(rng.uniform(0.1, 0.9, img.shape))):
        assert total_loss(img, img, mask, LossWeights()).item() == 0.0


def test_phase_loss_scale_invariance():
    rng = np.random.default_rng(1)
    sr, hr = rand_img(rng), rand_img(rng)
    base = phase_loss(sr, hr).item()
    scaled = phase_loss(sr * 3.7, hr * 3.7).item()
    assert abs(base - scaled) <= 1e-12


def test_freq_loss_shift_invariance_under_uniform_mask():
    rng = np.random.default_rng(2)
    sr, hr = rand_img(rng), rand_img(rng)
    mask = uniform_mask(sr)
    base = freq_loss(sr, hr, mask).item()
    roll = lambda t: Tensor(np.roll(t.data, (3, 5), axis=(2, 3)))
    shifted = freq_loss(roll(sr), roll(hr), mask).item()
    assert abs(base - shifted) <= 1e-10


def test_freq_loss_against_external_reference():
    rng = np.random.default_rng(3)
    sr, hr = rand_img(rng), rand_img(rng)
    m = rng.uniform(0.2, 1.0, sr.shape)
    got = freq_loss(sr, hr, Tensor(m)).item()
    fs = fft2d_raw(sr.data * m)
    fh = fft2d_raw(hr.data * m)
    ref = np.mean(np.abs(np.abs(fs) - np.abs(fh)))
    assert abs(got - ref) <= 1e-10


def test_phase_loss_against_external_reference():
    rng = np.random.default_rng(4)
    sr, hr = rand_img(rng), rand_img(rng)
    fs = fft2d_raw(sr.data)
    fh = fft2d_raw(hr.data)
    keep = (np.abs(fs) >= PHASE_EPS) & (np.abs(fh) >= PHASE_EPS)
    d = np.angle(fs) - np.angle(fh)
    wrapped = np.abs(np.arctan2(np.sin(d), np.cos(d)))
    ref = wrapped[keep].sum() / max(keep.sum(), 1)
    assert abs(phase_loss(sr, hr).item() - ref) <= 1e-10


def test_pixel_loss_is_mean_l1():
    rng = np.random.default_rng(5)
    sr, hr = rand_img(rng), rand_img(rng)
    ref = np.mean(np.abs(sr.data - hr.data))
    assert abs(pixel_loss(sr, hr).item() - ref) <= 1e-12


def test_total_loss_weights_and_parts():
    rng = np.random.default_rng(6)
    sr, hr = rand_img(rng), rand_img(rng)
    mask = uniform_mask(sr)
    parts = {}
    w = LossWeights(lambda_phase=0.25, lambda_freq=0.5, lambda_pix=2.0)
    total = total_loss(sr, hr, mask, w, parts=parts).item()
    ref = 0.25 * parts["phase"] + 0.5 * parts["freq"] + 2.0 * parts["pix"]
    assert abs(total - ref) <= 1e-12
    assert abs(parts["total"] - total) <= 1e-15


def test_loss_weight_validation_names_the_field():
    with pytest.raises(ConfigError, match="lambda_freq"):
        LossWeights(lambda_freq=-0.5).validate()
    with pytest.raises(ConfigError, match="lambda_phase"):
        LossWeights(lambda_phase=float("nan")).validate()


def test_thermal_mask_range_and_shape():
    rng = np.random.default_rng(7)
    hr = Tensor(rng.uniform(0, 255, (2, 1, 32, 24)))
    ex = build_feature_extractor(3)
    gate_k = Tensor(rng.standard_normal((1, ex.kernels[-1].shape[0], 1, 1)) * 0.3)
    gate_b = Tensor(np.zeros(1))
    m = thermal_mask(hr, gate_k, gate_b, ex).data
    assert m.shape == hr.shape
    assert np.all(m > 0.0) and np.all(m < 1.0)


def test_thermal_mask_depends_only_on_ground_truth():
    rng = np.random.default_rng(8)
    hr = Tensor(rng.uniform(0, 255, (1, 1, 16, 16)))
    ex = build_feature_extractor(0)
    gate_k = Tensor(rng.standard_normal((1, ex.kernels[-1].shape[0], 1, 1)))
    gate_b = Tensor(np.zeros(1))
    m1 = thermal_mask(hr, gate_k, gate_b, ex).data
    m2 = thermal_mask(Tensor(hr.data.copy()), gate_k, gate_b, ex).data
    np.testing.assert_array_equal(m1, m2)


def test_gate_bias_shifts_mask_monotonically():
    rng = np.random.default_rng(9)
    hr = Tensor(rng.uniform(0, 255, (1, 1, 16, 16)))
    ex = build_feature_extractor(1)
    gate_k = Tensor(rng.standard_normal((1, ex.kernels[-1].shape[0], 1, 1)) * 0.1)
    low = thermal_mask(hr, gate_k, Tensor(np.array([-1.0])), ex).data
    high = thermal_mask(hr, gate_k, Tensor(np.array([1.0])), ex).data
    assert np.all(high > low)


def test_extractor_is_seed_deterministic_and_frozen_shape():
    e1 = build_feature_extractor(42)
    e2 = build_feature_extractor(42)
    for k1, k2 in zip(e1.kernels, e2.kernels):
        np.testing.assert_array_equal(k1, k2)
    assert e1.reduction == 8
    assert not np.array_equal(build_feature_extractor(43).kernels[0], e1.kernels[0])


def test_thermal_mask_input_contracts():
    ex = build_feature_extractor(2)
    gate_k = Tensor(np.zeros((1, ex.kernels[-1].shape[0], 1, 1)))
    gate_b = Tensor(np.zeros(1))
    with pytest.raises(DimensionError):
        thermal_mask(Tensor(np.zeros((1, 3, 16, 16))), gate_k, gate_b, ex)
    with pytest.raises(ContractError):
        thermal_mask(Tensor(np.zeros((1, 1, 4, 4))), gate_k, gate_b, ex)


def test_freq_loss_shape_mismatch():
    a = Tensor(np.zeros((1, 1, 8, 8)))
    b = Tensor(np.zeros((1, 1, 8, 4)))
    with pytest.raises(DimensionError):
        freq_loss(a, b, uniform_mask(a))
