import numpy as np
import pytest

from promptscan import fft
from promptscan.errors import DimensionError
from promptscan.fft import fft2d, magnitude
from promptscan.tensor import Tensor, reshape

from oracles import fft2d_hermitian, naive_dft2, spectral_features, transpose

SIZES = ((4, 4), (7, 5), (8, 8), (16, 16))


def spectrum(x):
    """fft2d's planes of a real array as complex numbers."""
    planes = fft2d(x).data
    return planes[..., 0] + 1j * planes[..., 1]


@pytest.mark.parametrize("hw", SIZES)
def test_matches_naive_dft(hw):
    rng = np.random.default_rng(hash(hw) % 2**32)
    x = rng.standard_normal(hw)
    # the half rfft2 leaves out is filled by Hermitian symmetry
    np.testing.assert_allclose(spectrum(x), naive_dft2(x), atol=1e-10)


@pytest.mark.parametrize("hw", SIZES)
def test_round_trip(hw):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(hw)
    back = np.fft.ifft2(spectrum(x))
    assert np.max(np.abs(back.imag)) <= 1e-10
    np.testing.assert_allclose(back.real, x, atol=1e-10)


@pytest.mark.parametrize("hw", SIZES)
def test_parseval(hw):
    rng = np.random.default_rng(12)
    x = rng.standard_normal(hw)
    spec = spectrum(x)
    lhs = np.sum(x * x)
    rhs = np.sum(np.abs(spec) ** 2) / (hw[0] * hw[1])
    assert abs(lhs - rhs) <= 1e-9


def test_linearity():
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal((2, 8, 8))
    lhs = spectrum(2.5 * a - 1.25 * b)
    rhs = 2.5 * spectrum(a) - 1.25 * spectrum(b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_delta_gives_flat_spectrum():
    x = np.zeros((8, 8))
    x[0, 0] = 1.0
    np.testing.assert_allclose(spectrum(x), np.ones((8, 8)), atol=1e-13)


def test_constant_image_is_dc_only():
    spec = spectrum(np.full((6, 4), 3.0))
    assert abs(spec[0, 0] - 3.0 * 24) <= 1e-12
    spec[0, 0] = 0
    assert np.max(np.abs(spec)) <= 1e-12


def test_conjugate_symmetry_for_real_input():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((6, 8))
    s = spectrum(x)
    h, w = x.shape
    for u in range(h):
        for v in range(w):
            assert abs(s[u, v] - np.conj(s[-u % h, -v % w])) <= 1e-10


def test_shift_theorem_phase():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((8, 8))
    dy, dx = 3, 5
    shifted = np.roll(np.roll(x, dy, axis=0), dx, axis=1)
    u = np.arange(8)[:, None]
    v = np.arange(8)[None, :]
    phase = np.exp(-2j * np.pi * (u * dy + v * dx) / 8)
    np.testing.assert_allclose(spectrum(shifted), spectrum(x) * phase, atol=1e-10)


def test_fft1d_odd_length_against_naive():
    # a length-1 leading axis leaves a 1-d transform over the odd axis
    rng = np.random.default_rng(16)
    x = rng.standard_normal(7)
    n = 7
    ref = np.array([sum(x[t] * np.exp(-2j * np.pi * k * t / n) for t in range(n)) for k in range(n)])
    np.testing.assert_allclose(spectrum(x[None, :])[0], ref, atol=1e-11)


def test_fft2d_needs_two_axes():
    with pytest.raises(DimensionError, match="at least 2 axes"):
        fft2d(np.ones(5))


def test_magnitude_pythagorean_value():
    assert magnitude(Tensor(np.array([[[3.0, 4.0]]]))).data[0, 0] == 5.0


def test_differentiable_transform_matches_raw():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((1, 1, 8, 8))
    spec = fft2d(Tensor(x)).data
    raw = np.fft.fft2(x)
    np.testing.assert_allclose(spec[..., 0], raw.real, atol=1e-12)
    np.testing.assert_allclose(spec[..., 1], raw.imag, atol=1e-12)
    rec = np.fft.ifft2(spec[..., 0] + 1j * spec[..., 1])
    np.testing.assert_allclose(rec.real, x, atol=1e-11)
    np.testing.assert_allclose(rec.imag, 0.0, atol=1e-11)


def test_backward_through_both_planes_runs_one_transform(monkeypatch):
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((2, 3, 6, 5)), requires_grad=True)
    w_re, w_im = rng.standard_normal((2,) + x.shape)
    spec = fft2d(x)
    loss = (spec[..., 0] * Tensor(w_re)).sum() + (spec[..., 1] * Tensor(w_im)).sum()

    calls = []
    transform = fft.np.fft.fft2

    def counting(*args, **kwargs):
        calls.append(1)
        return transform(*args, **kwargs)

    monkeypatch.setattr(fft.np.fft, "fft2", counting)
    loss.backward()
    assert len(calls) == 1
    # d/dx sum(w_re*Re F + w_im*Im F) = Re F(w_re - i*w_im), F symmetric
    want = np.real(naive_dft2(w_re - 1j * w_im))
    np.testing.assert_allclose(x.grad, want, atol=1e-11)


def _composite_features(x, h, w):
    """The chain the spectral-feature node replaced: lay the tokens on the
    grid, transform, move the channels last and scale by 1/N."""
    bsz, n, c = x.shape
    planes = fft2d_hermitian(transpose(reshape(x, (bsz, h, w, c)), (0, 3, 1, 2)))
    feats = reshape(transpose(planes, (0, 2, 3, 4, 1)), (bsz, n, 2 * c))
    return feats * (1.0 / n)


@pytest.mark.parametrize("hw", [(4, 6), (5, 7), (6, 5), (3, 4), (1, 5), (8, 1)])
def test_spectral_features_are_one_node_matching_the_fft2d_chain(hw):
    h, w = hw
    rng = np.random.default_rng(h * 10 + w)
    x0 = rng.standard_normal((3, h * w, 4))
    results = []
    for fn in (spectral_features, _composite_features):
        x = Tensor(x0.copy(), requires_grad=True)
        out = fn(x, h, w)
        if fn is spectral_features:
            assert out._parents == (x,)
        g = rng.standard_normal(out.shape) if not results else results[0][2]
        (out * Tensor(g)).sum().backward()
        results.append((out.data, x.grad, g))
    (out, grad, _), (ref, ref_grad, _) = results
    assert out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    assert grad.flags.c_contiguous
    assert grad.tobytes() == ref_grad.tobytes()



@pytest.mark.parametrize(
    "shape",
    [(4, 1, 32, 32), (1, 1, 64, 64), (2, 3, 6, 5), (1, 1, 7, 9), (1, 1, 8, 1), (1, 1, 1, 5),
     (1, 1, 256, 320)],
)
def test_fft2d_matches_the_hermitian_fill_byte_for_byte(shape):
    """fft2d, the token grid's transform on one channel, gives the planes
    and input gradient of rfft2 with its Hermitian half filled in a
    complex view and the vjp Re(FFT2(conj G)), bit for bit."""
    rng = np.random.default_rng(sum(shape))
    x0 = rng.standard_normal(shape)
    g = rng.standard_normal(shape + (2,))
    results = []
    for fn in (fft2d, fft2d_hermitian):
        x = Tensor(x0.copy(), requires_grad=True)
        planes = fn(x)
        assert planes._parents == (x,)
        (planes * Tensor(g)).sum().backward()
        results.append((planes.data, x.grad))
    (planes, grad), (ref, ref_grad) = results
    assert planes.shape == ref.shape == shape + (2,)
    assert planes.tobytes() == ref.tobytes()
    assert grad.shape == ref_grad.shape
    assert grad.tobytes() == ref_grad.tobytes()
