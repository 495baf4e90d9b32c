"""Spectral training objective with a thermally-weighted magnitude term.

The objective compares reconstruction and ground truth in the frequency
domain twice over: once on phase angles (structure) and once on the
magnitudes of salience-masked images (spectral energy where a gating
network says the scene is interesting). A plain pixel L1 term is kept
behind a weight because purely spectral losses leave the spatial DC
sign underdetermined at small scale; setting lambda_pix to 0 recovers
the pure two-term objective.

The saliency mask comes from a frozen random-but-seeded convolutional
feature stack; only the 1x1 gate on top of it is trained. The mask is a
function of the ground truth alone, so it modulates the loss without
opening a second gradient path into the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .fft import fft2d, magnitude, phase
from .resize import resample
from .tensor import Tensor, absolute, astensor, conv2d, sigmoid, tmean

# bins whose magnitude falls below this have no meaningful phase
PHASE_EPS = 1e-8


@dataclass
class LossWeights:
    lambda_phase: float = 0.2
    lambda_freq: float = 0.8
    lambda_pix: float = 1.0

    def validate(self) -> None:
        for name in ("lambda_phase", "lambda_freq", "lambda_pix"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class FeatureExtractor:
    """Frozen conv stack: three 3x3 conv + relu + 2x decimation stages.

    Weights are drawn once from the given seed and never trained; the
    stack only has to produce stable, spatially organized features for
    the gate to weigh, not good ones.
    """

    kernels: list
    biases: list

    @property
    def reduction(self) -> int:
        return 2 ** len(self.kernels)


def build_feature_extractor(seed: int) -> FeatureExtractor:
    rng = np.random.default_rng(seed)
    chans = [1, 8, 16, 16]
    kernels, biases = [], []
    for cin, cout in zip(chans[:-1], chans[1:]):
        s = 1.0 / np.sqrt(cin * 9)
        kernels.append(rng.uniform(-s, s, size=(cout, cin, 3, 3)))
        biases.append(np.zeros(cout))
    return FeatureExtractor(kernels=kernels, biases=biases)


def thermal_mask(hr, gate_k: Tensor, gate_b: Tensor, extractor: FeatureExtractor) -> Tensor:
    """Sigmoid saliency map of the ground truth, upsampled to full size.

    Differentiable only in the gate parameters; the extractor features
    are constants and ``hr`` is data, read as a (B, H, W, 1) map.
    """
    hr = astensor(hr)
    if hr.ndim != 4 or hr.shape[1] != 1:
        raise DimensionError(f"mask input must be (B, 1, H, W), got {tuple(hr.shape)}")
    bsz, _, h, w = hr.shape
    red = extractor.reduction
    if h < red or w < red:
        raise ContractError(
            f"image {h}x{w} too small for a {red}x feature reduction"
        )
    feat = hr.data.reshape(bsz, h, w, 1) * (1.0 / 255.0)
    for k, b in zip(extractor.kernels, extractor.biases):
        feat = np.maximum(conv2d(feat, k, 1, b).data[:, ::2, ::2], 0.0)
    gate = conv2d(feat, gate_k, 0, gate_b)
    gate = gate.reshape(bsz, 1, *gate.shape[1:3])
    return resample(sigmoid(gate), h, w, kind="linear", antialias=False)


def uniform_mask(hr) -> Tensor:
    """mask = 1 everywhere; turns the spectral term into plain magnitude L1."""
    return Tensor(np.ones_like(astensor(hr).data))


def _wrap_phase(d: Tensor) -> Tensor:
    """The angle ``d`` wrapped into [-pi, pi] as atan2(sin d, cos d), one
    node: off the (measure-zero) wrap points its derivative is 1, so the
    vjp hands the cotangent on unchanged and keeps no array."""
    dd = d.data
    return Tensor._from_op(np.arctan2(np.sin(dd), np.cos(dd)), (d,), lambda g: (g,))


def phase_loss(sr, hr) -> Tensor:
    """Mean absolute wrapped phase difference over confident bins.

    The raw angle difference is discontinuous at +-pi; wrapping it keeps
    the loss continuous with unit gradient everywhere except the
    (measure-zero) wrap point (:func:`_wrap_phase`). Bins where
    either spectrum's magnitude falls below ``PHASE_EPS`` carry
    numerically meaningless angles and are excluded from the mean; the
    mask multiplies the loss, so their cotangent is already 0 when the
    phase's vjp runs.
    """
    sr, hr = astensor(sr), astensor(hr)
    if sr.shape != hr.shape:
        raise DimensionError(f"shape mismatch: {tuple(sr.shape)} vs {tuple(hr.shape)}")
    fs, fh = fft2d(sr), fft2d(hr)
    d = phase(fs) - phase(fh)
    wrapped = _wrap_phase(d)
    ps, ph = fs.data, fh.data
    keep = (np.hypot(ps[..., 0], ps[..., 1]) >= PHASE_EPS) & (
        np.hypot(ph[..., 0], ph[..., 1]) >= PHASE_EPS
    )
    count = max(float(keep.sum()), 1.0)
    return (absolute(wrapped) * Tensor(keep)).sum() * (1.0 / count)


def freq_loss(sr, hr, mask: Tensor) -> Tensor:
    """Mean L1 distance between magnitude spectra of the masked images."""
    sr, hr = astensor(sr), astensor(hr)
    if sr.shape != hr.shape:
        raise DimensionError(f"shape mismatch: {tuple(sr.shape)} vs {tuple(hr.shape)}")
    if mask.shape != sr.shape:
        raise DimensionError(
            f"mask shape {tuple(mask.shape)} does not match images {tuple(sr.shape)}"
        )
    ms = magnitude(fft2d(sr * mask))
    mh = magnitude(fft2d(hr * mask))
    return tmean(absolute(ms - mh))


def pixel_loss(sr, hr) -> Tensor:
    sr, hr = astensor(sr), astensor(hr)
    if sr.shape != hr.shape:
        raise DimensionError(f"shape mismatch: {tuple(sr.shape)} vs {tuple(hr.shape)}")
    return tmean(absolute(sr - hr))


def total_loss(sr, hr, mask: Tensor, w: LossWeights, parts: dict | None = None) -> Tensor:
    """Weighted sum of the three terms; ``parts`` receives their floats."""
    w.validate()
    lp = phase_loss(sr, hr)
    lf = freq_loss(sr, hr, mask)
    lx = pixel_loss(sr, hr)
    total = lp * w.lambda_phase + lf * w.lambda_freq + lx * w.lambda_pix
    if parts is not None:
        parts["phase"] = lp.item()
        parts["freq"] = lf.item()
        parts["pix"] = lx.item()
        parts["total"] = total.item()
    return total
