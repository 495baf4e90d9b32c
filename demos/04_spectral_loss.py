"""The frequency-domain training objective, term by term.

Reconstruction quality is scored in the Fourier domain twice: once on
phase angles, which carry structure, and once on the magnitudes of
saliency-masked images, which carry energy placement. A pixel L1 term
anchors the DC component. This script demonstrates the identities the
terms are built around.

    python3 demos/04_spectral_loss.py
"""

import numpy as np

from promptscan.losses import (
    LossWeights,
    build_feature_extractor,
    freq_loss,
    phase_loss,
    thermal_mask,
    total_loss,
    uniform_mask,
)
from promptscan.network import build_model, desk_config
from promptscan.tensor import Tensor

rng = np.random.default_rng(1)
img = Tensor(rng.uniform(0, 255, (1, 1, 16, 16)))
other = Tensor(rng.uniform(0, 255, (1, 1, 16, 16)))

# A perfect reconstruction costs exactly zero, not approximately zero.
w = LossWeights(lambda_phase=0.2, lambda_freq=0.8, lambda_pix=0.0)
print("total_loss(I, I) =", total_loss(img, img, uniform_mask(img), w).item())
print("total_loss(I, J) =", round(total_loss(img, other, uniform_mask(img), w).item(), 4))

# Phase angles do not change when both images are scaled by the same
# positive constant, so neither does the phase term. Brightness drift
# between sensor captures therefore cannot hide structural error.
p0 = phase_loss(img, other).item()
p1 = phase_loss(img * 4.2, other * 4.2).item()
print(f"\nphase loss: {p0:.6f} vs scaled {p1:.6f} (diff {abs(p0 - p1):.2e})")

# The magnitude spectrum ignores circular translation. With a uniform
# mask the frequency term inherits that invariance exactly.
ones = uniform_mask(img)
f0 = freq_loss(img, other, ones).item()
rolled_img = Tensor(np.roll(img.data, (5, 3), axis=(2, 3)))
rolled_other = Tensor(np.roll(other.data, (5, 3), axis=(2, 3)))
f1 = freq_loss(rolled_img, rolled_other, ones).item()
print(f"freq loss:  {f0:.6f} vs shifted {f1:.6f} (diff {abs(f0 - f1):.2e})")

# The mask itself comes from a frozen random conv stack with a small
# trainable sigmoid gate on top. It only looks at the ground truth, so
# it shapes the objective without leaking gradients into the model
# through a second path.
params = build_model(desk_config(channels=4, blocks=1, modules_per_block=1,
                                 pool_size=2))
extractor = build_feature_extractor(seed=33)
mask = thermal_mask(img, params.gate_k, params.gate_b, extractor)
print("\nmask over the truth:", mask.shape, "values in",
      (round(float(mask.data.min()), 3), round(float(mask.data.max()), 3)))
