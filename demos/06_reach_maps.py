"""Receptive-field maps and spectrum images as PGM files.

Two diagnostics that ship with the toolkit, demonstrated head to head:
the gradient reach map of the center output pixel (who influenced this
pixel?) and the log-magnitude / phase spectrum maps of an image. The
reach map is the network-level counterpart of the Jacobian triangles in
demo 02: prompts widen it from a local conv stencil to the full plane.

    python3 demos/06_reach_maps.py
"""

import tempfile
from pathlib import Path

import numpy as np

from promptscan.fft import fft2d, magnitude
from promptscan.network import build_model, desk_config
from promptscan.pgm import write_pgm
from promptscan.training import erf_map

out = Path(tempfile.mkdtemp(prefix="maps_"))
probe = np.random.default_rng(0).uniform(0, 255, (16, 16))


def summarize(reach, title):
    alive = (reach > 1e-12).mean()
    print(f"{title}: {alive:.0%} of input pixels reach the center output")
    rows = (reach > 1e-12).any(axis=1).nonzero()[0]
    cols = (reach > 1e-12).any(axis=0).nonzero()[0]
    print(f"  bounding box rows {rows.min()}..{rows.max()}, "
          f"cols {cols.min()}..{cols.max()}")


# Full model, prompts on: the attention inside every module gives the
# center pixel a view of the entire input plane even at random init.
cfg_on = desk_config(channels=8, blocks=2, modules_per_block=2, pool_size=4,
                     scale=2)
reach_on = erf_map(build_model(cfg_on), cfg_on, probe)
summarize(reach_on, "prompts fused")
write_pgm(out / "reach_fused.pgm", reach_on * 255.0)

# Same architecture with prompts off and the recurrence's state
# multiplier forced to zero. All that remains is the conv stack, and
# the reach collapses to its stencil. Zeros outside it are exact.
cfg_off = desk_config(channels=8, blocks=2, modules_per_block=2, pool_size=4,
                      scale=2, prompts="off")
params_off = build_model(cfg_off)
for blk in params_off.blocks:
    for m in blk.modules:
        m.a_log.data = np.full_like(m.a_log.data, 40.0)
reach_off = erf_map(params_off, cfg_off, probe)
summarize(reach_off, "prompts off, zero state carry")
write_pgm(out / "reach_conv_only.pgm", reach_off * 255.0)

# Spectrum maps of a test card: a diagonal grating concentrates energy
# in two symmetric off-center peaks of the magnitude plane.
xx, yy = np.mgrid[0:64, 0:64]
card = 128 + 100 * np.sin(2 * np.pi * (3 * xx + 5 * yy) / 64)
mag = np.log1p(magnitude(fft2d(card)).data)
mag = np.roll(mag, (32, 32), axis=(0, 1))  # DC to the center
write_pgm(out / "card_magnitude.pgm", mag * (255.0 / mag.max()))
peaks = np.argwhere(mag > 0.5 * mag.max())
offsets = [(int(r) - 32, int(c) - 32) for r, c in peaks]
print(f"\ngrating spectrum: {len(peaks)} strong bins at (row, col) offsets {offsets}")
print(f"\nmaps written under {out}")
