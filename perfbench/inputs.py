"""Seeded synthetic inputs: structured PGM images and a model checkpoint.

Routing and SSIM depend on image content, so the images are not
i.i.d. noise: each is a smooth field (a few low-frequency cosines over a
random base level) plus sharp edges (half-plane steps and discs) and a
little sensor noise. The PGM writer is the benchmark's own, so the
program only ever sees finished files.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np


def structured_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """An 8-bit (h, w) image: smooth field + edges + mild noise."""
    yy, xx = np.mgrid[0:h, 0:w] / float(max(h, w))
    img = np.full((h, w), rng.uniform(70.0, 180.0))
    for _ in range(4):
        fy, fx = rng.uniform(-3.0, 3.0, size=2)
        img += rng.uniform(8.0, 30.0) * np.cos(
            2.0 * np.pi * (fy * yy + fx * xx) + rng.uniform(0.0, 2.0 * np.pi)
        )
    for _ in range(3):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        cy, cx = rng.uniform(0.2, 0.8, size=2)
        side = np.cos(theta) * (xx - cx) + np.sin(theta) * (yy - cy) > 0.0
        img += rng.uniform(-60.0, 60.0) * side
    for _ in range(2):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        r = rng.uniform(0.05, 0.25)
        img += rng.uniform(-50.0, 50.0) * ((yy - cy) ** 2 + (xx - cx) ** 2 < r * r)
    img += rng.normal(0.0, 2.0, size=(h, w))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def write_pgm(path: Path, img: np.ndarray) -> None:
    h, w = img.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def write_images(directory: Path, seed: int, count: int, size: int) -> list:
    """``count`` seeded size-by-size images as img00.pgm, img01.pgm, ..."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        path = directory / f"img{i:02d}.pgm"
        write_pgm(path, structured_image(rng, size, size))
        paths.append(path)
    return paths


def write_checkpoint(path: Path, seed: int) -> None:
    """A desk-config checkpoint whose weights depend only on ``seed`` and
    each parameter's name and shape.

    The weights are redrawn per name, uniform in +-1/sqrt(fan_in) (fan_in
    is a matrix's row count, or a conv kernel's in-channels times its
    area), so a change to the program's init draw order or to which
    unused parameters it allocates leaves every weight the forward pass
    reads unchanged. Constant-initialised tensors (biases, norm gains,
    the decay init) keep their values. The reconstruction head is drawn
    100x smaller, so outputs stay near the bicubic skip as a trained
    model's do.
    """
    from promptscan.checkpoint import save_checkpoint
    from promptscan.network import ModelConfig, build_model, named_parameters

    cfg = ModelConfig()
    params = build_model(cfg)
    for name, t in named_parameters(params).items():
        if np.ptp(t.data) == 0.0:
            continue
        fan_in = int(np.prod(t.shape[1:])) if t.ndim == 4 else t.shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        if name == "final.k":
            bound *= 0.01
        rng = np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
        t.data = rng.uniform(-bound, bound, size=t.shape)
    save_checkpoint(path, params, cfg)
