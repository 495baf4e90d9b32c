"""Binary PGM (P5) image I/O, 8-bit and 16-bit grayscale.

PGM is quaint but perfectly suited here: single channel, no
compression, bit-exact round trips, and readable with twenty lines of
code. 16-bit files (maxval > 255, big-endian samples per the format)
are linearly rescaled into the working [0, 255] range at load time.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, ParseError


def _next_token(buf: bytes, off: int, source: str):
    """Skip whitespace and # comments, return (token, new offset)."""
    n = len(buf)
    while off < n:
        c = buf[off : off + 1]
        if c == b"#":
            while off < n and buf[off : off + 1] not in (b"\n", b"\r"):
                off += 1
        elif c.isspace():
            off += 1
        else:
            break
    if off >= n:
        raise ParseError(f"{source}: header ended early at byte {off}")
    start = off
    while off < n and not buf[off : off + 1].isspace() and buf[off : off + 1] != b"#":
        off += 1
    return buf[start:off], off


def read_pgm(path):
    """Returns (image float64 [H, W] in [0, 255], meta dict)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    source = str(path)
    if buf[:2] != b"P5":
        raise ParseError(f"{source}: bad magic at byte 0, expected P5")
    off = 2
    fieldnames = ("width", "height", "maxval")
    vals = {}
    for name in fieldnames:
        tok, off = _next_token(buf, off, source)
        try:
            vals[name] = int(tok)
        except ValueError:
            raise ParseError(
                f"{source}: non-numeric {name} {tok!r} near byte {off}"
            ) from None
    w, h, maxval = vals["width"], vals["height"], vals["maxval"]
    if w < 1 or h < 1:
        raise ParseError(f"{source}: non-positive extents {w}x{h}")
    if not 0 < maxval < 65536:
        raise ParseError(f"{source}: maxval {maxval} outside 1..65535")
    sep = buf[off : off + 1]
    if not sep.isspace():
        raise ParseError(f"{source}: expected whitespace after maxval at byte {off}, got {sep!r}")
    off += 1  # the single whitespace byte after maxval
    wide = maxval > 255
    need = w * h * (2 if wide else 1)
    if len(buf) - off < need:
        raise ParseError(
            f"{source}: raster needs {need} bytes at byte {off}, "
            f"file has {len(buf) - off}"
        )
    raw = np.frombuffer(buf, dtype=">u2" if wide else np.uint8, count=w * h, offset=off)
    above = np.flatnonzero(raw > maxval)
    if above.size:
        at = off + int(above[0]) * raw.itemsize
        raise ParseError(f"{source}: sample {raw[above[0]]} at byte {at} exceeds maxval {maxval}")
    img = raw.reshape(h, w).astype(np.float64)
    if maxval != 255:
        img = img * (255.0 / maxval)
    return img, {"width": w, "height": h, "maxval": maxval}


def write_pgm(path, img) -> None:
    """Write an 8-bit P5 file; values rounded half away from zero, clamped.
    A NaN or an infinity has no sample value and is a ContractError."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionError(f"PGM writer needs a 2-d image, got {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ContractError("refusing to write an empty image")
    bad = img.size - np.count_nonzero(np.isfinite(img))
    if bad:
        raise ContractError(f"refusing to write {bad} non-finite values as PGM samples")
    rounded = np.sign(img) * np.floor(np.abs(img) + 0.5)
    data = np.clip(rounded, 0.0, 255.0).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
