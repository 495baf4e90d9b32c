"""Versioned binary checkpoints: header, canonical config, named blobs.

Layout (all integers little-endian):

    8 bytes   magic "PSCKPT00"
    uint32    format version (currently 1)
    uint32    config text length, then that many UTF-8 bytes
              (the canonical model-section config)
    uint32    parameter count
    per parameter, in sorted-name order:
        uint16  name length, then UTF-8 name
        uint8   rank, then rank * uint32 extents
        float64 raw values, C order

Loading rebuilds the model from the stored config (so derived state
like router noise streams comes back from the same seed) and overwrites
the freshly initialized arrays in place with the stored blobs, so a
load allocates no second copy of the weights. A blob holding a NaN or
an infinity is rejected. The loaded parameters are not grad-tracked,
so a forward on them records no tape. A save of the loaded model
reproduces the original file byte for byte.

A save writes a temporary file next to the target, fsyncs it, renames
it over the target and fsyncs the directory. A save that fails partway
leaves the previous checkpoint intact, and after an OS crash the name
points at either the old file or the whole new one, never at a partial
write.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .config import format_model_config, parse_model_config
from .errors import DimensionError, ParseError
from .network import ModelConfig, ModelParams, build_model, named_parameters

MAGIC = b"PSCKPT00"
VERSION = 1


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig) -> None:
    named = named_parameters(params)
    cfg_text = format_model_config(cfg).encode("utf-8")
    out = [MAGIC, struct.pack("<I", VERSION)]
    out.append(struct.pack("<I", len(cfg_text)))
    out.append(cfg_text)
    out.append(struct.pack("<I", len(named)))
    for name in sorted(named):
        data = np.ascontiguousarray(named[name].data, dtype="<f8")
        nb = name.encode("utf-8")
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<B", data.ndim))
        out.append(struct.pack(f"<{data.ndim}I", *data.shape))
        out.append(data.tobytes())
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(out))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def _fsync_dir(path) -> None:
    """Make a rename in directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _Reader:
    def __init__(self, buf: bytes, source: str):
        self.buf = buf
        self.off = 0
        self.source = source

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise ParseError(
                f"{self.source}: truncated at byte {self.off}, "
                f"needed {n} more of {len(self.buf)} total"
            )
        chunk = self.buf[self.off : self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        at = self.off
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{self.source}: {what} at byte {at} is not UTF-8") from None


def load_checkpoint(path):
    """Returns (ModelParams, ModelConfig) reconstructed from the file.

    The parameters come back with ``requires_grad=False``: evaluation,
    inference and the erf probe read them but never need their
    gradients, and a forward on untracked parameters keeps no tape.
    Code that resumes training from a checkpoint sets ``requires_grad``
    back to True on the tensors its optimizer updates.

    Raises ParseError on a malformed file, naming the byte offset of a
    NaN or infinity in a blob (and its parameter) or of non-UTF-8 text.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, str(path))
    if r.take(len(MAGIC)) != MAGIC:
        raise ParseError(f"{path}: bad magic at byte 0")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = r.unpack("<I")
    cfg = parse_model_config(r.text(cfg_len, "config text"), source=str(path))
    (count,) = r.unpack("<I")

    params = build_model(cfg)
    named = named_parameters(params)
    if count != len(named):
        raise ParseError(
            f"{path}: file holds {count} parameters, model defines {len(named)}"
        )
    seen = set()
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len, "parameter name")
        if name not in named:
            raise ParseError(f"{path}: unknown parameter {name!r}")
        if name in seen:
            raise ParseError(f"{path}: duplicate parameter {name!r}")
        seen.add(name)
        (rank,) = r.unpack("<B")
        shape = r.unpack(f"<{rank}I") if rank else ()
        want = tuple(named[name].shape)
        if tuple(shape) != want:
            raise DimensionError(
                f"{path}: parameter {name!r} has shape {tuple(shape)}, model wants {want}"
            )
        n = int(np.prod(shape)) if shape else 1
        at = r.off
        values = np.frombuffer(r.take(8 * n), dtype="<f8")
        finite = np.isfinite(values)
        if not finite.all():
            bad = at + 8 * int(np.argmin(finite))
            raise ParseError(f"{path}: parameter {name!r} has a non-finite value at byte {bad}")
        named[name].data[...] = values.reshape(shape)
        named[name].requires_grad = False
    if r.off != len(buf):
        raise ParseError(f"{path}: {len(buf) - r.off} trailing bytes at byte {r.off}")
    return params, cfg
