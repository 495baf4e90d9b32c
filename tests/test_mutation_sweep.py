"""A deterministic mutation sweep over every file format the program reads.

Each PGM, checkpoint header and config value below is cut at every byte
or has one byte (or value) replaced, and each case must either load or
raise one of the typed errors of ``promptscan.errors``: never a raw
``ValueError``, ``struct.error`` or ``UnicodeDecodeError``, which
``promptscan`` would print as a traceback. This is the idea of AFL-style
mutation fuzzing cut down to a fixed list, so it needs no fuzzer and
runs the same cases every time.
"""

import struct
from pathlib import Path

import numpy as np

from promptscan import errors
from promptscan.checkpoint import load_checkpoint, save_checkpoint
from promptscan.config import parse_config
from promptscan.network import build_model, desk_config
from promptscan.pgm import read_pgm, write_pgm

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# byte values worth trying at every position: NUL, low controls, the
# whitespace PGM and configs split on, "#", two digits, DEL, and the
# high bytes that are not UTF-8 on their own
BYTES = (0x00, 0x01, 0x09, 0x0A, 0x20, 0x23, 0x30, 0x39, 0x7F, 0x80, 0xFF)
# bad or edge values for every config key
VALUES = ("", "x", "-1", "0", "1e400", "nan", "inf", "-inf", "1.5",
          "99999999", "fused", "off", "3", "1e-400")


def _mutations(buf, end):
    """Every truncation of ``buf`` below ``end``, then every byte of its
    first ``end`` bytes replaced by each of ``BYTES`` (when it differs)."""
    for n in range(end):
        yield f"cut at {n}", buf[:n]
    for at in range(end):
        for b in BYTES:
            if buf[at] != b:
                yield f"byte {at} = {b:#04x}", buf[:at] + bytes([b]) + buf[at + 1 :]


def _untyped(cases, load):
    """(case, exception) for each case whose ``load`` raised an error from
    outside ``promptscan.errors``; ``load`` checks what it loaded."""
    bad = []
    for name, data in cases:
        try:
            load(data)
        except Exception as e:  # noqa: BLE001 - the sweep sorts them
            if type(e).__module__ != errors.__name__:
                bad.append((name, repr(e)))
    return bad


def test_every_pgm_mutation_loads_or_raises_a_typed_error(tmp_path):
    path = tmp_path / "m.pgm"
    write_pgm(path, np.arange(12.0).reshape(3, 4) * 20.0)
    narrow = path.read_bytes()
    wide = b"P5\n# a 16-bit sample\n3 2\n65535\n" + np.arange(
        0, 60000, 10000, dtype=">u2"
    ).tobytes()

    def load(data):
        path.write_bytes(data)
        img, meta = read_pgm(path)
        assert img.shape == (meta["height"], meta["width"])
        assert np.all((img >= 0.0) & (img <= 255.0))

    for buf in (narrow, wide):
        load(buf)
        assert _untyped(_mutations(buf, len(buf)), load) == []


def _first_record_end(buf):
    """The byte after a checkpoint's first parameter record."""
    (cfg_len,) = struct.unpack_from("<I", buf, 12)
    off = 16 + cfg_len + 4
    (name_len,) = struct.unpack_from("<H", buf, off)
    off += 2 + name_len
    rank = buf[off]
    shape = struct.unpack_from(f"<{rank}I", buf, off + 1)
    return off + 1 + 4 * rank + 8 * int(np.prod(shape))


def test_every_checkpoint_header_mutation_loads_or_raises_a_typed_error(tmp_path):
    """Over the magic, version, config text, count and first parameter
    record (205 bytes at this config); a mutated value loads if finite."""
    path = tmp_path / "m.bin"
    cfg = desk_config(channels=2, blocks=1, modules_per_block=1, pool_size=2)
    save_checkpoint(path, build_model(cfg), cfg)
    buf = path.read_bytes()
    end = _first_record_end(buf)
    assert end == 205

    def load(data):
        path.write_bytes(data)
        load_checkpoint(path)

    load(buf)
    assert _untyped(_mutations(buf, end), load) == []


def test_every_bad_config_value_loads_or_raises_a_typed_error():
    text = (CONFIGS / "desk.cfg").read_text(encoding="utf-8")
    lines = text.splitlines()
    keyed = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    assert len(keyed) == 20
    cases = []
    for i in keyed:
        key = lines[i].partition("=")[0]
        for value in VALUES:
            mutated = lines[:i] + [f"{key}={value}"] + lines[i + 1 :]
            cases.append((f"{key}={value}", "\n".join(mutated)))
    assert _untyped(cases, parse_config) == []
