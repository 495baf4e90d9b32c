import os
import stat
import struct

import numpy as np
import pytest

from promptscan import checkpoint
from promptscan.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from promptscan.errors import DimensionError, ParseError
from promptscan.network import (
    ForwardMode,
    build_model,
    desk_config,
    model_forward,
    named_parameters,
)
from promptscan.tensor import Tensor
from promptscan.training import erf_map

TINY = dict(channels=4, blocks=1, modules_per_block=1, pool_size=2, scale=2)


def _tiny_model(seed=0):
    cfg = desk_config(seed=seed, **TINY)
    return build_model(cfg), cfg


def test_round_trip_restores_every_array_exactly(tmp_path):
    # prompts=off holds no prompt pool and no attention weights
    for extra in ({}, {"prompts": "off"}):
        cfg = desk_config(seed=3, **TINY, **extra)
        params = build_model(cfg)
        rng = np.random.default_rng(5)
        for t in named_parameters(params).values():
            t.data = rng.standard_normal(t.shape)

        path = tmp_path / "m.bin"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)

        assert loaded_cfg == cfg
        orig = named_parameters(params)
        back = named_parameters(loaded)
        assert sorted(orig) == sorted(back)
        for name in orig:
            np.testing.assert_array_equal(orig[name].data, back[name].data)


def test_resave_is_byte_identical(tmp_path):
    params, cfg = _tiny_model(seed=1)
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    save_checkpoint(a, params, cfg)
    loaded, loaded_cfg = load_checkpoint(a)
    save_checkpoint(b, loaded, loaded_cfg)
    assert a.read_bytes() == b.read_bytes()


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    params, cfg = _tiny_model(seed=2)
    path = tmp_path / "m.bin"
    save_checkpoint(path, params, cfg)
    before = path.read_bytes()

    class TornFile:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("No space left on device")

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: TornFile(open(*a, **k)), raising=False)
    for t in named_parameters(params).values():
        t.data = t.data + 1.0
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, params, cfg)

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]


def test_config_seed_travels_with_the_file(tmp_path):
    params, cfg = _tiny_model(seed=42)
    path = tmp_path / "m.bin"
    save_checkpoint(path, params, cfg)
    _, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg.seed == 42
    assert loaded_cfg.scale == 2


def test_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    params, cfg = _tiny_model()
    save_checkpoint(path, params, cfg)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="bad magic at byte 0"):
        load_checkpoint(path)


def test_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "m.bin"
    params, cfg = _tiny_model()
    save_checkpoint(path, params, cfg)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(ParseError, match="truncated at byte"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.bin"
    params, cfg = _tiny_model()
    save_checkpoint(path, params, cfg)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(ParseError, match="trailing bytes"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "m.bin"
    params, cfg = _tiny_model()
    save_checkpoint(path, params, cfg)
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC)] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="version 99"):
        load_checkpoint(path)


def test_model_key_the_design_does_not_have_is_a_parse_error(tmp_path):
    # files written while the model had a router option carry this line
    path = tmp_path / "m.bin"
    save_checkpoint(path, *_tiny_model())
    raw = path.read_bytes()
    at = len(MAGIC) + 4
    (cfg_len,) = struct.unpack_from("<I", raw, at)
    text = raw[at + 4 : at + 4 + cfg_len] + b"model.router=split\n"
    path.write_bytes(raw[:at] + struct.pack("<I", len(text)) + text + raw[at + 4 + cfg_len :])
    with pytest.raises(ParseError, match=r"unknown key 'model\.router'"):
        load_checkpoint(path)


def test_empty_file(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"")
    with pytest.raises(ParseError, match="truncated at byte 0"):
        load_checkpoint(path)


def test_loaded_model_runs_forward(tmp_path):
    params, cfg = _tiny_model(seed=7)
    path = tmp_path / "m.bin"
    save_checkpoint(path, params, cfg)
    loaded, loaded_cfg = load_checkpoint(path)

    x = Tensor(np.random.default_rng(0).uniform(0, 255, (1, 1, 8, 8)))
    a = model_forward(x, params, cfg, ForwardMode(train=False))
    b = model_forward(x, loaded, loaded_cfg, ForwardMode(train=False))
    np.testing.assert_array_equal(a.data, b.data)


def test_non_finite_blob_is_a_parse_error_naming_the_parameter(tmp_path):
    params, cfg = _tiny_model(seed=4)
    # a value no other blob holds marks where final.b's values start
    params.final_b.data = np.full(params.final_b.shape, 1234.5)
    path = tmp_path / "m.bin"
    save_checkpoint(path, params, cfg)
    raw = bytearray(path.read_bytes())
    at = raw.index(struct.pack("<d", 1234.5))
    raw[at : at + 8] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match=rf"'final\.b'.*non-finite.*byte {at}\b"):
        load_checkpoint(path)


@pytest.mark.parametrize("what", ["config text", "parameter name"])
def test_text_that_is_not_utf8_is_a_parse_error_naming_where_it_starts(tmp_path, what):
    params, cfg = _tiny_model(seed=6)
    path = tmp_path / "m.bin"
    save_checkpoint(path, params, cfg)
    raw = bytearray(path.read_bytes())
    start = len(MAGIC) + 8 if what == "config text" else raw.index(b"final.b")
    raw[start + 2] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match=rf"{what} at byte {start} is not UTF-8"):
        load_checkpoint(path)


def test_promptless_checkpoint_with_routing_logit_columns_is_a_dimension_error(tmp_path):
    """A prompts=off checkpoint saved while the packed projection still
    held its T routing-logit columns no longer loads."""
    cfg = desk_config(seed=2, prompts="off", **TINY)
    params = build_model(cfg)
    width = 3 * cfg.channels + cfg.pool_size
    mod = params.blocks[0].modules[0]
    mod.w_in, mod.b_in = Tensor(np.zeros((cfg.channels, width))), Tensor(np.zeros(width))
    path = tmp_path / "old.bin"
    save_checkpoint(path, params, cfg)
    with pytest.raises(DimensionError, match=r"'block0\.mod0\.b_in' has shape \(14,\)"):
        load_checkpoint(path)


def _saved_and_loaded(tmp_path, cfg):
    params = build_model(cfg)
    path = tmp_path / "m.bin"
    save_checkpoint(path, params, cfg)
    loaded, _ = load_checkpoint(path)
    return params, loaded


def test_loaded_parameters_are_not_tracked(tmp_path):
    params, loaded = _saved_and_loaded(tmp_path, desk_config(seed=1, **TINY))
    assert all(t.requires_grad for t in named_parameters(params).values())
    assert not any(t.requires_grad for t in named_parameters(loaded).values())


def test_eval_forward_on_loaded_parameters_records_no_tape(tmp_path):
    cfg = desk_config(seed=2, **TINY)
    params, loaded = _saved_and_loaded(tmp_path, cfg)
    x = Tensor(np.random.default_rng(3).uniform(0, 255, (1, 1, 12, 12)))
    mode = ForwardMode(train=False, route="hard")
    tracked = model_forward(x, params, cfg, mode)
    free = model_forward(x, loaded, cfg, mode)
    assert tracked.requires_grad and tracked._parents
    assert free.requires_grad is False and free._parents == ()
    assert free.data.tobytes() == tracked.data.tobytes()


def test_desk_forward_on_loaded_parameters_fits_without_a_tape(tmp_path, traced_peak):
    # at 32^2 LR the tracked forward peaks near 65 MiB, the untracked one
    # near 20 MiB
    cfg = desk_config()
    _, loaded = _saved_and_loaded(tmp_path, cfg)
    x = Tensor(np.random.default_rng(0).uniform(0, 255, (1, 1, 32, 32)))
    out, peak = traced_peak(
        lambda: model_forward(x, loaded, cfg, ForwardMode(train=False, route="hard"))
    )
    assert out.shape == (1, 1, 32 * cfg.scale, 32 * cfg.scale)
    assert peak < 32 * 2**20, peak / 2**20


def test_erf_on_loaded_parameters_matches_and_fills_no_parameter_grad(tmp_path):
    cfg = desk_config(seed=5, **TINY)
    params, loaded = _saved_and_loaded(tmp_path, cfg)
    img = np.random.default_rng(6).uniform(0, 255, (10, 10))
    want = erf_map(params, cfg, img)
    got = erf_map(loaded, cfg, img)
    assert got.tobytes() == want.tobytes()
    assert all(t.grad is None for t in named_parameters(loaded).values())


def test_save_fsyncs_the_temp_file_then_renames_then_fsyncs_the_directory(
    tmp_path, monkeypatch
):
    params, cfg = _tiny_model(seed=4)
    path = tmp_path / "m.bin"
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync dir",) if stat.S_ISDIR(st.st_mode) else ("fsync file", st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.getsize(src), os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_checkpoint(path, params, cfg)
    size = path.stat().st_size
    # the temp file is whole on disk before the rename makes it the checkpoint
    assert calls == [("fsync file", size), ("replace", size, str(path)), ("fsync dir",)]
    assert os.listdir(tmp_path) == ["m.bin"]
