"""End-to-end runs of every subcommand through cli.main.

Output is captured with redirect_stdout/redirect_stderr rather than
pytest's capsys so the tests keep working when capture is disabled
(the suite runs with -s to surface the acceptance report lines).
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from promptscan.cli import main
from promptscan.config import RunConfig, format_config, load_config
from promptscan.errors import ConfigError
from promptscan.gradsuite import run_suite
from promptscan.pgm import read_pgm, write_pgm


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def dataset(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    rng = np.random.default_rng(0)
    for name in ("one", "two"):
        write_pgm(d / f"{name}.pgm", rng.uniform(0, 255, (32, 32)))
    return d


@pytest.fixture
def tiny_cfg(tmp_path):
    cfg = RunConfig()
    cfg.model.channels = 4
    cfg.model.blocks = 1
    cfg.model.modules_per_block = 1
    cfg.model.pool_size = 2
    cfg.train.steps = 2
    cfg.train.batch = 1
    cfg.train.patch = 16
    p = tmp_path / "tiny.cfg"
    p.write_text(format_config(cfg))
    return p


def _train(tmp_path, dataset, tiny_cfg):
    out = tmp_path / "run"
    rc, stdout, _ = _run(["train", "--config", str(tiny_cfg),
                          "--data", str(dataset), "--out", str(out)])
    assert rc == 0
    return out, stdout


def test_train_writes_outputs_and_echoes_config(tmp_path, dataset, tiny_cfg):
    out, stdout = _train(tmp_path, dataset, tiny_cfg)
    assert (out / "train_log.tsv").exists()
    assert (out / "checkpoint.bin").exists()
    # the echoed config is the fully merged one and parses back
    echoed = load_config(out / "run.cfg")
    assert echoed == load_config(tiny_cfg)
    assert "trained 2 steps" in stdout


def test_eval_prints_tsv(tmp_path, dataset, tiny_cfg):
    out, _ = _train(tmp_path, dataset, tiny_cfg)
    rc, stdout, _ = _run(["eval", "--ckpt", str(out / "checkpoint.bin"),
                          "--data", str(dataset), "--scale", "2"])
    assert rc == 0
    lines = stdout.splitlines()
    assert lines[0].split("\t") == [
        "image", "psnr_db", "mse", "ssim", "f0_5", "f5_10", "f10_20", "f20_inf"]
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["one", "two", "mean"]
    for ln in lines[1:]:
        fracs = [float(c) for c in ln.split("\t")[4:]]
        assert sum(fracs) == pytest.approx(1.0, abs=1e-9)


def test_eval_rejects_wrong_scale(tmp_path, dataset, tiny_cfg):
    out, _ = _train(tmp_path, dataset, tiny_cfg)
    rc, _, err = _run(["eval", "--ckpt", str(out / "checkpoint.bin"),
                       "--data", str(dataset), "--scale", "4"])
    assert rc == 1
    assert "error:" in err and "scale" in err


def test_eval_missing_checkpoint_is_runtime_error(tmp_path, dataset):
    rc, _, err = _run(["eval", "--ckpt", str(tmp_path / "no.bin"),
                       "--data", str(dataset)])
    assert rc == 1
    assert "error:" in err


def test_eval_of_a_checkpoint_with_non_utf8_config_text_is_runtime_error(
    tmp_path, dataset, tiny_cfg
):
    out, _ = _train(tmp_path, dataset, tiny_cfg)
    ckpt = out / "checkpoint.bin"
    raw = bytearray(ckpt.read_bytes())
    raw[16] = 0xFF  # the first byte of the config text
    ckpt.write_bytes(bytes(raw))
    rc, _, err = _run(["eval", "--ckpt", str(ckpt), "--data", str(dataset)])
    assert rc == 1
    assert err.startswith("error:") and "config text at byte 16 is not UTF-8" in err


def test_eval_non_finite_output_is_runtime_error(tmp_path, dataset, monkeypatch):
    from promptscan import training
    from promptscan.checkpoint import save_checkpoint
    from promptscan.network import build_model, desk_config
    from promptscan.tensor import Tensor

    cfg = desk_config(channels=4, blocks=1, modules_per_block=1, pool_size=2, scale=2)
    ckpt = tmp_path / "m.bin"
    save_checkpoint(ckpt, build_model(cfg), cfg)

    def nan_forward(x, params, cfg, mode):
        _, _, h, w = x.shape
        return Tensor(np.full((1, 1, h * cfg.scale, w * cfg.scale), np.nan))

    monkeypatch.setattr(training, "model_forward", nan_forward)
    rc, stdout, err = _run(["eval", "--ckpt", str(ckpt), "--data", str(dataset)])
    assert rc == 1
    assert err.startswith("error:") and "image one" in err
    assert stdout == ""


def test_gradcheck_filtered():
    rc, stdout, _ = _run(["gradcheck", "--module", "matmul", "--instances", "2"])
    assert rc == 0
    assert "matmul" in stdout and "ok" in stdout


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gradcheck_with_no_instances_is_usage_error(count):
    """A check over zero instances would report ok having checked nothing."""
    rc, stdout, err = _run(["gradcheck", "--module", "matmul", "--instances", count])
    assert rc == 2
    assert stdout == ""
    assert "--instances" in err and "at least 1" in err


@pytest.mark.parametrize("count", [0, -1])
def test_run_suite_rejects_fewer_than_one_instance(count):
    with pytest.raises(ConfigError, match="at least 1"):
        run_suite(only="matmul", instances=count)


@pytest.mark.parametrize("count", ["0", "-2"])
def test_eval_with_no_workers_is_usage_error(tmp_path, dataset, count):
    """Rejected while parsing, before the (missing) checkpoint is read."""
    rc, stdout, err = _run(["eval", "--ckpt", str(tmp_path / "missing.bin"),
                            "--data", str(dataset), "--workers", count])
    assert rc == 2
    assert stdout == ""
    assert "--workers" in err and "at least 1" in err


def test_gradcheck_unknown_module():
    rc, _, err = _run(["gradcheck", "--module", "nonexistent-check"])
    assert rc == 1
    assert "no gradient check matches" in err


def test_erf_writes_probe_map(tmp_path, dataset, tiny_cfg):
    out, _ = _train(tmp_path, dataset, tiny_cfg)
    probe = tmp_path / "probe.pgm"
    write_pgm(probe, np.random.default_rng(1).uniform(0, 255, (16, 16)))
    dest = tmp_path / "reach.pgm"
    rc, _, _ = _run(["erf", "--ckpt", str(out / "checkpoint.bin"),
                     "--image", str(probe), "--out", str(dest)])
    assert rc == 0
    reach, _ = read_pgm(dest)
    assert reach.shape == (16, 16)
    assert reach.max() == 255.0


def test_spectrum_constant_image_is_pure_dc(tmp_path):
    img = tmp_path / "flat.pgm"
    write_pgm(img, np.full((8, 8), 200.0))
    rc, _, _ = _run(["spectrum", "--image", str(img),
                     "--out-prefix", str(tmp_path / "spec")])
    assert rc == 0
    mag, _ = read_pgm(tmp_path / "spec_magnitude.pgm")
    # DC lands at the center after the half-plane roll, everything else zero
    assert mag[4, 4] == 255.0
    rest = mag.copy()
    rest[4, 4] = 0
    assert rest.max() == 0.0
    phase, _ = read_pgm(tmp_path / "spec_phase.pgm")
    assert phase.shape == (8, 8)


def test_unknown_subcommand_is_usage_error():
    rc, _, _ = _run(["compress"])
    assert rc == 2


def test_missing_required_flag_is_usage_error():
    rc, _, _ = _run(["train", "--data", "/tmp/x"])
    assert rc == 2


def test_unknown_flag_is_usage_error():
    rc, _, _ = _run(["gradcheck", "--turbo"])
    assert rc == 2


def test_help_exits_zero():
    rc, stdout, _ = _run(["--help"])
    assert rc == 0
    assert "train" in stdout


def test_train_with_bad_config_reports_line(tmp_path, dataset):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.scale=3\n")
    rc, _, err = _run(["train", "--config", str(bad), "--data", str(dataset),
                       "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "error:" in err and "line 1" in err
