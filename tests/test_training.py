import tracemalloc

import numpy as np
import pytest

from promptscan import training
from promptscan.config import RunConfig
from promptscan.errors import ContractError, DimensionError
from promptscan.losses import build_feature_extractor, thermal_mask, total_loss
from promptscan.network import ForwardMode, build_model, desk_config, model_forward, seed_streams
from promptscan.pgm import write_pgm
from promptscan.tensor import Tensor, conv2d
from promptscan.training import (
    EVAL_HEADER,
    EvalRow,
    ImagePair,
    erf_map,
    evaluate,
    format_eval_rows,
    load_dataset,
    pair_from_hr,
    sample_batch,
    train_loop,
)

TINY = dict(channels=4, blocks=1, modules_per_block=1, pool_size=2, scale=2)


def _hr(seed=0, h=48, w=48):
    return np.random.default_rng(seed).uniform(0, 255, (h, w))


def _tiny_run_config(**train_overrides):
    cfg = RunConfig()
    for k, v in TINY.items():
        setattr(cfg.model, k, v)
    cfg.train.steps = 3
    cfg.train.batch = 1
    cfg.train.patch = 16
    cfg.train.ckpt_every = 2
    for k, v in train_overrides.items():
        setattr(cfg.train, k, v)
    return cfg


def test_pair_from_hr_crops_to_scale_multiple():
    pair = pair_from_hr(_hr(h=33, w=35), scale=2, pair_id="x")
    assert pair.hr.shape == (1, 32, 34)
    assert pair.lr.shape == (1, 16, 17)


def test_pair_from_hr_rejects_tiny_images():
    with pytest.raises(ContractError, match="too small"):
        pair_from_hr(_hr(h=15, w=40), scale=2, pair_id="small")


def test_pair_from_hr_rejects_non_2d():
    with pytest.raises(DimensionError, match="2-d"):
        pair_from_hr(np.zeros((1, 32, 32)), scale=2, pair_id="x")


def test_image_pair_shape_check():
    with pytest.raises(DimensionError, match="not 2x"):
        ImagePair(lr=np.zeros((1, 8, 8)), hr=np.zeros((1, 17, 16)), scale=2, id="bad")


def test_load_dataset_sorted_and_empty(tmp_path):
    write_pgm(tmp_path / "b.pgm", _hr(1, 32, 32))
    write_pgm(tmp_path / "a.pgm", _hr(2, 32, 32))
    pairs = load_dataset(tmp_path, scale=2)
    assert [p.id for p in pairs] == ["a", "b"]

    empty = tmp_path / "none"
    empty.mkdir()
    with pytest.raises(ContractError, match="no .pgm images"):
        load_dataset(empty, scale=2)


def test_sample_batch_shapes_and_alignment():
    pairs = [pair_from_hr(_hr(0), 2, "a")]
    rng = np.random.default_rng(0)
    lr_b, hr_b = sample_batch(pairs, rng, batch=3, patch=16, scale=2)
    assert lr_b.shape == (3, 1, 8, 8)
    assert hr_b.shape == (3, 1, 16, 16)


def test_sample_batch_is_deterministic():
    pairs = [pair_from_hr(_hr(0), 2, "a"), pair_from_hr(_hr(1), 2, "b")]
    a = sample_batch(pairs, np.random.default_rng(9), 4, 16, 2)
    b = sample_batch(pairs, np.random.default_rng(9), 4, 16, 2)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_sample_batch_crops_correspond():
    # every lr crop must be the bicubic-reduced window of its hr crop's
    # position, i.e. slices of the stored planes, not recomputed ones
    pair = pair_from_hr(_hr(3), 2, "a")
    rng = np.random.default_rng(2)
    lr_b, hr_b = sample_batch([pair], rng, batch=2, patch=16, scale=2)
    for i in range(2):
        found = False
        for y in range(0, 33, 2):
            for x in range(0, 33, 2):
                if np.array_equal(pair.hr[:, y : y + 16, x : x + 16], hr_b[i]):
                    np.testing.assert_array_equal(
                        pair.lr[:, y // 2 : y // 2 + 8, x // 2 : x // 2 + 8], lr_b[i]
                    )
                    found = True
        assert found


def test_sample_batch_rejects_small_pair():
    pair = pair_from_hr(_hr(0, 16, 16), 2, "a")
    with pytest.raises(ContractError, match="smaller than patch"):
        sample_batch([pair], np.random.default_rng(0), 1, 32, 2)


def test_train_loop_writes_log_and_checkpoint(tmp_path):
    pairs = [pair_from_hr(_hr(0), 2, "a")]
    cfg = _tiny_run_config()
    res = train_loop(pairs, cfg, tmp_path / "run")
    assert res.steps_run == 3
    assert res.ckpt_path.exists()
    lines = res.log_path.read_text().splitlines()
    assert lines[0] == "step\tloss_total\tloss_phase\tloss_freq\tloss_pix"
    assert len(lines) == 4
    assert lines[1].startswith("1\t")
    # every column is a finite float in scientific notation
    for ln in lines[1:]:
        cols = ln.split("\t")
        assert len(cols) == 5
        for c in cols[1:]:
            assert np.isfinite(float(c))
            assert "e" in c


def test_train_loop_log_every_thins_rows(tmp_path):
    pairs = [pair_from_hr(_hr(0), 2, "a")]
    cfg = _tiny_run_config(steps=5, log_every=2)
    res = train_loop(pairs, cfg, tmp_path / "run")
    steps = [int(ln.split("\t")[0]) for ln in res.log_path.read_text().splitlines()[1:]]
    assert steps == [2, 4, 5]  # multiples of log_every plus the last step


def test_train_loop_replay_is_byte_identical(tmp_path):
    pairs = [pair_from_hr(_hr(0), 2, "a")]
    r1 = train_loop(pairs, _tiny_run_config(), tmp_path / "one")
    r2 = train_loop(pairs, _tiny_run_config(), tmp_path / "two")
    assert r1.log_path.read_bytes() == r2.log_path.read_bytes()
    assert r1.ckpt_path.read_bytes() == r2.ckpt_path.read_bytes()


def test_train_loop_saves_a_last_step_checkpoint_once(monkeypatch, tmp_path):
    """4 steps with ckpt_every 2 save at steps 2 and 4 only, and the file
    holds the bytes a save after the loop would write."""
    saves = []
    save = training.save_checkpoint

    def counting_save(*args):
        saves.append(args[0])
        save(*args)

    monkeypatch.setattr(training, "save_checkpoint", counting_save)
    res = train_loop([pair_from_hr(_hr(0), 2, "a")], _tiny_run_config(steps=4), tmp_path / "run")
    assert saves == [res.ckpt_path] * 2
    save(tmp_path / "after.bin", res.params, res.cfg.model)
    assert res.ckpt_path.read_bytes() == (tmp_path / "after.bin").read_bytes()


def _desk_train_loss():
    """A function that runs a desk-config train forward plus thermal mask
    and loss (batch 4, HR patch 32) and returns the loss."""
    cfg = RunConfig()
    params = build_model(cfg.model)
    streams = seed_streams(cfg.model.seed)
    extractor = build_feature_extractor(
        int(np.random.default_rng(streams["extract"]).integers(0, 2**32))
    )
    pairs = [pair_from_hr(_hr(seed, 64, 64), cfg.model.scale, f"p{seed}") for seed in range(2)]
    lr_b, hr_b = sample_batch(
        pairs, np.random.default_rng(streams["data"]), cfg.train.batch, cfg.train.patch,
        cfg.model.scale,
    )

    def loss():
        sr = model_forward(Tensor(lr_b), params, cfg.model, ForwardMode(train=True))
        hr = Tensor(hr_b)
        return total_loss(sr, hr, thermal_mask(hr, params.gate_k, params.gate_b, extractor),
                          cfg.loss)

    return loss


def test_desk_train_forward_tape_holds_only_what_its_vjps_read(tape_objects, tape_bytes):
    """The desk train loss records 91 nodes whose vjps saved 12.29 MiB of
    distinct arrays, 11.80 MiB of live traced arrays. With the phase wrap
    as three nodes (sin, cos, atan2) it recorded 93 nodes that saved
    12.42 MiB (11.93 live). With four nodes per router (noise add, 1/tau
    scale, softmax, one-hot) it recorded 105 nodes, and with a transpose
    pair per block between NCHW feature maps and tokens 107, saving the
    same arrays. With three nodes per
    gated projection (linear, silu, linear) and two per head (layer_norm,
    linear), and the global prompt keeping its unfolded features, 119
    nodes saved 16.3 MiB (15.8 live). With the global prompt as five
    nodes (the features, three projections and an attention that kept q,
    k and v), the zoh decay as six and silu
    keeping its sigmoid, 155 nodes saved 21.3 MiB (20.8 live; 21.2 while
    each untracked parent stayed on the tape as its tensor). While the
    tape held every op output's tensor, and closures held tensors to
    read a shape or a flag, the same 155 nodes held 33.5 MiB; with two
    nodes per biased projection, conv and silu, six for the spectral
    features and a stored sigmoid in softplus, 199 nodes held 45.2 MiB."""
    run = _desk_train_loss()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = run()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(t._vjp is not None for t in tape_objects(loss)) == 91
    saved = tape_bytes(loss)
    kinds = ", ".join(
        f"{kind} {n / 2**20:.2f}" for kind, n in sorted(saved.items(), key=lambda kv: -kv[1])
    )
    assert sum(saved.values()) < 12.5 * 2**20, f"vjps saved (MiB): {kinds}"
    assert live < 12.5 * 2**20, f"tape holds {live / 2**20:.2f} MiB; vjps saved (MiB): {kinds}"


def _holds_a_tensor(value):
    items = value if isinstance(value, (tuple, list)) else (value,)
    return any(isinstance(v, Tensor) for v in items)


def test_desk_train_tape_keeps_no_tensor_but_its_leaves(tape_objects):
    """No vjp closure holds a tensor, directly or in a tuple or list, and
    the tape reaches no op output's tensor and no untracked one: either
    would keep an array that no vjp reads alive until backward."""
    loss = _desk_train_loss()()
    objects = tape_objects(loss)
    records = [t for t in objects if t._vjp is not None]
    assert len(records) == 91
    holding = sorted(
        {
            t._vjp.__qualname__
            for t in records
            for cell in t._vjp.__closure__ or ()
            if _holds_a_tensor(cell.cell_contents)
        }
    )
    assert holding == []
    leaves = [t for t in objects[1:] if isinstance(t, Tensor)]
    assert all(t._node is None and t.requires_grad for t in leaves)


def test_desk_train_tape_holds_no_transpose_and_conv2d_reads_any_nhwc_layout(tape_objects):
    """Feature maps are (B, H, W, C) from the shallow conv to the head, so
    a block's tokens are a reshape of its map and no transpose is
    recorded; conv2d gives the same bytes on a strided NHWC view as on
    its C-contiguous copy."""
    loss = _desk_train_loss()()
    kinds = {t._vjp.__qualname__.split(".")[0] for t in tape_objects(loss) if t._vjp is not None}
    assert "conv2d" in kinds and "transpose" not in kinds

    rng = np.random.default_rng(23)
    view = rng.standard_normal((2, 5, 6, 7)).transpose(0, 2, 3, 1)
    k, b = rng.standard_normal((4, 5, 3, 3)), rng.standard_normal(4)
    g = rng.standard_normal((2, 6, 7, 4))

    def run(x):
        leaves = [Tensor(a, requires_grad=True) for a in (x, k, b)]
        out = conv2d(leaves[0], leaves[1], 1, leaves[2])
        (out * Tensor(g)).sum().backward()
        return [out.data.tobytes()] + [np.ascontiguousarray(t.grad).tobytes() for t in leaves]

    assert not view.flags.c_contiguous
    assert run(view) == run(np.ascontiguousarray(view))


def test_train_loop_rejects_empty_dataset(tmp_path):
    with pytest.raises(ContractError, match="empty"):
        train_loop([], _tiny_run_config(), tmp_path / "run")


def test_checkpoint_reloads_into_identical_eval(tmp_path):
    from promptscan.checkpoint import load_checkpoint

    pairs = [pair_from_hr(_hr(0), 2, "a")]
    res = train_loop(pairs, _tiny_run_config(), tmp_path / "run")
    loaded, loaded_cfg = load_checkpoint(res.ckpt_path)
    a = evaluate(pairs, res.params, res.cfg.model)
    b = evaluate(pairs, loaded, loaded_cfg)
    assert a[0].psnr_db == b[0].psnr_db
    assert a[0].ssim == b[0].ssim


def test_evaluate_appends_mean_row():
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    pairs = [pair_from_hr(_hr(i), 2, f"im{i}") for i in range(2)]
    rows = evaluate(pairs, params, cfg)
    assert [r.image for r in rows] == ["im0", "im1", "mean"]
    assert rows[2].mse == pytest.approx((rows[0].mse + rows[1].mse) / 2)
    assert rows[2].ssim == pytest.approx((rows[0].ssim + rows[1].ssim) / 2)


def test_evaluate_rejects_empty_dataset():
    cfg = desk_config(**TINY)
    with pytest.raises(ContractError, match="empty"):
        evaluate([], build_model(cfg), cfg)


def test_evaluate_threaded_matches_serial():
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    pairs = [pair_from_hr(_hr(i), 2, f"im{i}") for i in range(3)]
    serial = evaluate(pairs, params, cfg, workers=1)
    threaded = evaluate(pairs, params, cfg, workers=3)
    for a, b in zip(serial, threaded):
        assert a == b


def test_format_eval_rows_inf_sentinel_and_columns():
    rows = [
        EvalRow("a", float("inf"), 0.0, 1.0, (1.0, 0.0, 0.0, 0.0)),
        EvalRow("b", 31.25, 48.6789129, 0.91234, (0.5, 0.25, 0.125, 0.125)),
    ]
    text = format_eval_rows(rows)
    lines = text.splitlines()
    assert lines[0] == EVAL_HEADER
    assert lines[1] == "a\tINF\t0.000000\t1.0000\t1.000000\t0.000000\t0.000000\t0.000000"
    cols = lines[2].split("\t")
    assert cols[1] == "31.2500"
    assert cols[2] == "48.678913"
    assert cols[3] == "0.9123"
    assert cols[4:] == ["0.500000", "0.250000", "0.125000", "0.125000"]


def test_erf_map_peak_is_one():
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    reach = erf_map(params, cfg, _hr(0, 16, 16))
    assert reach.shape == (16, 16)
    assert reach.max() == 1.0
    assert reach.min() >= 0.0


def test_erf_map_rejects_non_2d():
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    with pytest.raises(DimensionError):
        erf_map(params, cfg, np.zeros((1, 16, 16)))
