import cProfile
import hashlib
import sys
import weakref

import numpy as np
import pytest

from promptscan import tensor
from promptscan.errors import ConfigError, ContractError, DimensionError
from promptscan.network import (
    ForwardMode,
    ModelConfig,
    asf_ssb_forward,
    asf_ssm_forward,
    build_model,
    desk_config,
    model_forward,
    named_parameters,
    seed_streams,
)
from promptscan.resize import resample
from promptscan.scan import zoh_decay
from promptscan.tensor import Tensor, conv2d, linear_silu_linear, pixel_shuffle

TINY = dict(channels=4, blocks=1, modules_per_block=1, pool_size=2, scale=2)


def _nhwc(a):
    """An NCHW array as the C-contiguous (B, H, W, C) map a block takes."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def test_zeroed_head_reduces_model_to_bicubic_exactly():
    # output = bicubic skip + 255 * deep(x); killing the head isolates the skip
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    params.final_k.data[:] = 0.0
    params.final_b.data[:] = 0.0
    rng = np.random.default_rng(0)
    lr = rng.uniform(0, 255, (1, 1, 8, 8))
    out = model_forward(Tensor(lr), params, cfg).data
    skip = resample(lr, 16, 16, kind="cubic", antialias=False)
    np.testing.assert_array_equal(out, skip)


def test_fresh_model_deep_path_is_live():
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    rng = np.random.default_rng(0)
    lr = rng.uniform(0, 255, (1, 1, 8, 8))
    out = model_forward(Tensor(lr), params, cfg).data
    skip = resample(lr, 16, 16, kind="cubic", antialias=False)
    assert np.any(out != skip)


def test_forward_shapes_scale_2_and_4():
    for scale, hw in ((2, 16), (4, 32)):
        cfg = desk_config(**{**TINY, "scale": scale})
        params = build_model(cfg)
        out = model_forward(Tensor(np.zeros((2, 1, 8, 8))), params, cfg)
        assert out.shape == (2, 1, hw, hw)


def test_build_is_seed_deterministic():
    cfg = desk_config(**TINY, seed=5)
    p1 = named_parameters(build_model(cfg))
    p2 = named_parameters(build_model(cfg))
    assert p1.keys() == p2.keys()
    for name in p1:
        np.testing.assert_array_equal(p1[name].data, p2[name].data)
    p3 = named_parameters(build_model(desk_config(**TINY, seed=6)))
    assert any(not np.array_equal(p1[n].data, p3[n].data) for n in p1)


def test_parameter_names_cover_structure():
    cfg = desk_config(channels=4, blocks=2, modules_per_block=2, pool_size=2, scale=4)
    names = set(named_parameters(build_model(cfg)))
    assert "shallow.k" in names
    assert "block0.mod0.w_mlp" in names and "block1.mod1.pool" in names
    assert "up0.k" in names and "up1.k" in names  # two stages at scale 4
    assert "final.k" in names and "gate.k" in names


def test_default_config_holds_only_the_weights_it_reads():
    named = named_parameters(build_model(ModelConfig()))
    assert len(named) == 60
    assert sum(t.size for t in named.values()) == 85_778


def test_promptless_model_drops_the_routing_logit_columns():
    """With prompts off the packed projection is 3C wide, since only the
    router reads its T logit columns: 264 values fewer per desk module.
    Every value kept is the fused model's for the same seed."""
    fused = named_parameters(build_model(desk_config(seed=5)))
    off = named_parameters(build_model(desk_config(seed=5, prompts="off")))
    c, t = 32, 8
    dropped = sum(fused[name].size - p.size for name, p in off.items())
    assert dropped == 4 * (c * t + t) == 4 * 264
    for name, p in off.items():
        want = fused[name].data
        if name.endswith((".w_in", ".b_in")):
            want = want[..., : 3 * c]
        assert p.shape == want.shape
        np.testing.assert_array_equal(p.data, want)


@pytest.mark.parametrize("prompts", ["fused", "off"])
def test_every_parameter_but_the_mask_gate_gets_a_gradient(prompts):
    cfg = desk_config(**TINY, prompts=prompts)
    params = build_model(cfg)
    rng = np.random.default_rng(4)
    out = model_forward(
        Tensor(rng.uniform(0, 255, (1, 1, 8, 8))), params, cfg, ForwardMode(train=True)
    )
    (out * Tensor(rng.standard_normal(out.shape))).sum().backward()
    missing = [
        name for name, t in named_parameters(params).items()
        if t.grad is None and not name.startswith("gate.")
    ]
    assert missing == []


def test_seeded_init_is_pinned():
    """The init draw stream is part of the replay contract: saved runs and
    the bench's reference checks rebuild the same weights from a seed."""
    named = named_parameters(build_model(desk_config(seed=3)))
    digest = hashlib.sha256()
    for name in sorted(named):
        digest.update(name.encode("utf-8"))
        digest.update(named[name].data.tobytes())
    assert digest.hexdigest() == (
        "884ff0b5803dfdb52178ad78a744d3cd75dab52d4daa45b8fc3cfb955b6f854f"
    )


def test_module_with_zero_head_makes_block_an_identity():
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    for mod in params.blocks[0].modules:
        mod.w_out.data[:] = 0.0
        mod.b_out.data[:] = 0.0
    x = Tensor(_nhwc(np.random.default_rng(1).standard_normal((1, cfg.channels, 6, 6))))
    out = asf_ssb_forward(x, params.blocks[0], cfg, ForwardMode())
    np.testing.assert_array_equal(out.data, x.data)


def test_block_residual_is_additive():
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    rng = np.random.default_rng(2)
    x = Tensor(_nhwc(rng.standard_normal((1, cfg.channels, 6, 6))))
    out = asf_ssb_forward(x, params.blocks[0], cfg, ForwardMode())
    assert out.shape == x.shape
    assert np.any(out.data != x.data)


def test_hard_route_module_records_one_node_per_norm_and_scan(tape_objects):
    cfg = desk_config()
    mp = build_model(cfg).blocks[0].modules[0]
    x = Tensor(np.random.default_rng(3).standard_normal((2, 64, cfg.channels)), requires_grad=True)
    out = asf_ssm_forward(x, mp, cfg, 8, 8, mode=ForwardMode(train=True, route="hard"))
    nodes = sum(t._vjp is not None for t in tape_objects(out))
    # 49 when layer_norm recorded 9 nodes and the scan order 5 gathers; 36
    # while the spectral features took 6 nodes, each biased projection 2
    # and silu 2; 27 while the global prompt took 5 nodes and the zoh
    # decay 6; 18 while the gated projection took 3 and the head 2; 15
    # while the router took 4 (noise add, 1/tau scale, softmax, one-hot)
    assert nodes == 15 - 3


def _up_conv_read_by_pixel_shuffle(params, cfg, rng):
    x = Tensor(_nhwc(rng.standard_normal((2, cfg.channels, 8, 8))), requires_grad=True)
    mid = conv2d(x, params.up_k[0], 1, params.up_b[0])
    return x, mid, lambda: [pixel_shuffle(mid, 2)]


def _x_in_read_by_the_gate_slices(params, cfg, rng):
    mp = params.blocks[0].modules[0]
    x = Tensor(rng.standard_normal((2, 64, cfg.channels)), requires_grad=True)
    mid = linear_silu_linear(x, mp.w_mlp, mp.b_mlp, mp.w_in, mp.b_in)

    def consume():
        c = cfg.channels
        gates = [mid[..., c : 2 * c], mid[..., 2 * c : 3 * c], mid[..., 3 * c :]]
        return [zoh_decay(mid, c, mp.a_log)] + gates

    return x, mid, consume


@pytest.mark.parametrize("case", [_up_conv_read_by_pixel_shuffle, _x_in_read_by_the_gate_slices])
def test_an_intermediate_no_vjp_reads_dies_while_its_tape_lives(case):
    """pixel_shuffle's vjp reads nothing of the up conv's output and the
    gate slices' vjps only its shape, so each array is freed as soon as
    the caller drops it, before backward; the gradients are the same
    bits as when the caller keeps it."""
    cfg = desk_config()
    params = build_model(cfg)
    leaves = named_parameters(params)

    def grads(keep):
        for t in leaves.values():
            t.grad = None
        x, mid, consume = case(params, cfg, np.random.default_rng(14))
        arrays = [mid.data] + ([] if mid.data.base is None else [mid.data.base])
        refs = [weakref.ref(a) for a in arrays]
        del arrays
        outs = consume()
        kept = mid if keep else None
        del mid, consume
        loss = sum((o * Tensor(np.cos(np.arange(o.size)).reshape(o.shape))).sum() for o in outs)
        del outs
        assert all((r() is None) != keep for r in refs)
        loss.backward()
        del kept
        return [x.grad] + [t.grad for t in leaves.values()]

    for got, want in zip(grads(keep=False), grads(keep=True)):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()


def test_untracked_module_holds_each_intermediate_only_until_its_last_reader(traced_peak):
    """(1, 4096, 32) without a tape: the global prompt runs while nothing
    else is alive, the projection and routing die before the scan, the
    zoh decay reads its slice of the projection as a view, and the scan
    gathers only a and b * x, so the module peaks at 7.7 MiB, below 8
    (N, C) float64 arrays. It peaked at 9.6 MiB while the decay's chain
    copied the slice and kept its timescale, and at 20 MiB while every
    intermediate lived until the module returned."""
    cfg = desk_config()
    params = build_model(cfg)
    for t in named_parameters(params).values():
        t.requires_grad = False
    h = w = 64
    x = Tensor(np.random.default_rng(12).standard_normal((1, h * w, cfg.channels)))
    out, peak = traced_peak(lambda: asf_ssm_forward(x, params.blocks[0].modules[0], cfg, h, w))
    assert out._parents == ()
    assert peak <= 8 * x.data.nbytes, f"peak {peak / 2**20:.2f} MiB"


def test_traced_module_publishes_the_scan_in_scan_order(module_stages):
    cfg = desk_config()
    mp = build_model(cfg).blocks[0].modules[0]
    x = Tensor(np.random.default_rng(13).standard_normal((2, 64, cfg.channels)))
    asf_ssm_forward(x, mp, cfg, 8, 8)
    assert set(module_stages) == {
        "x_in", "route", "p_spatial", "p_global", "p_fused", "perm",
        "c_s", "h", "y", "y_tokens",
    }
    stages = module_stages
    perm = stages["perm"][..., None]
    assert np.any(perm[..., 0] != np.arange(64))
    c = cfg.channels
    gate = stages["x_in"][..., 2 * c : 3 * c] + stages["p_fused"]
    assert stages["c_s"].tobytes() == np.take_along_axis(gate, perm, 1).tobytes()
    assert stages["y"].tobytes() == np.take_along_axis(stages["y_tokens"], perm, 1).tobytes()


def test_traced_module_without_prompts_publishes_only_the_scan(module_stages):
    cfg = desk_config(prompts="off")
    mp = build_model(cfg).blocks[0].modules[0]
    x = Tensor(np.random.default_rng(13).standard_normal((2, 64, cfg.channels)))
    asf_ssm_forward(x, mp, cfg, 8, 8)
    assert set(module_stages) == {"x_in", "c_s", "h", "y", "y_tokens"}
    stages, c = module_stages, cfg.channels
    assert stages["c_s"].tobytes() == stages["x_in"][..., 2 * c : 3 * c].tobytes()
    assert stages["y"].tobytes() == stages["y_tokens"].tobytes()


def test_module_rejects_bad_token_shapes():
    cfg = desk_config(**TINY)
    mp = build_model(cfg).blocks[0].modules[0]
    with pytest.raises(DimensionError):
        asf_ssm_forward(Tensor(np.zeros((1, 9, 3))), mp, cfg, 3, 3)
    with pytest.raises(DimensionError):
        asf_ssm_forward(Tensor(np.zeros((1, 8, 4))), mp, cfg, 3, 3)


def test_model_input_contracts():
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    with pytest.raises(DimensionError):
        model_forward(Tensor(np.zeros((1, 3, 8, 8))), params, cfg)
    with pytest.raises(ContractError):
        model_forward(Tensor(np.zeros((1, 1, 4, 4))), params, cfg)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_model_input_is_a_contract_error_naming_the_count(value):
    # one bad pixel would make every output pixel non-finite
    cfg = desk_config(**TINY)
    params = build_model(cfg)
    lr = np.full((2, 1, 16, 16), 100.0)
    lr[0, 0, 3, 5] = lr[1, 0, 15, 0] = value
    with pytest.raises(ContractError, match="2 non-finite values of 512"):
        model_forward(Tensor(lr), params, cfg)


def test_config_validation_messages_name_fields():
    with pytest.raises(ConfigError, match="scale"):
        ModelConfig(scale=3).validate()
    with pytest.raises(ConfigError, match="pool_size"):
        ModelConfig(pool_size=1).validate()
    with pytest.raises(ConfigError, match="temperature"):
        ModelConfig(temperature=-1.0).validate()
    with pytest.raises(ConfigError, match="prompts"):
        ModelConfig(prompts="dense").validate()


def test_prompts_off_mode_runs_and_differs():
    base = desk_config(**TINY, seed=9)
    off = desk_config(**TINY, seed=9, prompts="off")
    rng = np.random.default_rng(3)
    lr = rng.uniform(0, 255, (1, 1, 8, 8))
    pa = build_model(base)
    po = build_model(off)
    for mod_a, mod_o in zip(pa.blocks[0].modules, po.blocks[0].modules):
        mod_a.w_out.data[:] = 0.1
        mod_o.w_out.data[:] = 0.1
    ya = model_forward(Tensor(lr), pa, base).data
    yo = model_forward(Tensor(lr), po, off).data
    assert not np.array_equal(ya, yo)


def test_seed_streams_are_stable_and_distinct():
    s1 = seed_streams(0)
    s2 = seed_streams(0)
    assert set(s1) == {"init", "route", "extract", "data"}
    for k in s1:
        r1 = np.random.default_rng(s1[k]).integers(0, 2**32, 4)
        r2 = np.random.default_rng(s2[k]).integers(0, 2**32, 4)
        np.testing.assert_array_equal(r1, r2)
    a = np.random.default_rng(s1["init"]).integers(0, 2**32, 4)
    b = np.random.default_rng(s1["data"]).integers(0, 2**32, 4)
    assert not np.array_equal(a, b)


def _desk_step_bytes(run):
    """Output and parameter-gradient bytes of a desk train forward plus
    backward on a fresh model, called through ``run(fn)``."""
    cfg = desk_config()
    params = build_model(cfg)
    rng = np.random.default_rng(21)
    lr = Tensor(rng.uniform(0, 255, (2, 1, 16, 16)))

    def step():
        out = model_forward(lr, params, cfg, ForwardMode(train=True))
        (out * Tensor(rng.standard_normal(out.shape))).sum().backward()
        return out

    out = run(step)
    grads = [t.grad.tobytes() for t in named_parameters(params).values() if t.grad is not None]
    return [out.data.tobytes()] + grads


def _under_settrace(fn):
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: None)
    try:
        return fn()
    finally:
        sys.settrace(previous)


def test_desk_step_gradients_do_not_depend_on_a_vjp_s_output_layout(monkeypatch):
    """The tape walk hands each vjp a C-order cotangent, so a pixel_shuffle
    vjp that returns the same values channels-first changes no byte of the
    up convs' gradients, whose bias gradient sums that cotangent."""
    plain = _desk_step_bytes(lambda fn: fn())
    unshuffle = tensor._unshuffle_fwd

    def channels_first(d, r):
        return np.ascontiguousarray(unshuffle(d, r).transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)

    monkeypatch.setattr(tensor, "_unshuffle_fwd", channels_first)
    assert _desk_step_bytes(lambda fn: fn()) == plain


def test_desk_step_under_profile_and_trace_hooks_gives_the_untraced_bytes():
    """A trace or profile hook holds each frame's locals, so conv2d's
    in-place shrink of its tap-sum buffer must not count references."""
    plain = _desk_step_bytes(lambda fn: fn())
    assert _desk_step_bytes(cProfile.Profile().runcall) == plain
    assert _desk_step_bytes(_under_settrace) == plain
