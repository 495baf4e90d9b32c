"""Model assembly: token modules, residual blocks, and the SR network.

The network maps a single-channel low-resolution image in [0, 255] to
its upscaled reconstruction. A shallow 3x3 convolution lifts the image
into feature space; a stack of residual blocks refines the features,
each block chaining several prompt-guided scan modules over the token
sequence; a sub-pixel reconstruction head upscales; and a bicubic skip
of the raw input carries the base image so the deep path only has to
learn the residual. The deep path runs on intensities scaled to [0, 1]
and its output is scaled back, which keeps activations, attention
logits, and loss magnitudes in comparable ranges.

Every learnable parameter is a Tensor created from the config seed in a
fixed order, so two builds from the same config are bit-identical. A
module holds only the weights its config reads; this file is the one
place that decides which those are. Built parameters are grad-tracked
for training; parameters loaded from a checkpoint are not, so a forward
on them records no tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .prompts import GlobalPromptParams, PromptPool, global_prompt, route_tokens
from .resize import resample
from .scan import A_LOG_INIT, gated_recurrence, semantic_order, zoh_decay
from .tensor import (
    Tensor,
    astensor,
    conv2d,
    layer_norm_linear,
    linear_silu_linear,
    pixel_shuffle,
    reshape,
)


@dataclass
class ModelConfig:
    """Architecture knobs. Defaults are the desk-scale preset.

    Every module is the one ASF-SSM design: a zero-order-hold decay
    (state multiplier in (0, 1)), routing logits taken from the packed
    projection's last T channels, and spectral attention over the real
    and imaginary planes of the token grid's spectrum. ``prompts``:
    "fused" enables the full prompt path, "off" runs the bare causal
    scan in raster order (the ablation used by the reach tests).
    """

    channels: int = 32
    blocks: int = 2
    modules_per_block: int = 2
    pool_size: int = 8
    scale: int = 2
    temperature: float = 1.0
    prompts: str = "fused"
    seed: int = 0

    def validate(self) -> None:
        if self.scale not in (2, 4):
            raise ConfigError(f"scale must be 2 or 4, got {self.scale}")
        if self.channels < 1:
            raise ConfigError("channels must be positive")
        for name in ("blocks", "modules_per_block"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.pool_size < 2:
            raise ConfigError("pool_size must be at least 2")
        if not np.isfinite(self.temperature) or self.temperature <= 0:
            raise ConfigError(f"temperature must be finite and positive, got {self.temperature}")
        if self.prompts not in ("fused", "off"):
            raise ConfigError(f"prompts must be fused or off, got {self.prompts!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ForwardMode:
    """train toggles router noise; route "soft" bypasses the hard
    selection and the semantic reorder so the whole forward is smooth
    (used by gradient checks)."""

    train: bool = False
    route: str = "hard"


@dataclass
class SsmModuleParams:
    """One module's weights. ``a_log`` is the per-channel log rate of
    the zero-order-hold decay; ``pool`` and ``attn`` are None unless
    prompts are fused, since only the prompt path reads them."""

    w_mlp: Tensor
    b_mlp: Tensor
    w_in: Tensor
    b_in: Tensor
    a_log: Tensor
    pool: PromptPool | None
    attn: GlobalPromptParams | None
    ln_g: Tensor
    ln_b: Tensor
    w_out: Tensor
    b_out: Tensor


@dataclass
class BlockParams:
    modules: list[SsmModuleParams] = field(default_factory=list)


@dataclass
class ModelParams:
    shallow_k: Tensor
    shallow_b: Tensor
    blocks: list[BlockParams]
    up_k: list[Tensor]
    up_b: list[Tensor]
    final_k: Tensor
    final_b: Tensor
    gate_k: Tensor
    gate_b: Tensor


def seed_streams(seed: int) -> dict:
    """Independent child sequences for each consumer of randomness."""
    init, route, extract, data = np.random.SeedSequence(seed).spawn(4)
    return {"init": init, "route": route, "extract": extract, "data": data}


def _uniform(rng, shape, fan_in) -> Tensor:
    s = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-s, s, size=shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _only_if(read: bool, value):
    """``value`` if the config reads it, else None; the caller has built
    ``value`` either way, so its random draws are made either way."""
    return value if read else None


def build_model(cfg: ModelConfig) -> ModelParams:
    """Allocate and seed the parameters the config reads. Draw order is fixed.

    The prompt weights and the T logit columns of ``w_in`` are drawn
    whether or not the config reads them and then dropped, so a kept
    value is the same under either ``prompts`` setting with one seed.
    """
    cfg.validate()
    streams = seed_streams(cfg.seed)
    rng = np.random.default_rng(streams["init"])
    route_rng = np.random.default_rng(streams["route"])
    c, t = cfg.channels, cfg.pool_size
    fused = cfg.prompts == "fused"

    blocks = []
    for _ in range(cfg.blocks):
        modules = []
        for _ in range(cfg.modules_per_block):
            pool_seed = int(route_rng.integers(0, 2**32))
            w_mlp = _uniform(rng, (c, c), c)
            w_in = _uniform(rng, (c, 3 * c + t), c)
            if not fused:  # the T logit columns feed only the router
                w_in = Tensor(w_in.data[:, : 3 * c].copy(), requires_grad=True)
            rng.random(2 * c * c + c * t)  # a fixed gap: later weights keep their seeded values
            modules.append(
                SsmModuleParams(
                    w_mlp=w_mlp,
                    b_mlp=_zeros(c),
                    w_in=w_in,
                    b_in=_zeros(w_in.shape[1]),
                    a_log=Tensor(np.full(c, A_LOG_INIT), requires_grad=True),
                    pool=_only_if(
                        fused,
                        PromptPool(
                            pool=_uniform(rng, (t, c), c),
                            temperature=cfg.temperature,
                            rng_seed=pool_seed,
                        ),
                    ),
                    attn=_only_if(
                        fused,
                        GlobalPromptParams(
                            wq=_uniform(rng, (2 * c, c), 2 * c),
                            wk=_uniform(rng, (2 * c, c), 2 * c),
                            wv=_uniform(rng, (2 * c, c), 2 * c),
                        ),
                    ),
                    ln_g=Tensor(np.ones(c), requires_grad=True),
                    ln_b=_zeros(c),
                    w_out=_uniform(rng, (c, c), c),
                    b_out=_zeros(c),
                )
            )
        blocks.append(BlockParams(modules=modules))

    stages = {2: 1, 4: 2}[cfg.scale]
    up_k = [_uniform(rng, (4 * c, c, 3, 3), c * 9) for _ in range(stages)]
    up_b = [_zeros(4 * c) for _ in range(stages)]

    return ModelParams(
        shallow_k=_uniform(rng, (c, 1, 3, 3), 9),
        shallow_b=_zeros(c),
        blocks=blocks,
        up_k=up_k,
        up_b=up_b,
        final_k=_uniform(rng, (1, c, 3, 3), c * 9),
        final_b=_zeros(1),
        gate_k=_uniform(rng, (1, 16, 1, 1), 16),
        gate_b=_zeros(1),
    )


def module_parameters(m: SsmModuleParams) -> dict:
    """Name->Tensor view of the parameters one module holds."""
    out = {
        "w_mlp": m.w_mlp,
        "b_mlp": m.b_mlp,
        "w_in": m.w_in,
        "b_in": m.b_in,
        "a_log": m.a_log,
    }
    if m.pool is not None:
        out["pool"] = m.pool.pool
    if m.attn is not None:
        out.update(wq=m.attn.wq, wk=m.attn.wk, wv=m.attn.wv)
    out.update(ln_g=m.ln_g, ln_b=m.ln_b, w_out=m.w_out, b_out=m.b_out)
    return out


def named_parameters(params: ModelParams) -> dict:
    """Flat name->Tensor view of every learnable parameter."""
    out = {"shallow.k": params.shallow_k, "shallow.b": params.shallow_b}
    for i, blk in enumerate(params.blocks):
        for j, m in enumerate(blk.modules):
            for name, t in module_parameters(m).items():
                out[f"block{i}.mod{j}.{name}"] = t
    for s, (k, b) in enumerate(zip(params.up_k, params.up_b)):
        out[f"up{s}.k"] = k
        out[f"up{s}.b"] = b
    out["final.k"] = params.final_k
    out["final.b"] = params.final_b
    out["gate.k"] = params.gate_k
    out["gate.b"] = params.gate_b
    return out


def _conv(x, k, b):
    return conv2d(x, k, (k.shape[-1] - 1) // 2, b)


def asf_ssm_forward(
    x: Tensor,
    mp: SsmModuleParams,
    cfg: ModelConfig,
    h: int,
    w: int,
    mode: ForwardMode | None = None,
) -> Tensor:
    """One prompt-guided scan module over a (B, N, C) token sequence.

    In the paper's order: spectral attention over ``x`` gives the global
    prompt; the gated projection packs, per token, the channels
    [timescale | b_in | c_raw | logits] of widths C, C, C and T; the
    timescale becomes the zero-order-hold decay, the router picks spatial
    prompts from the pool with the logits, both prompts add into the
    output gate c_raw, and the recurrence runs along the semantic token
    order. A layer norm plus linear head closes the module. The gated
    projection, the head, the global prompt and the decay are one tape
    node each. The global prompt reads only ``x``, so it runs first,
    while nothing else is alive, and each later intermediate is dropped
    after its last reader, so that without a tape only the scan's own
    operands are alive during the scan.
    """
    mode = mode or ForwardMode()
    x = astensor(x)
    c, fused = cfg.channels, cfg.prompts == "fused"
    if x.ndim != 3 or x.shape[2] != c:
        raise DimensionError(f"module input must be (B, N, {c}), got {tuple(x.shape)}")
    if x.shape[1] != h * w:
        raise DimensionError(f"token count {x.shape[1]} does not factor as {h}x{w}")

    p_global = global_prompt(x, h, w, mp.attn) if fused else None
    x_in = linear_silu_linear(x, mp.w_mlp, mp.b_mlp, mp.w_in, mp.b_in)
    width, what = (3 * c + cfg.pool_size, "3C+T") if fused else (3 * c, "3C")
    if x_in.shape[-1] != width:
        raise DimensionError(
            f"packed projection has {x_in.shape[-1]} channels, expected {what} = {width}"
        )
    a_decay = zoh_decay(x_in, c, mp.a_log)
    b_in = x_in[..., c : 2 * c]
    c_s = x_in[..., 2 * c : 3 * c]
    logits = x_in[..., 3 * c :] if fused else None
    del x_in

    order = None
    if fused:
        route = route_tokens(logits, mp.pool, mode.train, route_mode=mode.route)
        del logits
        p_spatial = route @ mp.pool.pool
        p_fused = p_spatial + p_global
        if mode.route == "hard":
            order = semantic_order(route)
        del route, p_spatial, p_global
        c_s = c_s + p_fused
        del p_fused

    y = gated_recurrence(x, a_decay, b_in, c_s, order=order)
    del a_decay, b_in, c_s
    return layer_norm_linear(y, mp.ln_g, mp.ln_b, mp.w_out, mp.b_out)


def asf_ssb_forward(
    x: Tensor,
    bp: BlockParams,
    cfg: ModelConfig,
    mode: ForwardMode | None = None,
) -> Tensor:
    """Residual block over a (B, H, W, C) map whose pixels are the tokens: Y = X + F(X)."""
    x = astensor(x)
    if x.ndim != 4:
        raise DimensionError(f"block input must be (B, H, W, C), got {tuple(x.shape)}")
    bsz, hh, ww, c = x.shape
    tokens = reshape(x, (bsz, hh * ww, c))
    for m in bp.modules:
        tokens = asf_ssm_forward(tokens, m, cfg, hh, ww, mode=mode)
    return x + reshape(tokens, x.shape)


def model_forward(
    lr: Tensor,
    params: ModelParams,
    cfg: ModelConfig,
    mode: ForwardMode | None = None,
) -> Tensor:
    """Full network: (B, 1, h, w) in [0, 255] -> (B, 1, s*h, s*w).

    The bicubic skip carries the input; the deep path adds a learned
    residual. With all reconstruction weights at zero the output equals
    the bicubic upsample exactly. The shallow features die once the long
    residual has added them, and each upsampling stage's input once its
    conv has run, so without a tape neither is alive in the stages after.

    Raises DimensionError for an input that is not (B, 1, h, w), and
    ContractError for extents below 8 or any non-finite input value,
    which would otherwise spread to every output pixel.
    """
    lr = astensor(lr)
    if lr.ndim != 4 or lr.shape[1] != 1:
        raise DimensionError(f"expected (B, 1, h, w) input, got {tuple(lr.shape)}")
    bsz, _, h, w = lr.shape
    if h < 8 or w < 8:
        raise ContractError(f"input extents must be at least 8, got {h}x{w}")
    bad = lr.size - np.count_nonzero(np.isfinite(lr.data))
    if bad:
        raise ContractError(f"input holds {bad} non-finite values of {lr.size}")
    cfg.validate()

    x01 = reshape(lr, (bsz, h, w, 1)) * (1.0 / 255.0)
    s0 = _conv(x01, params.shallow_k, params.shallow_b)
    feat = s0
    for bp in params.blocks:
        feat = asf_ssb_forward(feat, bp, cfg, mode=mode)
    feat = feat + s0
    del s0
    for k, b in zip(params.up_k, params.up_b):
        feat = _conv(feat, k, b)
        feat = pixel_shuffle(feat, 2)
    deep = _conv(feat, params.final_k, params.final_b)
    skip = resample(lr, h * cfg.scale, w * cfg.scale, kind="cubic", antialias=False)
    return skip + reshape(deep, skip.shape) * 255.0


def desk_config(**overrides) -> ModelConfig:
    """The small, finite-difference-friendly default configuration."""
    return replace(ModelConfig(), **overrides)
