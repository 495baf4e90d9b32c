"""Finite-difference verification of every differentiable building block.

The checks record exactly the vjp kinds that the program's own tapes
record (``tests/test_gradsuite.py`` holds the two sets equal), so every
backward the program runs is verified and no check verifies a node the
program never builds. Each check runs many random instances; within an
instance the analytic gradients for all leaves come from one backward
pass and are compared jointly against central differences, using a
vector-relative error:

    max_i |ga_i - gf_i|  /  max(max|ga|, max|gf|, 1e-8)

The joint denominator matters for composites. A deep forward mixes
large and vanishing gradient components; a per-component quotient would
amplify finite-difference roundoff on the tiny ones into false alarms,
while an absolute threshold would ignore real errors when gradients are
small overall.

Primitive ops are checked at h=1e-6 against a 1e-5 tolerance; the
module composite at h=3e-6 against the same 1e-5; the whole model at
h=1e-5 against 1e-4. The composite steps are empirical sweet spots:
truncation still scales as h*h there (the zoh decay is a double
exponential with large third derivatives, so h=1e-4 visibly bends)
while float64 cancellation stays orders below the tolerance.

Data is sampled away from the kinks of non-smooth ops (abs at 0, the
magnitude and phase at the origin of the complex plane) because central
differences straddling a kink measure the secant, not either one-sided
derivative.
Routing is checked through its soft relaxation; the hard path replaces
the forward value only, so its backward IS the relaxation's backward
and the substitution itself has no derivative to measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fft import fft2d, magnitude, phase
from .losses import (
    LossWeights,
    build_feature_extractor,
    freq_loss,
    phase_loss,
    pixel_loss,
    thermal_mask,
    total_loss,
)
from .network import (
    ForwardMode,
    asf_ssm_forward,
    build_model,
    desk_config,
    model_forward,
    module_parameters,
    named_parameters,
)
from .prompts import (
    GlobalPromptParams,
    PromptPool,
    global_prompt,
    gumbel_noise,
    route_tokens,
)
from .resize import resample
from .scan import SemanticOrder, gated_recurrence, zoh_decay
from .tensor import (
    Tensor,
    absolute,
    conv2d,
    finite_diff_grad,
    layer_norm_linear,
    linear_silu_linear,
    pixel_shuffle,
    separable_map,
)

# the least denominator of vector_rel_error, so that gradients that are
# all zero (or nearly) compare absolutely
_REL_FLOOR = 1e-8


@dataclass
class CheckResult:
    name: str
    instances: int
    max_rel: float
    tol: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_rel <= self.tol


def vector_rel_error(ga: list, gf: list) -> float:
    """Joint relative error of analytic vs finite-difference gradients."""
    diff = max((np.max(np.abs(a - f)) if a.size else 0.0) for a, f in zip(ga, gf))
    scale = max(
        max((np.max(np.abs(a)) if a.size else 0.0) for a in ga),
        max((np.max(np.abs(f)) if f.size else 0.0) for f in gf),
        _REL_FLOOR,
    )
    return float(diff / scale)


def _instance_error(forward, leaves: list, h: float) -> float:
    """One backward pass vs per-leaf central differences.

    ``forward`` is zero-arg and reads the leaves' current data, so FD
    works by swapping bumped buffers into the same tensor objects. That
    keeps factories free of plumbing: any structure holding the leaf
    tensors (dataclasses, pools, whole models) is probed unchanged.
    """
    for leaf in leaves:
        leaf.grad = None
    out = forward()
    out.backward()
    ga = [
        leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data)
        for leaf in leaves
    ]
    gf = []
    for leaf in leaves:

        def bumped(t, _leaf=leaf):
            saved = _leaf.data
            _leaf.data = t.data
            try:
                return forward()
            finally:
                _leaf.data = saved

        gf.append(finite_diff_grad(bumped, leaf, h))
    return vector_rel_error(ga, gf)


def _run_check(name, make, *, instances, tol, h) -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng(1_000_003 * i + 17)
        forward, leaves = make(rng, i)
        worst = max(worst, _instance_error(forward, leaves, h))
    return CheckResult(name, instances, worst, tol, time.perf_counter() - t0)


# -- sampling helpers -------------------------------------------------------


def _leaf(rng, shape, lo=-2.0, hi=2.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def _leaf_off_zero(rng, shape, margin=0.2, hi=2.0) -> Tensor:
    """Uniform magnitudes in [margin, hi] with random signs."""
    mag = rng.uniform(margin, hi, shape)
    return Tensor(mag * rng.choice([-1.0, 1.0], shape), requires_grad=True)


def _w(rng, shape) -> Tensor:
    """A fixed random weighting, to make scalar objectives non-degenerate."""
    return Tensor(rng.standard_normal(shape))


def _wsum(t: Tensor, w: Tensor) -> Tensor:
    return (t * w).sum()


# -- primitive checks -------------------------------------------------------


def _mk_arithmetic(rng, _i):
    x = _leaf(rng, (3, 4))
    y = _leaf(rng, (3, 4))
    w = _w(rng, (3, 4))

    def forward():
        return _wsum(x * y + x - y * 0.5, w)

    return forward, [x, y]


def _mk_abs_clamp(rng, _i):
    x = _leaf_off_zero(rng, (3, 4), margin=0.1)  # abs has its kink at 0
    w = _w(rng, (3, 4))

    def forward():
        return _wsum(absolute(x), w)

    return forward, [x]


def _mk_matmul(rng, _i):
    a = _leaf(rng, (2, 3, 4))
    b = _leaf(rng, (2, 4, 5))
    c = _leaf(rng, (5, 3))
    w1 = _w(rng, (2, 3, 5))
    w2 = _w(rng, (2, 4, 3))

    def forward():
        return _wsum(a @ b, w1) + _wsum(b @ c, w2)

    return forward, [a, b, c]


def _mk_linear_silu_linear(rng, _i):
    x = _leaf(rng, (2, 3, 4))
    w1 = _leaf(rng, (4, 5))
    b1 = _leaf(rng, (5,))
    w2 = _leaf(rng, (5, 6))
    b2 = _leaf(rng, (6,))
    w = _w(rng, (2, 3, 6))

    def forward():
        return _wsum(linear_silu_linear(x, w1, b1, w2, b2), w)

    return forward, [x, w1, b1, w2, b2]


def _mk_layer_norm_linear(rng, _i):
    x = _leaf(rng, (2, 4, 6))
    g = _leaf(rng, (6,), 0.5, 1.5)
    b = _leaf(rng, (6,), -0.5, 0.5)
    wo = _leaf(rng, (6, 5))
    bo = _leaf(rng, (5,))
    w = _w(rng, (2, 4, 5))

    def forward():
        return _wsum(layer_norm_linear(x, g, b, wo, bo), w)

    return forward, [x, g, b, wo, bo]


def _mk_conv2d(rng, i):
    ksize = (1, 3, 5)[i % 3]
    x = _leaf(rng, (2, 6, 7, 3))
    k = _leaf(rng, (4, 3, ksize, ksize), -0.5, 0.5)
    b = _leaf(rng, (4,))
    w = _w(rng, (2, 6, 7, 4))

    def forward():
        return _wsum(conv2d(x, k, (ksize - 1) // 2, b), w)

    return forward, [x, k, b]


def _mk_shuffle(rng, _i):
    x = _leaf(rng, (2, 3, 4, 8))
    w = _w(rng, (2, 6, 8, 2))

    def forward():
        return _wsum(pixel_shuffle(x, 2), w)

    return forward, [x]


def _mk_separable_map(rng, _i):
    x = _leaf(rng, (2, 2, 5, 6))
    rows = rng.standard_normal((3, 5))
    cols = rng.standard_normal((4, 6))
    w = _w(rng, (2, 2, 3, 4))

    def forward():
        return _wsum(separable_map(x, rows, cols), w)

    return forward, [x]


def _mk_gather_index(rng, _i):
    x = _leaf(rng, (2, 6, 3))
    w1 = _w(rng, (2, 4, 2))
    w2 = _w(rng, (2, 18))

    def forward():
        return _wsum(x[:, 1:5, :2], w1) + _wsum(x.reshape(2, 18), w2)

    return forward, [x]


def _mk_fft_planes(rng, i):
    hw = ((4, 4), (3, 5), (8, 8))[i % 3]
    x = _leaf(rng, (1, 2) + hw)
    w1 = _w(rng, (1, 2) + hw)
    w2 = _w(rng, (1, 2) + hw)

    def forward():
        s = fft2d(x)
        return _wsum(s[..., 0], w1) + _wsum(s[..., 1], w2)

    return forward, [x]


def _mk_fft_polar(rng, _i):
    x = _leaf(rng, (1, 2, 4, 4))
    spec0 = fft2d(Tensor(x.data)).data
    # restrict to comfortably nonzero bins: magnitude is non-smooth at the
    # origin of the complex plane and phase gradients blow up 1/r
    keep = (np.hypot(spec0[..., 0], spec0[..., 1]) >= 0.5).astype(np.float64)
    w1 = Tensor(rng.standard_normal(keep.shape) * keep)
    w2 = Tensor(rng.standard_normal(keep.shape) * keep)

    def forward():
        s = fft2d(x)
        return _wsum(magnitude(s), w1) + _wsum(phase(s), w2)

    return forward, [x]


def _mk_resample(rng, _i):
    x = _leaf(rng, (1, 1, 6, 8))
    w_up = _w(rng, (1, 1, 12, 16))
    w_dn = _w(rng, (1, 1, 3, 4))

    def forward():
        return _wsum(resample(x, 12, 16, kind="cubic", antialias=False), w_up) + _wsum(
            resample(x, 3, 4, kind="linear", antialias=True), w_dn
        )

    return forward, [x]


# -- recurrence and routing -------------------------------------------------


def _mk_recurrence(rng, _i):
    x = _leaf(rng, (2, 5, 3))
    a = Tensor(rng.uniform(-0.95, 0.95, (2, 5, 3)), requires_grad=True)
    b = _leaf(rng, (2, 5, 3))
    c = _leaf(rng, (2, 5, 3))
    w = _w(rng, (2, 5, 3))

    def forward():
        return _wsum(gated_recurrence(x, a, b, c), w)

    return forward, [x, a, b, c]


def _mk_selective_scan(rng, _i):
    bsz, n, c = 2, 6, 3
    x = _leaf(rng, (bsz, n, c))
    a = Tensor(rng.uniform(-0.95, 0.95, (bsz, n, c)), requires_grad=True)
    b = _leaf(rng, (bsz, n, c))
    cr = _leaf(rng, (bsz, n, c))
    pf = _leaf(rng, (bsz, n, c))
    perm = np.stack([rng.permutation(n) for _ in range(bsz)])
    order = SemanticOrder(perm=perm, inv_perm=np.argsort(perm, axis=-1))
    w = _w(rng, (bsz, n, c))

    def forward():
        return _wsum(gated_recurrence(x, a, b, cr + pf, order=order), w)

    return forward, [x, a, b, cr, pf]


def _mk_zoh_gate_slices(rng, _i):
    c, t = 3, 4
    x_in = _leaf(rng, (2, 5, 3 * c + t))
    a_log = _leaf(rng, (c,), -1.5, 0.5)
    ws = [_w(rng, (2, 5, c)) for _ in range(2)]
    wt = _w(rng, (2, 5, t))

    def forward():
        a_decay = zoh_decay(x_in, c, a_log)
        b_in, c_raw, logits = x_in[..., c : 2 * c], x_in[..., 2 * c : 3 * c], x_in[..., 3 * c :]
        return _wsum(a_decay, ws[0]) + _wsum(b_in + c_raw, ws[1]) + _wsum(logits, wt)

    return forward, [x_in, a_log]


def _mk_route_soft(rng, _i):
    t = 4
    logits = _leaf(rng, (1, 6, t), -2.0, 2.0)
    pool = PromptPool(
        pool=Tensor(rng.standard_normal((t, 3)), requires_grad=True),
        temperature=0.7,
        rng_seed=int(rng.integers(0, 2**31)),
    )
    noise = gumbel_noise((1, 6, t), rng)
    w = _w(rng, (1, 6, 3))

    def forward():
        route = route_tokens(logits, pool, train_mode=True, route_mode="soft", noise=noise)
        return _wsum(route @ pool.pool, w)

    return forward, [logits, pool.pool]


def _mk_global_prompt(rng, _i):
    c, h, w_ = 2, 3, 3
    x = _leaf(rng, (1, h * w_, c))
    params = GlobalPromptParams(
        wq=_leaf(rng, (2 * c, c), -0.7, 0.7),
        wk=_leaf(rng, (2 * c, c), -0.7, 0.7),
        wv=_leaf(rng, (2 * c, c), -0.7, 0.7),
    )
    w = _w(rng, (1, h * w_, c))

    def forward():
        return _wsum(global_prompt(x, h, w_, params), w)

    return forward, [x, params.wq, params.wk, params.wv]


def _mk_thermal_gate(rng, _i):
    extractor = build_feature_extractor(int(rng.integers(0, 2**31)))
    hr = Tensor(rng.uniform(0, 255, (1, 1, 24, 24)))
    gate_k = _leaf(rng, (1, extractor.kernels[-1].shape[0], 1, 1), -0.5, 0.5)
    gate_b = _leaf(rng, (1,), -0.5, 0.5)
    w = _w(rng, (1, 1, 24, 24))

    def forward():
        return _wsum(thermal_mask(hr, gate_k, gate_b, extractor), w)

    return forward, [gate_k, gate_b]


def _mk_losses(rng, _i):
    sr = Tensor(rng.uniform(10, 245, (1, 1, 8, 8)), requires_grad=True)
    hr = Tensor(rng.uniform(10, 245, (1, 1, 8, 8)))
    mask = Tensor(rng.uniform(0.2, 0.9, (1, 1, 8, 8)))
    weights = LossWeights()

    def forward():
        return (
            total_loss(sr, hr, mask, weights)
            + phase_loss(sr, hr) * 0.5
            + freq_loss(sr, hr, mask) * 0.25
            + pixel_loss(sr, hr) * 0.125
        )

    return forward, [sr]


# -- composites -------------------------------------------------------------

def _mk_ssm_module(rng, _i):
    cfg = desk_config(
        channels=2,
        blocks=1,
        modules_per_block=1,
        pool_size=2,
        seed=int(rng.integers(0, 2**31)),
    )
    mp = build_model(cfg).blocks[0].modules[0]
    x = _leaf(rng, (1, 9, 2))
    mode = ForwardMode(train=False, route="soft")
    w = _w(rng, (1, 9, 2))

    def forward():
        return _wsum(asf_ssm_forward(x, mp, cfg, 3, 3, mode), w)

    return forward, [x] + list(module_parameters(mp).values())


def _mk_model(rng, _i):
    cfg = desk_config(
        channels=2,
        blocks=1,
        modules_per_block=1,
        pool_size=2,
        scale=2,
        seed=int(rng.integers(0, 2**31)),
    )
    params = build_model(cfg)
    leaves = [t for _, t in sorted(named_parameters(params).items())]
    x = Tensor(rng.uniform(0, 255, (1, 1, 8, 8)), requires_grad=True)
    mode = ForwardMode(train=False, route="soft")
    w = _w(rng, (1, 1, 16, 16))

    def forward():
        return _wsum(model_forward(x, params, cfg, mode), w)

    # the mask gate never feeds the image path; probing it here would
    # only confirm 0 == 0
    leaves = [t for t in leaves if t is not params.gate_k and t is not params.gate_b]
    return forward, [x] + leaves


_PRIMITIVE = {"tol": 1e-5, "h": 1e-6}
_COMPOSITE = {"tol": 1e-4, "h": 1e-5}

_CHECKS = (
    ("arithmetic", _mk_arithmetic, _PRIMITIVE),
    ("abs-clamp", _mk_abs_clamp, _PRIMITIVE),
    ("matmul", _mk_matmul, _PRIMITIVE),
    ("linear-silu-linear", _mk_linear_silu_linear, _PRIMITIVE),
    ("layer-norm-linear", _mk_layer_norm_linear, _PRIMITIVE),
    ("conv2d", _mk_conv2d, _PRIMITIVE),
    ("pixel-shuffle", _mk_shuffle, _PRIMITIVE),
    ("separable-map", _mk_separable_map, _PRIMITIVE),
    ("gather-index-reshape", _mk_gather_index, _PRIMITIVE),
    ("fft-planes", _mk_fft_planes, _PRIMITIVE),
    ("fft-magnitude-phase", _mk_fft_polar, _PRIMITIVE),
    ("resample", _mk_resample, _PRIMITIVE),
    ("gated-recurrence", _mk_recurrence, _PRIMITIVE),
    ("selective-scan", _mk_selective_scan, _PRIMITIVE),
    ("zoh-decay-gate-slices", _mk_zoh_gate_slices, _PRIMITIVE),
    ("route-soft", _mk_route_soft, _PRIMITIVE),
    ("global-prompt", _mk_global_prompt, _PRIMITIVE),
    ("thermal-gate", _mk_thermal_gate, _PRIMITIVE),
    ("loss-terms", _mk_losses, _PRIMITIVE),
    ("ssm-module", _mk_ssm_module, {"tol": 1e-5, "h": 3e-6}),
    ("full-model", _mk_model, _COMPOSITE),
)


def check_names() -> list:
    return [name for name, _, _ in _CHECKS]


def run_suite(only: str | None = None, instances: int = 20) -> list:
    """Run all checks (or those whose name contains ``only``), each on
    ``instances`` random instances; fewer than one would check nothing."""
    if instances < 1:
        raise ConfigError(f"instances must be at least 1, got {instances}")
    results = []
    for name, make, opts in _CHECKS:
        if only is not None and only not in name:
            continue
        results.append(_run_check(name, make, instances=instances, **opts))
    return results


def format_results(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "ok " if r.passed else "FAIL"
        lines.append(
            f"{status} {r.name:<{width}}  max_rel {r.max_rel:.3e}"
            f"  tol {r.tol:.0e}  n={r.instances}  {r.seconds:6.2f}s"
        )
    return "\n".join(lines)
