"""Release acceptance checks.

Ten property-based criteria cover the differentiation engine, the scan
and its prompts, the spectral losses, the metrics, persistence, and one
end-to-end overfit run. Each test prints a single [PASS]/[FAIL] line
(the suite runs with capture disabled) and then asserts, so a red run
still names the criterion that broke. Every expected value here is
either a closed form or recomputed by an independent in-test oracle.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from promptscan.config import RunConfig, format_config, parse_config
from promptscan.fft import fft2d
from promptscan.gradsuite import run_suite
from promptscan.losses import (
    LossWeights,
    freq_loss,
    phase_loss,
    total_loss,
    uniform_mask,
)
from promptscan.metrics import error_histogram, psnr, ssim
from promptscan.network import (
    ForwardMode,
    asf_ssm_forward,
    build_model,
    desk_config,
    model_forward,
)
from promptscan.prompts import PromptPool, gumbel_noise, route_tokens
from promptscan.resize import bicubic_resize, resample
from promptscan.scan import SemanticOrder, causal_reach, gated_recurrence
from promptscan.tensor import Tensor
from promptscan.training import (
    ImagePair,
    erf_map,
    evaluate,
    format_eval_rows,
    pair_from_hr,
    train_loop,
)

from oracles import naive_dft2

DATA = Path(__file__).parent / "data"


def _report(num: int, name: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    return ok


# -- 1: gradient suite -------------------------------------------------------


def test_c01_gradient_suite():
    t0 = time.perf_counter()
    results = run_suite(instances=20)
    elapsed = time.perf_counter() - t0
    names = {r.name for r in results}
    required = {
        "arithmetic", "fft-magnitude-phase", "route-soft", "selective-scan",
        "ssm-module", "full-model", "loss-terms",
    }
    ok = (
        required <= names
        and all(r.instances >= 20 for r in results)
        and all(r.tol <= (1e-4 if r.name == "full-model" else 1e-5) for r in results)
        and all(r.passed for r in results)
        and elapsed < 300.0
    )
    _report(1, f"gradient suite ({len(results)} checks, {elapsed:.1f}s)", ok)
    failed = [f"{r.name} {r.max_rel:.2e}>{r.tol:.0e}" for r in results if not r.passed]
    assert ok, f"failed checks: {failed}; elapsed {elapsed:.1f}s"


# -- 2: scan equals the sequential oracle ------------------------------------


def test_c02_scan_oracle():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(20_000 + i)
        bsz = int(rng.integers(1, 3))
        n = int(rng.integers(1, 65))
        ch = int(rng.integers(1, 9))
        x = rng.standard_normal((bsz, n, ch))
        a = rng.uniform(0.0, 1.0, (bsz, n, ch))
        b = rng.standard_normal((bsz, n, ch))
        c = rng.standard_normal((bsz, n, ch))
        pf = rng.standard_normal((bsz, n, ch))
        if i % 2:
            perm = np.stack([rng.permutation(n) for _ in range(bsz)])
            order = SemanticOrder(perm=perm, inv_perm=np.argsort(perm, axis=-1))
        else:
            order = None
        y = gated_recurrence(Tensor(x), Tensor(a), Tensor(b), Tensor(c) + Tensor(pf), order=order)

        # sequential python-float recurrence, one channel at a time
        want = np.zeros_like(x)
        cs = c + pf
        for bi in range(bsz):
            idx = order.perm[bi] if order is not None else np.arange(n)
            for chn in range(ch):
                hp = 0.0
                for t in range(n):
                    s = idx[t]
                    hp = float(a[bi, s, chn]) * hp + float(b[bi, s, chn]) * float(x[bi, s, chn])
                    want[bi, s, chn] = float(cs[bi, s, chn]) * hp
        worst = max(worst, float(np.max(np.abs(y.data - want))))
    ok = worst <= 1e-14
    _report(2, f"scan oracle over 100 instances (worst {worst:.2e})", ok)
    assert ok


# -- 3: causal without prompts, global with them ------------------------------


def test_c03_causality_dichotomy():
    h = w = 4
    n = h * w
    mode = ForwardMode(train=False, route="hard")
    x0 = np.random.default_rng(0).standard_normal((1, n, 4))

    # zero fused prompt, identity order: strictly causal, zeros are exact
    cfg_off = desk_config(channels=4, blocks=1, modules_per_block=1,
                          pool_size=2, prompts="off")
    mp_off = build_model(cfg_off).blocks[0].modules[0]
    fn_off = lambda t: asf_ssm_forward(t, mp_off, cfg_off, h, w, mode=mode)
    causal_ok = all(
        np.all(causal_reach(fn_off, x0, t)[t + 1:] == 0.0) for t in range(n)
    )

    # full prompt path: nearly every future position reaches back
    cfg_on = desk_config(channels=4, blocks=1, modules_per_block=1,
                         pool_size=2, prompts="fused")
    mp_on = build_model(cfg_on).blocks[0].modules[0]
    fn_on = lambda t: asf_ssm_forward(t, mp_on, cfg_on, h, w, mode=mode)
    hit = tot = 0
    for t in range(n):
        reach = causal_reach(fn_on, x0, t)
        hit += int((reach[t + 1:] > 1e-12).sum())
        tot += n - 1 - t
    frac = hit / tot

    # reach map of the full model covers the whole input plane
    cfg_full = desk_config(scale=2)
    params_full = build_model(cfg_full)
    probe = np.random.default_rng(1).uniform(0, 255, (16, 16))
    coverage = float((erf_map(params_full, cfg_full, probe) > 1e-12).mean())

    # prompts off and the state multiplier forced to zero: reach collapses
    # to the convolutional stencil of the center output pixel. For a
    # 16x16 input at scale 2 that stencil is rows/cols 5..10: final conv
    # reaches +-1 around output row 16, pixel-shuffle folds that to input
    # rows 7..8, and the two remaining 3x3 convs widen by one each side.
    cfg_conv = desk_config(channels=8, blocks=2, modules_per_block=2,
                           pool_size=4, scale=2, prompts="off")
    params_conv = build_model(cfg_conv)
    for blk in params_conv.blocks:
        for m in blk.modules:
            m.a_log.data = np.full_like(m.a_log.data, 40.0)  # decay underflows to 0.0
    reach_conv = erf_map(params_conv, cfg_conv, probe)
    box = np.zeros((16, 16), bool)
    box[5:11, 5:11] = True
    confined = bool(np.all(reach_conv[~box] == 0.0)) and reach_conv[box].max() > 0

    ok = causal_ok and frac >= 0.90 and coverage == 1.0 and confined
    _report(3, f"causality dichotomy (future reach {frac:.2%}, coverage {coverage:.0%})", ok)
    assert ok, (causal_ok, frac, coverage, confined)


# -- 4: FFT against a direct DFT ----------------------------------------------


def test_c04_fft_correctness():
    worst_rt = worst_par = worst_dft = 0.0
    for i, (h, w) in enumerate(((4, 4), (7, 5), (8, 8), (16, 16))):
        x = np.random.default_rng(i).standard_normal((h, w))
        planes = fft2d(x).data
        spec = planes[..., 0] + 1j * planes[..., 1]
        worst_rt = max(worst_rt, float(np.max(np.abs(np.fft.ifft2(spec).real - x))))
        energy = float(np.sum(x * x))
        par = abs(float(np.sum(np.abs(spec) ** 2)) / (h * w) - energy) / energy
        worst_par = max(worst_par, par)
        worst_dft = max(worst_dft, float(np.max(np.abs(spec - naive_dft2(x)))))
    ok = worst_rt <= 1e-10 and worst_par <= 1e-9 and worst_dft <= 1e-10
    _report(4, f"fft round-trip/Parseval/direct-DFT "
               f"({worst_rt:.1e}/{worst_par:.1e}/{worst_dft:.1e})", ok)
    assert ok


# -- 5: loss identities --------------------------------------------------------


def test_c05_loss_identities():
    w = LossWeights(lambda_phase=0.2, lambda_freq=0.8, lambda_pix=0.0)
    zero_ok = True
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        img = Tensor(rng.uniform(0, 255, (1, 1, 12, 12)))
        if i % 2:
            mask = Tensor(rng.uniform(0.05, 0.95, (1, 1, 12, 12)))
        else:
            mask = uniform_mask(img)
        zero_ok &= total_loss(img, img, mask, w).item() == 0.0

    rng = np.random.default_rng(7)
    s = Tensor(rng.uniform(1, 255, (1, 1, 8, 8)))
    h = Tensor(rng.uniform(1, 255, (1, 1, 8, 8)))
    scale_err = abs(phase_loss(s * 3.7, h * 3.7).item() - phase_loss(s, h).item())

    ones = uniform_mask(h)
    rs = Tensor(np.roll(s.data, (3, 5), axis=(2, 3)))
    rh = Tensor(np.roll(h.data, (3, 5), axis=(2, 3)))
    shift_err = abs(freq_loss(rs, rh, ones).item() - freq_loss(s, h, ones).item())

    ok = zero_ok and scale_err <= 1e-12 and shift_err <= 1e-10
    _report(5, f"loss identities (scale {scale_err:.1e}, shift {shift_err:.1e})", ok)
    assert ok, (zero_ok, scale_err, shift_err)


# -- 6: routing contracts -------------------------------------------------------


def test_c06_routing_contracts():
    rng = np.random.default_rng(0)
    pool = PromptPool(pool=Tensor(rng.standard_normal((4, 6)), requires_grad=True),
                      temperature=1.0, rng_seed=5)
    logits = Tensor(rng.standard_normal((10, 1000, 4)))
    routed = route_tokens(logits, pool, train_mode=True).data
    one_hot = bool(
        np.all((routed == 0.0) | (routed == 1.0))
        and np.all(routed.sum(axis=-1) == 1.0)
        and routed.shape[0] * routed.shape[1] == 10_000
    )

    # straight-through gradient against finite differences of the soft path
    pool2 = PromptPool(pool=Tensor(rng.standard_normal((3, 4)), requires_grad=True),
                       temperature=0.8, rng_seed=0)
    logits0 = rng.standard_normal((1, 6, 3))
    noise = gumbel_noise(logits0.shape, np.random.default_rng(11))
    wts = rng.standard_normal(logits0.shape)
    lt = Tensor(logits0.copy(), requires_grad=True)
    (route_tokens(lt, pool2, True, noise=noise) * Tensor(wts)).sum().backward()
    ga = lt.grad.copy()

    def f(arr):
        soft = route_tokens(Tensor(arr), pool2, True, route_mode="soft", noise=noise)
        return float((soft.data * wts).sum())

    step = 1e-6
    gf = np.zeros_like(logits0)
    it = np.nditer(logits0, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        up = logits0.copy(); up[ix] += step
        dn = logits0.copy(); dn[ix] -= step
        gf[ix] = (f(up) - f(dn)) / (2 * step)
    rel = float(np.max(np.abs(ga - gf)) / max(np.max(np.abs(ga)), np.max(np.abs(gf)), 1e-8))

    def draw(seed):
        p = PromptPool(pool=Tensor(np.zeros((4, 6)) + 0.1), temperature=1.0, rng_seed=seed)
        return route_tokens(Tensor(np.zeros((2, 50, 4))), p, train_mode=True).data

    reproducible = np.array_equal(draw(123), draw(123))

    ok = one_hot and rel <= 1e-5 and reproducible
    _report(6, f"routing contracts (ST rel err {rel:.1e})", ok)
    assert ok, (one_hot, rel, reproducible)


# -- 7: metric correctness -------------------------------------------------------


def _ssim_window_oracle(a, b, size=11, sigma=1.5, k1=0.01, k2=0.03):
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2 * sigma * sigma))
    win = np.outer(g, g)
    win /= win.sum()
    c1, c2 = (k1 * 255.0) ** 2, (k2 * 255.0) ** 2
    vals = []
    for i in range(a.shape[0] - size + 1):
        for j in range(a.shape[1] - size + 1):
            pa = a[i : i + size, j : j + size]
            pb = b[i : i + size, j : j + size]
            mu_a = (win * pa).sum()
            mu_b = (win * pb).sum()
            va = (win * pa * pa).sum() - mu_a**2
            vb = (win * pb * pb).sum() - mu_b**2
            cov = (win * pa * pb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def test_c07_metric_correctness():
    p1, m1 = psnr(np.zeros((5, 5)), np.ones((5, 5)))
    psnr_ok = m1 == 1.0 and abs(p1 - 48.1308) <= 1e-4

    rng = np.random.default_rng(3)
    img = rng.uniform(0, 255, (13, 14))
    self_ok = abs(ssim(img, img) - 1.0) <= 1e-12

    a = rng.uniform(0, 255, (14, 15))
    b = np.clip(a + rng.normal(0, 12, a.shape), 0, 255)
    oracle_err = abs(ssim(a, b) - _ssim_window_oracle(a, b))

    hist = error_histogram(rng.uniform(0, 255, (13, 17)), rng.uniform(0, 255, (13, 17)))
    frac_ok = sum(Fraction(c, hist.total) for c in hist.counts) == Fraction(1)

    ok = psnr_ok and self_ok and oracle_err <= 1e-8 and frac_ok
    _report(7, f"metric correctness (ssim oracle err {oracle_err:.1e})", ok)
    assert ok, (psnr_ok, self_ok, oracle_err, frac_ok)


# -- 8: single-patch overfit run ---------------------------------------------


def _texture_patch() -> np.ndarray:
    xx, yy = np.mgrid[0:32, 0:32]
    return (120 + 55 * np.sin(1.15 * xx) * np.cos(0.95 * yy)
            + 35 * np.sin(0.55 * (xx + yy))).clip(0, 255)


def _overfit_config() -> RunConfig:
    cfg = RunConfig()
    cfg.model = desk_config(scale=2, seed=0)
    cfg.train.steps = 500
    cfg.train.batch = 1
    cfg.train.patch = 32
    cfg.train.lr = 1e-3
    cfg.train.log_every = 1
    cfg.train.ckpt_every = 100
    return cfg


def test_c08_overfit_smoke(tmp_path):
    pair = pair_from_hr(_texture_patch(), 2, "patch")
    t0 = time.perf_counter()
    res = train_loop([pair], _overfit_config(), tmp_path / "one")
    elapsed = time.perf_counter() - t0

    sr = model_forward(Tensor(pair.lr[None]), res.params, res.cfg.model,
                       ForwardMode(train=False))
    final_psnr = psnr(np.clip(sr.data[0, 0], 0, 255), pair.hr[0])[0]
    baseline = psnr(np.clip(bicubic_resize(pair.lr[0], 2.0), 0, 255), pair.hr[0])[0]

    rows = [ln.split("\t") for ln in res.log_path.read_text().splitlines()[1:]]
    first = next(r for r in rows if r[0] == "1")
    last = rows[-1]
    literal_first = 0.2 * float(first[2]) + 0.8 * float(first[3])
    literal_last = 0.2 * float(last[2]) + 0.8 * float(last[3])

    res2 = train_loop([pair], _overfit_config(), tmp_path / "two")
    replay = (res.log_path.read_bytes() == res2.log_path.read_bytes()
              and res.ckpt_path.read_bytes() == res2.ckpt_path.read_bytes())

    ok = (
        final_psnr >= baseline + 1.0
        and literal_last <= 0.5 * literal_first
        and elapsed < 600.0
        and replay
    )
    _report(8, f"overfit run ({final_psnr:.2f} dB vs bicubic {baseline:.2f} dB, "
               f"{elapsed:.0f}s)", ok)
    assert ok, (final_psnr, baseline, literal_first, literal_last, elapsed, replay)


# -- 9: module forward against a line-by-line oracle --------------------------


def _np_sigmoid(v):
    return np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                    np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))


def _np_softmax(v):
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_c09_module_fixture(module_stages):
    cfg = desk_config(channels=2, blocks=1, modules_per_block=1, pool_size=2, scale=2)
    mp = build_model(cfg).blocks[0].modules[0]
    x = np.random.default_rng(2).standard_normal((1, 4, 2))  # tokens of a 2x2 grid

    out = asf_ssm_forward(Tensor(x.copy()), mp, cfg, 2, 2,
                          mode=ForwardMode(train=False, route="hard"))
    seen = module_stages

    C = 2
    trunk = x @ mp.w_mlp.data + mp.b_mlp.data
    trunk = trunk * _np_sigmoid(trunk)
    x_in = trunk @ mp.w_in.data + mp.b_in.data
    raw = x_in[..., :C]
    delta = np.maximum(raw, 0.0) + np.log1p(np.exp(-np.abs(raw)))
    b_gate = x_in[..., C : 2 * C]
    c_raw = x_in[..., 2 * C : 3 * C]
    logits = x_in[..., 3 * C :]
    a_decay = np.exp(delta * (-np.exp(mp.a_log.data)))

    soft = _np_softmax(logits / cfg.temperature)
    keys = np.argmax(soft, axis=-1)
    route = np.zeros_like(soft)
    np.put_along_axis(route, keys[..., None], 1.0, axis=-1)
    p_spatial = route @ mp.pool.pool.data

    # 2x2 DFT written out termwise; every coefficient is real at this size
    grid = x.reshape(1, 2, 2, C).transpose(0, 3, 1, 2)
    F = np.empty_like(grid)
    for ch in range(C):
        g = grid[0, ch]
        F[0, ch, 0, 0] = g[0, 0] + g[0, 1] + g[1, 0] + g[1, 1]
        F[0, ch, 0, 1] = g[0, 0] - g[0, 1] + g[1, 0] - g[1, 1]
        F[0, ch, 1, 0] = g[0, 0] + g[0, 1] - g[1, 0] - g[1, 1]
        F[0, ch, 1, 1] = g[0, 0] - g[0, 1] - g[1, 0] + g[1, 1]
    re_flat = F.transpose(0, 2, 3, 1).reshape(1, 4, C)
    feats = np.concatenate([re_flat, np.zeros_like(re_flat)], axis=-1) / 4.0
    q, k, v = feats @ mp.attn.wq.data, feats @ mp.attn.wk.data, feats @ mp.attn.wv.data
    attn = _np_softmax(q @ k.transpose(0, 2, 1) / np.sqrt(C))
    p_global = attn @ v
    p_fused = p_spatial + p_global

    perm = np.argsort(keys, axis=-1, kind="stable")
    assert not np.array_equal(perm[0], np.arange(4))  # fixture exercises the reorder
    inv = np.argsort(perm, axis=-1)
    xs = x[0][perm[0]]
    As = a_decay[0][perm[0]]
    bs = b_gate[0][perm[0]]
    cs = (c_raw + p_fused)[0][perm[0]]
    hseq = np.zeros_like(xs)
    prev = np.zeros(C)
    for t in range(4):
        prev = As[t] * prev + bs[t] * xs[t]
        hseq[t] = prev
    yseq = cs * hseq
    y_tokens = yseq[inv[0]][None]

    mu = y_tokens.mean(axis=-1, keepdims=True)
    cent = y_tokens - mu
    var = (cent * cent).mean(axis=-1, keepdims=True)
    normed = cent / np.sqrt(var + 1e-5) * mp.ln_g.data + mp.ln_b.data
    y_out = normed @ mp.w_out.data + mp.b_out.data

    stages = {
        "L": (seen["x_in"][..., 3 * C :], logits),
        "route": (seen["route"], route),
        "p_spatial": (seen["p_spatial"], p_spatial),
        "p_global": (seen["p_global"], p_global),
        "p_fused": (seen["p_fused"], p_fused),
        "c_s": (seen["c_s"], cs[None]),
        "h": (seen["h"], hseq[None]),
        "y": (seen["y"], yseq[None]),
        "y_tokens": (seen["y_tokens"], y_tokens),
        "out": (out.data, y_out),
    }
    errs = {name: float(np.max(np.abs(got - want))) for name, (got, want) in stages.items()}
    perm_ok = np.array_equal(seen["perm"], perm)
    worst = max(errs.values())
    ok = perm_ok and worst <= 1e-12
    _report(9, f"module fixture oracle (worst stage err {worst:.1e})", ok)
    assert ok, errs


# -- 10: persistence and the evaluation table ----------------------------------


def test_c10_persistence(tmp_path):
    from promptscan.checkpoint import load_checkpoint, save_checkpoint
    from promptscan.network import named_parameters

    # checkpoint: save -> load -> save reproduces the file byte for byte
    cfg = desk_config(channels=4, blocks=1, modules_per_block=1, pool_size=2, seed=9)
    params = build_model(cfg)
    rng = np.random.default_rng(1)
    for t in named_parameters(params).values():
        t.data = rng.standard_normal(t.shape)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, params, cfg)
    loaded, lcfg = load_checkpoint(p1)
    save_checkpoint(p2, loaded, lcfg)
    ckpt_ok = p1.read_bytes() == p2.read_bytes() and all(
        np.array_equal(a.data, b.data)
        for a, b in zip(named_parameters(params).values(),
                        named_parameters(loaded).values())
    )

    # config text round-trips through parse and back unchanged
    run_cfg = RunConfig()
    run_cfg.model.scale = 4
    run_cfg.train.lr = 3e-4
    text = format_config(run_cfg)
    cfg_ok = parse_config(text) == run_cfg and format_config(parse_config(text)) == text

    # golden evaluation table from a reconstruction that equals the truth:
    # with the final conv zeroed the model output is exactly the bicubic
    # skip, and the fixture's hr is defined as that same upsample
    rng = np.random.default_rng(42)
    lr = rng.uniform(90.0, 160.0, (16, 16))
    hr = resample(lr[None, None], 32, 32, kind="cubic", antialias=False)[0, 0]
    mcfg = desk_config(channels=4, blocks=1, modules_per_block=1, pool_size=2, scale=2)
    mparams = build_model(mcfg)
    mparams.final_k.data = np.zeros_like(mparams.final_k.data)
    mparams.final_b.data = np.zeros_like(mparams.final_b.data)
    pair = ImagePair(lr=lr[None], hr=np.asarray(hr)[None], scale=2, id="fixture")
    text_out = format_eval_rows(evaluate([pair], mparams, mcfg))
    golden_ok = text_out.encode() == (DATA / "golden_eval.tsv").read_bytes()

    ok = ckpt_ok and cfg_ok and golden_ok
    _report(10, "persistence round-trips and golden eval table", ok)
    assert ok, (ckpt_ok, cfg_ok, golden_ok)
