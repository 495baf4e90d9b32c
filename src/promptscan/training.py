"""Training loop, evaluation pass, and the gradient-reach map.

Everything here is driven by one seed: parameter init, router noise,
the frozen mask extractor, and patch sampling all come from independent
child streams of the config seed, so a run is exactly reproducible and
the persisted log is byte-identical across replays. Wall-clock timing
goes to stderr only, never into the log file.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    NumericalConsistencyError,
    TrainingAborted,
)
from .checkpoint import save_checkpoint
from .losses import build_feature_extractor, thermal_mask, total_loss
from .metrics import BIN_LABELS, error_histogram, psnr, ssim
from .network import (
    ForwardMode,
    ModelConfig,
    ModelParams,
    build_model,
    model_forward,
    named_parameters,
    seed_streams,
)
from .optim import Adam
from .resize import bicubic_resize
from .tensor import Tensor


@dataclass
class ImagePair:
    """One dataset entry; lr is derived from hr by bicubic reduction."""

    lr: np.ndarray
    hr: np.ndarray
    scale: int
    id: str

    def __post_init__(self):
        if self.hr.shape[-2] != self.scale * self.lr.shape[-2] or (
            self.hr.shape[-1] != self.scale * self.lr.shape[-1]
        ):
            raise DimensionError(
                f"pair {self.id!r}: hr {self.hr.shape} is not "
                f"{self.scale}x lr {self.lr.shape}"
            )


def pair_from_hr(hr: np.ndarray, scale: int, pair_id: str) -> ImagePair:
    """Crop hr to a multiple of scale and synthesize the lr counterpart."""
    hr = np.asarray(hr, dtype=np.float64)
    if hr.ndim != 2:
        raise DimensionError(f"pair {pair_id!r}: expected a 2-d image, got {hr.shape}")
    h = (hr.shape[0] // scale) * scale
    w = (hr.shape[1] // scale) * scale
    if h < 8 * scale or w < 8 * scale:
        raise ContractError(
            f"pair {pair_id!r}: {hr.shape} too small for scale {scale}"
        )
    hr = hr[:h, :w]
    lr = bicubic_resize(hr, 1.0 / scale)
    return ImagePair(lr=lr[None], hr=hr[None], scale=scale, id=pair_id)


def load_dataset(data_dir, scale: int) -> list:
    """All .pgm files under data_dir, sorted by name, as ImagePairs."""
    from .pgm import read_pgm

    root = Path(data_dir)
    files = sorted(root.glob("*.pgm"))
    if not files:
        raise ContractError(f"no .pgm images found in {root}")
    pairs = []
    for f in files:
        img, _ = read_pgm(f)
        pairs.append(pair_from_hr(img, scale, f.stem))
    return pairs


def sample_batch(pairs, rng: np.random.Generator, batch: int, patch: int, scale: int):
    """Random HR patches (scale-aligned) with their LR windows."""
    lr_p = patch // scale
    lrs, hrs = [], []
    for _ in range(batch):
        pair = pairs[int(rng.integers(len(pairs)))]
        hh, ww = pair.hr.shape[-2], pair.hr.shape[-1]
        if hh < patch or ww < patch:
            raise ContractError(
                f"pair {pair.id!r} ({hh}x{ww}) smaller than patch {patch}"
            )
        y = int(rng.integers((hh - patch) // scale + 1)) * scale
        x = int(rng.integers((ww - patch) // scale + 1)) * scale
        hrs.append(pair.hr[:, y : y + patch, x : x + patch])
        lrs.append(pair.lr[:, y // scale : y // scale + lr_p, x // scale : x // scale + lr_p])
    return np.stack(lrs), np.stack(hrs)


@dataclass
class TrainResult:
    params: ModelParams
    cfg: RunConfig
    log_path: Path
    ckpt_path: Path
    steps_run: int


_LOG_HEADER = "step\tloss_total\tloss_phase\tloss_freq\tloss_pix\n"


def train_loop(pairs, cfg: RunConfig, out_dir, progress=None) -> TrainResult:
    """Run the full training schedule; returns the trained parameters.

    Writes ``train_log.tsv`` (deterministic bytes) and a rolling
    ``checkpoint.bin`` every ckpt_every steps and after the last step,
    once when the two coincide. A
    non-finite loss or gradient aborts without touching the last good
    checkpoint. ``progress``, when given a text stream, receives
    human-oriented per-step lines including wall time; those never go
    into the log file, which must replay byte for byte.
    """
    if not pairs:
        raise ContractError("training dataset is empty")
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.tsv"
    ckpt_path = out / "checkpoint.bin"

    params = build_model(cfg.model)
    streams = seed_streams(cfg.model.seed)
    extractor = build_feature_extractor(
        int(np.random.default_rng(streams["extract"]).integers(0, 2**32))
    )
    data_rng = np.random.default_rng(streams["data"])
    opt = Adam(
        named_parameters(params),
        lr=cfg.train.lr,
        beta1=cfg.train.beta1,
        beta2=cfg.train.beta2,
        eps=cfg.train.eps,
    )
    mode = ForwardMode(train=True, route="hard")

    with open(log_path, "w", encoding="utf-8", newline="") as log:
        log.write(_LOG_HEADER)
        for step in range(1, cfg.train.steps + 1):
            t0 = time.perf_counter()
            lr_b, hr_b = sample_batch(
                pairs, data_rng, cfg.train.batch, cfg.train.patch, cfg.model.scale
            )
            opt.zero_grad()
            sr = model_forward(Tensor(lr_b), params, cfg.model, mode)
            hr_t = Tensor(hr_b)
            mask = thermal_mask(hr_t, params.gate_k, params.gate_b, extractor)
            parts: dict = {}
            loss = total_loss(sr, hr_t, mask, cfg.loss, parts=parts)
            if not math.isfinite(parts["total"]):
                raise TrainingAborted(
                    f"non-finite loss at step {step}; last checkpoint kept at {ckpt_path}"
                )
            loss.backward()
            opt.step()
            if step % cfg.train.log_every == 0 or step == cfg.train.steps:
                log.write(
                    f"{step}\t{parts['total']:.10e}\t{parts['phase']:.10e}"
                    f"\t{parts['freq']:.10e}\t{parts['pix']:.10e}\n"
                )
            if step % cfg.train.ckpt_every == 0:
                save_checkpoint(ckpt_path, params, cfg.model)
            if progress is not None:
                dt = (time.perf_counter() - t0) * 1000.0
                print(
                    f"step {step}/{cfg.train.steps} loss {parts['total']:.4f} "
                    f"({dt:.0f} ms)",
                    file=progress,
                )
    if cfg.train.steps % cfg.train.ckpt_every:  # else the last step has just saved
        save_checkpoint(ckpt_path, params, cfg.model)
    return TrainResult(
        params=params, cfg=cfg, log_path=log_path, ckpt_path=ckpt_path,
        steps_run=cfg.train.steps,
    )


# -- evaluation -------------------------------------------------------------


@dataclass
class EvalRow:
    image: str
    psnr_db: float
    mse: float
    ssim: float
    fractions: tuple


def _eval_one(pair: ImagePair, params: ModelParams, cfg: ModelConfig) -> EvalRow:
    lr = Tensor(pair.lr[None])
    sr = model_forward(lr, params, cfg, ForwardMode(train=False, route="hard"))
    if not np.isfinite(sr.data).all():
        raise NumericalConsistencyError(f"image {pair.id}: the SR output is not finite")
    sr_img = np.clip(sr.data[0, 0], 0.0, 255.0)
    hr_img = pair.hr[0]
    p, m = psnr(sr_img, hr_img)
    s = ssim(sr_img, hr_img)
    hist = error_histogram(sr_img, hr_img)
    return EvalRow(image=pair.id, psnr_db=p, mse=m, ssim=s, fractions=hist.fractions())


def evaluate(pairs, params: ModelParams, cfg: ModelConfig, workers: int = 1) -> list:
    """Per-image rows plus a trailing mean row, in dataset order."""
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    if workers == 1:
        rows = [_eval_one(p, params, cfg) for p in pairs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda p: _eval_one(p, params, cfg), pairs))
    if not rows:
        raise ContractError("evaluation dataset is empty")
    n = len(rows)
    mean = EvalRow(
        image="mean",
        psnr_db=sum(r.psnr_db for r in rows) / n,
        mse=sum(r.mse for r in rows) / n,
        ssim=sum(r.ssim for r in rows) / n,
        fractions=tuple(sum(r.fractions[i] for r in rows) / n for i in range(4)),
    )
    return rows + [mean]


EVAL_HEADER = "image\tpsnr_db\tmse\tssim\t" + "\t".join(BIN_LABELS)


def format_eval_rows(rows) -> str:
    """The TSV emitted by evaluation; INF is the infinite-PSNR sentinel."""
    lines = [EVAL_HEADER]
    for r in rows:
        p = "INF" if math.isinf(r.psnr_db) else f"{r.psnr_db:.4f}"
        frac = "\t".join(f"{f:.6f}" for f in r.fractions)
        lines.append(f"{r.image}\t{p}\t{r.mse:.6f}\t{r.ssim:.4f}\t{frac}")
    return "\n".join(lines) + "\n"


# -- receptive-field probe ----------------------------------------------


def erf_map(params: ModelParams, cfg: ModelConfig, lr_img: np.ndarray) -> np.ndarray:
    """|d sr(center) / d lr| over the input plane, normalized to [0, 1].

    Structural zeros stay exactly zero; the map is scaled by its max
    (left untouched when it is identically zero).
    """
    lr_img = np.asarray(lr_img, dtype=np.float64)
    if lr_img.ndim != 2:
        raise DimensionError(f"erf probe expects a 2-d image, got {lr_img.shape}")
    x = Tensor(lr_img[None, None].copy(), requires_grad=True)
    sr = model_forward(x, params, cfg, ForwardMode(train=False, route="hard"))
    cy, cx = sr.shape[2] // 2, sr.shape[3] // 2
    sr[(0, 0, cy, cx)].backward()
    g = np.abs(x.grad[0, 0])
    peak = g.max()
    return g / peak if peak > 0 else g
