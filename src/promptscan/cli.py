"""Command-line front end.

Five subcommands: ``train``, ``eval``, ``gradcheck``, ``erf`` and
``spectrum``. Exit codes follow the usual convention: 0 on success, 1
on a runtime failure (with a diagnostic on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .config import RunConfig, format_config, load_config
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    NumericalConsistencyError,
    ParseError,
    TrainingAborted,
)
from .fft import fft2d_raw
from .gradsuite import check_names, format_results, run_suite
from .pgm import read_pgm, write_pgm
from .training import erf_map, evaluate, format_eval_rows, load_dataset, train_loop


def _cmd_train(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg.validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # provenance: the fully merged config, not just the overrides given
    (out / "run.cfg").write_text(format_config(cfg), encoding="utf-8")
    pairs = load_dataset(args.data, cfg.model.scale)
    result = train_loop(pairs, cfg, out, progress=sys.stderr)
    print(f"trained {result.steps_run} steps")
    print(f"log:        {result.log_path}")
    print(f"checkpoint: {result.ckpt_path}")
    return 0


def _cmd_eval(args) -> int:
    params, cfg = load_checkpoint(args.ckpt)
    if args.scale is not None and args.scale != cfg.scale:
        raise ConfigError(
            f"checkpoint was built for scale {cfg.scale}, requested {args.scale}"
        )
    pairs = load_dataset(args.data, cfg.scale)
    rows = evaluate(pairs, params, cfg, workers=args.workers)
    sys.stdout.write(format_eval_rows(rows))
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_suite(only=args.module, instances=args.instances)
    if not results:
        raise ConfigError(
            f"no gradient check matches {args.module!r}; "
            f"known checks: {', '.join(check_names())}"
        )
    print(format_results(results))
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    return 0


def _cmd_erf(args) -> int:
    params, cfg = load_checkpoint(args.ckpt)
    img, _ = read_pgm(args.image)
    reach = erf_map(params, cfg, img)
    write_pgm(args.out, reach * 255.0)
    return 0


def _center(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return np.roll(plane, (h // 2, w // 2), axis=(0, 1))


def _cmd_spectrum(args) -> int:
    img, _ = read_pgm(args.image)
    spec = fft2d_raw(img)
    log_mag = _center(np.log1p(np.hypot(spec.real, spec.imag)))
    peak = log_mag.max()
    if peak > 0:
        log_mag = log_mag * (255.0 / peak)
    phase = _center(np.arctan2(spec.imag, spec.real))
    phase = (phase + np.pi) * (255.0 / (2.0 * np.pi))
    write_pgm(f"{args.out_prefix}_magnitude.pgm", log_mag)
    write_pgm(f"{args.out_prefix}_phase.pgm", phase)
    return 0


def _count(text: str) -> int:
    """An argparse type: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="promptscan",
        description="Prompt-guided selective-scan super-resolution toolkit.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from PGM images")
    t.add_argument("--config", help="key=value config file; defaults apply when omitted")
    t.add_argument("--data", required=True, help="directory of ground-truth .pgm images")
    t.add_argument("--out", required=True, help="output directory (log, checkpoint, merged config)")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="print per-image quality metrics as TSV")
    e.add_argument("--ckpt", required=True, help="checkpoint file")
    e.add_argument("--data", required=True, help="directory of ground-truth .pgm images")
    e.add_argument("--scale", type=int, choices=(2, 4),
                   help="expected upscale factor; checked against the checkpoint")
    e.add_argument("--workers", type=_count, default=1, help="parallel image workers")
    e.set_defaults(func=_cmd_eval)

    g = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    g.add_argument("--module", help="run only checks whose name contains this substring")
    g.add_argument("--instances", type=_count, default=20, help="random instances per check")
    g.set_defaults(func=_cmd_gradcheck)

    r = sub.add_parser("erf", help="effective-receptive-field map for the center output pixel")
    r.add_argument("--ckpt", required=True, help="checkpoint file")
    r.add_argument("--image", required=True, help="low-resolution probe image (.pgm)")
    r.add_argument("--out", required=True, help="output map (.pgm, normalized)")
    r.set_defaults(func=_cmd_erf)

    s = sub.add_parser("spectrum", help="write log-magnitude and phase maps of an image")
    s.add_argument("--image", required=True, help="input image (.pgm)")
    s.add_argument("--out-prefix", required=True,
                   help="writes <prefix>_magnitude.pgm and <prefix>_phase.pgm")
    s.set_defaults(func=_cmd_spectrum)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        ConfigError,
        ContractError,
        DimensionError,
        NumericalConsistencyError,
        ParseError,
        TrainingAborted,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
