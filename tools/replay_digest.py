#!/usr/bin/env python3
"""Print sha256 digests of the bytes a change must replay exactly.

    python3 tools/replay_digest.py

Run from a promptscan checkout; the program is imported from its
``src/``, the seeded inputs come from ``perfbench/inputs.py``, and all
files go to a temporary directory that is removed on exit. It prints one
``<sha256>  <what>`` line for each of:

- ``train_log.tsv`` and ``checkpoint.bin`` of a 10-step run of the
  default (desk) config on eight structured HR 64² images;
- the ``promptscan eval`` TSV of that checkpoint on the same images;
- an untracked eval-mode forward of one structured LR 64² image on each
  of two seeded desk checkpoints (``inputs.write_checkpoint``);
- an untracked eval-mode forward of one structured LR 24² image on a
  freshly built ``desk_config(scale=4, seed=43)`` model, which reaches
  the second up-sampling stage, and that model's ``erf_map`` on the same
  image, which runs the input gradient through every conv and shuffle.

Two checkouts whose outputs, gradients and optimizer steps agree bit for
bit print the same lines. BLAS runs on one thread, as in the benchmark.
"""

import os

# BLAS reads these when numpy loads, so they are set before any import
# that could load it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from inputs import write_checkpoint, write_images  # noqa: E402
from promptscan import cli, training  # noqa: E402
from promptscan.checkpoint import load_checkpoint  # noqa: E402
from promptscan.config import RunConfig  # noqa: E402
from promptscan.network import (  # noqa: E402
    ForwardMode,
    build_model,
    desk_config,
    model_forward,
    named_parameters,
)
from promptscan.pgm import read_pgm  # noqa: E402
from promptscan.tensor import Tensor  # noqa: E402

TRAIN_SEED = 1
TRAIN_STEPS = 10
FORWARD_SEEDS = (41, 42)
SCALE4_SEED = 43


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(work: Path) -> list:
    """(digest, label) pairs for the artifacts listed in the module doc."""
    data, run = work / "data", work / "run"
    write_images(data, TRAIN_SEED, count=8, size=64)
    cfg = RunConfig()
    cfg.train.steps = TRAIN_STEPS
    training.train_loop(training.load_dataset(data, cfg.model.scale), cfg, run)
    ckpt = run / "checkpoint.bin"
    out = [
        (_sha((run / "train_log.tsv").read_bytes()), "train_log.tsv"),
        (_sha(ckpt.read_bytes()), "checkpoint.bin"),
    ]

    tsv = io.StringIO()
    with contextlib.redirect_stdout(tsv):
        code = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
    if code != 0:
        raise SystemExit(f"promptscan eval exited {code}")
    out.append((_sha(tsv.getvalue().encode("utf-8")), "promptscan eval TSV"))

    for seed in FORWARD_SEEDS:
        path = work / f"ckpt{seed}.bin"
        write_checkpoint(path, seed)
        params, model_cfg = load_checkpoint(path)
        (img_path,) = write_images(work / f"lr{seed}", seed, count=1, size=64)
        img, _ = read_pgm(img_path)
        sr = model_forward(Tensor(img[None, None]), params, model_cfg, ForwardMode())
        out.append((_sha(sr.data.tobytes()), f"forward, LR 64², checkpoint seed {seed}"))

    model_cfg = desk_config(scale=4, seed=SCALE4_SEED)
    params = build_model(model_cfg)
    for t in named_parameters(params).values():
        t.requires_grad = False
    (img_path,) = write_images(work / "lr24", SCALE4_SEED, count=1, size=24)
    img, _ = read_pgm(img_path)
    sr = model_forward(Tensor(img[None, None]), params, model_cfg, ForwardMode())
    out.append((_sha(sr.data.tobytes()), f"forward, LR 24², scale 4, seed {SCALE4_SEED}"))
    erf = training.erf_map(params, model_cfg, img)
    out.append((_sha(erf.tobytes()), f"erf_map, LR 24², scale 4, seed {SCALE4_SEED}"))
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="replay_digest_") as work:
        for value, label in digests(Path(work)):
            print(f"{value}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
