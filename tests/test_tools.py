"""The scripts under ``tools/`` run against the package in ``src``."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_replay_digest_prints_one_digest_per_artifact(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_digest.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split("  ", 1)[1] for line in lines] == [
        "train_log.tsv",
        "checkpoint.bin",
        "promptscan eval TSV",
        "forward, LR 64², checkpoint seed 41",
        "forward, LR 64², checkpoint seed 42",
        "forward, LR 24², scale 4, seed 43",
        "erf_map, LR 24², scale 4, seed 43",
    ]
    digests = [line.split("  ", 1)[0] for line in lines]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
    assert len(set(digests)) == len(digests)
    assert list(tmp_path.iterdir()) == []  # its work directory is gone


def test_every_name_the_bench_traces_resolves_in_promptscan():
    """The bench wraps these names by lookup, and one the program no
    longer defines only lands in the tracer's ``missing`` list and reads
    as 0 in the per-layer metrics, so a rename shows up here instead."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, name, *_ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"promptscan.{module}"), name, None)), name
    for module, cls, name, *_ in spans.METHODS:
        owner = getattr(importlib.import_module(f"promptscan.{module}"), cls, None)
        assert callable(getattr(owner, name, None)), f"{cls}.{name}"
