"""The scripts under ``tools/`` run against the package in ``src``, and
``src`` defines only what the program reaches."""

import ast
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


def _defined_public_names(tree):
    """The public functions and classes a module defines at its top
    level, and the public methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _used_names(tree):
    """Every name, attribute and import alias a module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


def test_every_public_name_in_src_is_used_outside_the_tests():
    """A function, class or method of ``promptscan`` that no module of
    the program, demo, bench or tool names is reached only from tests;
    such oracles belong in ``tests/``. Matching is by name alone, so a
    method escapes when anything else of its name is used."""
    program = sorted((ROOT / "src" / "promptscan").glob("*.py"))
    files = program + [
        f for d in ("demos", "perfbench", "tools") for f in sorted((ROOT / d).glob("*.py"))
    ]
    trees = {f: ast.parse(f.read_text(encoding="utf-8"), str(f)) for f in files}
    used = {name for tree in trees.values() for name in _used_names(tree)}
    unused = [
        f"{f.stem}.{name}"
        for f in program
        for name in _defined_public_names(trees[f])
        if name.rsplit(".", 1)[-1] not in used
    ]
    assert unused == []
