"""The scripts under ``tools/`` run against the package in ``src``, and
``src`` defines only what the program reaches and takes only the
parameters that the program sets."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import defaultdict
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
        "spectrum magnitude map, 48×41, seed 44",
        "spectrum phase map, 48×41, seed 44",
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


def _parsed_program():
    """The modules of ``promptscan``, and the parsed modules of it and of
    the demos, the bench and the tools, by path."""
    program = sorted((ROOT / "src" / "promptscan").glob("*.py"))
    files = program + [
        f for d in ("demos", "perfbench", "tools") for f in sorted((ROOT / d).glob("*.py"))
    ]
    return program, {f: ast.parse(f.read_text(encoding="utf-8"), str(f)) for f in files}


def test_every_public_name_in_src_is_used_outside_the_tests():
    """A function, class or method of ``promptscan`` that no module of
    the program, demo, bench or tool names is reached only from tests;
    such oracles belong in ``tests/``. Matching is by name alone, so a
    method escapes when anything else of its name is used."""
    program, trees = _parsed_program()
    used = {name for tree in trees.values() for name in _used_names(tree)}
    unused = [
        f"{f.stem}.{name}"
        for f in program
        for name in _defined_public_names(trees[f])
        if name.rsplit(".", 1)[-1] not in used
    ]
    assert unused == []


# a value passed that is not a literal: a variable, an expression, or
# whatever a * or ** argument holds
_OPAQUE = "<not a literal>"


def _positional(fn):
    """The names a call can fill by position, without self or cls."""
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return names[1:] if names[:1] in (["self"], ["cls"]) else names


def _call_sites(trees):
    """Function name -> every (call, innermost enclosing def or lambda)
    that calls a function or method of that name."""
    sites = defaultdict(list)

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                sites[name].append((child, enclosing))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, child if inner else enclosing)

    for tree in trees:
        visit(tree, None)
    return sites


def _argument(call, positional, param):
    """The expression ``call`` passes for ``param``, _OPAQUE when a * or
    ** argument may fill it, or None when the call leaves it out."""
    for kw in call.keywords:
        if kw.arg is None or kw.arg == param:
            return _OPAQUE if kw.arg is None else kw.value
    if param in positional:
        i = positional.index(param)
        if any(isinstance(a, ast.Starred) for a in call.args[: i + 1]):
            return _OPAQUE
        if i < len(call.args):
            return call.args[i]
    return None


def _forwards(expr, enclosing, param):
    """Whether ``expr`` is the parameter ``param`` of the def it sits in."""
    if not isinstance(expr, ast.Name) or expr.id != param:
        return False
    if not isinstance(enclosing, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    args = enclosing.args
    return param in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def _passed_values(name, param, defs, sites, seen):
    """One value per program call of ``name`` that passes ``param``: its
    literal's repr, or _OPAQUE. A call that forwards its own parameter of
    the same name stands for what that function's callers pass."""
    values = []
    for call, enclosing in sites.get(name, ()):
        expr = _argument(call, _positional(defs[name]) if name in defs else [], param)
        if expr is None:
            continue
        if _forwards(expr, enclosing, param):
            if (enclosing.name, param) not in seen:
                seen.add((enclosing.name, param))
                defs = {**defs, enclosing.name: enclosing}
                values += _passed_values(enclosing.name, param, defs, sites, seen)
            continue
        try:
            values.append(_OPAQUE if expr is _OPAQUE else repr(ast.literal_eval(expr)))
        except ValueError:
            values.append(_OPAQUE)
    return values


def _defaulted_parameters(tree):
    """(function, parameter) for each defaulted parameter of the public
    functions a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            names = _positional(node)
            for param in names[len(names) - len(node.args.defaults) :]:
                yield node.name, param
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg


def test_every_defaulted_parameter_in_src_is_set_by_the_program():
    """A defaulted parameter of a public ``promptscan`` function that no
    call in the program, demos, bench or tools passes, or that every such
    call passes as the same literal, takes one value in every run: it is
    an option only tests set, or a constant. A call that forwards a
    parameter of the same name of the function it sits in counts through
    that function's own callers. Calls match by name, so only module-level
    functions are in reach: a method such as ``Tensor.sum`` shares its
    name with numpy's, whose calls would pass for its own."""
    program, trees = _parsed_program()
    defs = {
        node.name: node
        for f in program
        for node in trees[f].body
        if isinstance(node, ast.FunctionDef)
    }
    sites = _call_sites(trees.values())
    fixed = []
    for f in program:
        for name, param in _defaulted_parameters(trees[f]):
            values = _passed_values(name, param, defs, sites, set())
            if not values:
                fixed.append(f"{name}({param})")
            elif _OPAQUE not in values and len(set(values)) == 1:
                fixed.append(f"{name}({param})={values[0]}")
    assert fixed == []
