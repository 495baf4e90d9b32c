import tracemalloc
import types

import numpy as np
import pytest

from promptscan import network, scan, tensor


def _traced_peak(fn):
    """``fn()``'s result and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``_traced_peak``, for the tests that bound a call's memory."""
    return _traced_peak


def _tape_objects(root):
    """Every object reachable from ``root`` through ``_parents``, ``root``
    first: the tape's records, the tracked leaves they read and the one
    record that stands for every untracked parent."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


@pytest.fixture
def tape_objects():
    """``_tape_objects``, for the tests that inspect a recorded tape."""
    return _tape_objects


def _saved_arrays(fn, seen_fns):
    """The arrays held in ``fn``'s closure cells, directly or in a tuple
    or list, and those of every function held there the same way, so a
    vjp cannot hide an array behind a nested helper. ``seen_fns`` holds
    the ids of the functions already walked."""
    seen_fns.add(id(fn))
    for cell in getattr(fn, "__closure__", None) or ():
        value = cell.cell_contents
        for a in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(a, np.ndarray):
                yield a
            elif isinstance(a, types.FunctionType) and id(a) not in seen_fns:
                yield from _saved_arrays(a, seen_fns)


def _tape_bytes(root):
    """Bytes of the distinct arrays that the vjps on ``root``'s tape
    saved, by vjp qualname. A closure cell counts when it is an array, a
    function whose cells count, or a tuple or list of those; a view
    counts as the array it views, and each array is charged once, to the
    first record that holds it."""
    seen, kinds = set(), {}
    for node in _tape_objects(root):
        if node._vjp is None:
            continue
        kind = node._vjp.__qualname__
        for a in _saved_arrays(node._vjp, set()):
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in seen:
                seen.add(id(a))
                kinds[kind] = kinds.get(kind, 0) + a.nbytes
    return kinds


@pytest.fixture
def tape_bytes():
    """``_tape_bytes``, for the tests that size what a tape keeps."""
    return _tape_bytes


@pytest.fixture
def module_stages(monkeypatch):
    """A dict that a module forward run under the fixture fills with
    copies of its stages, each from the call that makes it: the packed
    projection ``x_in``, ``route``, the spatial prompt ``p_spatial`` (the
    module's one ``matmul``), ``p_global``, ``p_fused`` (its first
    ``add``), the permutation ``perm``, the scan-order gate ``c_s`` and
    states ``h`` (what ``scan._linear_scan`` returns), the scan-order
    output ``y`` = c_s * h and the scan's output in token order,
    ``y_tokens``. A stage keeps its first value; one the forward does
    not make stays absent."""
    stages = {}

    def spy(owner, name, record):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            for stage, value in record(args, kwargs, out).items():
                stages.setdefault(stage, value.copy())
            return out

        monkeypatch.setattr(owner, name, wrapper)

    def scanned(args, kwargs, out):
        c, order = args[3].data, kwargs.get("order")
        if order is not None:
            c = np.take_along_axis(c, order.perm[..., None], 1)
        return {"c_s": c, "y": c * stages["h"], "y_tokens": out.data}

    spy(network, "linear_silu_linear", lambda args, kwargs, out: {"x_in": out.data})
    spy(network, "route_tokens", lambda args, kwargs, out: {"route": out.data})
    spy(network, "global_prompt", lambda args, kwargs, out: {"p_global": out.data})
    spy(network, "semantic_order", lambda args, kwargs, out: {"perm": out.perm})
    spy(tensor, "matmul", lambda args, kwargs, out: {"p_spatial": out.data})
    spy(tensor, "add", lambda args, kwargs, out: {"p_fused": out.data})
    spy(scan, "_linear_scan", lambda args, kwargs, out: {"h": out})
    spy(network, "gated_recurrence", scanned)
    return stages
