import tracemalloc

import numpy as np
import pytest


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


def _tape_bytes(root):
    """Bytes of the distinct arrays that the vjps on ``root``'s tape
    saved, by vjp qualname. A closure cell counts when it is an array or
    a tuple or list of arrays; a view counts as the array it views, and
    each array is charged once, to the first record that holds it."""
    seen, kinds = set(), {}
    for node in _tape_objects(root):
        if node._vjp is None:
            continue
        kind = node._vjp.__qualname__
        for cell in node._vjp.__closure__ or ():
            value = cell.cell_contents
            for a in value if isinstance(value, (tuple, list)) else (value,):
                if not isinstance(a, np.ndarray):
                    continue
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
