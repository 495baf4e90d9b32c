import tracemalloc

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
