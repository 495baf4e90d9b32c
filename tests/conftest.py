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
