# Keeps this directory on sys.path so tests can import the shared oracles module.

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``peak(call, *args)``: the ``tracemalloc`` peak, in bytes, of one ``call(*args)``."""
    def peak(call, *args) -> int:
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
