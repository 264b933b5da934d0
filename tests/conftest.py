# Keeps this directory on sys.path so tests can import the shared oracles module.

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The line of ``sys._debugmallocstats()`` that counts CPython's free 20-item tuples.
_FREE_20 = re.compile(rb"^\s*(\d+) free 20-sized PyTupleObject", re.MULTILINE)


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


@pytest.fixture
def new_free_20_tuples():
    """``count(setup, code)``: the free 20-item tuples that CPython holds after ``code``
    beyond those it held after ``setup``, both run in a fresh interpreter, since earlier
    tests may have filled that free list to its cap. Skips where
    ``sys._debugmallocstats`` or its line for them is absent."""
    def count(setup: str, code: str) -> int:
        if not hasattr(sys, "_debugmallocstats"):
            pytest.skip("sys._debugmallocstats is absent")
        script = f"{setup}\nimport sys\nsys._debugmallocstats()\n{code}\nsys._debugmallocstats()\n"
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
        counts = [int(n) for n in _FREE_20.findall(done.stderr)]
        if len(counts) != 2:
            pytest.skip("sys._debugmallocstats prints no free 20-sized tuple line")
        return counts[1] - counts[0]
    return count
