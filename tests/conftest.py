"""Make the package importable in the interpreters that tests start, as
``pythonpath`` in pyproject.toml does for the test process itself, and fail
any test that leaves a Python thread running."""

import os
import threading
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    # Every helper thread ends with the call that starts it (`fem._beside`):
    # a step's loads, a fill's second element range.  BLAS threads are
    # native and are not listed here.
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running after the test: {left}"
