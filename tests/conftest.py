"""Make the package importable in the interpreters that tests start, as
``pythonpath`` in pyproject.toml does for the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
