"""The benchmark's smoke run: every workload path at M <= 16, untraced and
traced.  The traced run wraps module attributes by name (for example
``fem.solve_spd``, ``schemes.assemble_*`` and ``harness.macroelements``), so
renaming or bypassing one of them fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
