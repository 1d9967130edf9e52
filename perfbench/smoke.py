#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload path at M <= 16, untraced and traced.

Run from the repository root: ``python3 perfbench/smoke.py``.  Each run must
pass its correctness check and emit exactly the metrics BENCHMARK.json
declares for its mode, each with the declared unit.  Exits 1 on a mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "0",
                   "--seconds", "0", "--trace", str(trace), "--smoke"]
            proc = subprocess.run([sys.executable, *cmd[1:]], cwd=ROOT, capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                errors.append(f"{label}: no result line (exit {proc.returncode})\n{proc.stderr}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                errors.append(f"{label}: failed (exit {proc.returncode})\n{proc.stderr}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                wrong = sorted(n for n in emitted if n in declared[trace] and emitted[n] != declared[trace][n])
                errors.append(f"{label}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
            print(f"{label}: {len(emitted)} metrics, correct={result['correct']}")
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
