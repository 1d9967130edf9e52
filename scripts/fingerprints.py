"""Byte fingerprints of the package's CSV output: the sha256 of each plan's
``run_plan(plan).csv_text`` at 1 and at 2 BLAS threads, with the numpy and
scipy versions and the machine they were computed on.

    python scripts/fingerprints.py                # write FINGERPRINTS.txt
    python scripts/fingerprints.py --out PATH     # write it elsewhere

The plans are the three benchmark workloads (rebuilt here from the package
API), the ``table-gao`` and ``table-ext1`` presets, every scheme x element
x solver at M=8 (``tau_rule="sqrt-h"``, T=1), and the first two runs of
``fig-u``.  Each thread count runs every plan in a child process of its
own, started with ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to it; the two children run at once.  Writing the
whole file took 17 s on a 2-core x86_64 machine.

A change that moves no number leaves the file byte for byte as it was;
``tests/test_fingerprints.py`` recomputes the plans with M <= 16 and
compares them with it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILE = ROOT / "FINGERPRINTS.txt"
THREADS = (1, 2)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HEADER = "# sha256 of run_plan(plan).csv_text: plan, BLAS threads, digest (scripts/fingerprints.py)"

sys.path.insert(0, str(ROOT / "src"))

from thermistor_fem import ExperimentPlan, SchemeConfig, preset_plan, run_plan  # noqa: E402
from thermistor_fem.fem import SOLVERS  # noqa: E402
from thermistor_fem.schemes import SCHEMES  # noqa: E402


def _single(name: str, config: SchemeConfig) -> tuple[str, ExperimentPlan]:
    return name, ExperimentPlan(name, (config,))


PLANS = dict(
    [
        _single("bdf2-tri-m256", SchemeConfig("bdf2", 256, "tri", tau_rule="fixed:0.1")),
        ("sweep-fig-u", preset_plan("fig-u")),
        _single("bdf2-quad-m256-cg", SchemeConfig("bdf2", 256, "quad", tau_rule="fixed:0.5", solver="cg")),
        ("table-gao", preset_plan("table-gao")),
        ("table-ext1", preset_plan("table-ext1")),
        *(
            _single(f"{scheme}-{elem}-{solver}-m8", SchemeConfig(scheme, 8, elem, solver=solver))
            for scheme in SCHEMES
            for elem in ("tri", "quad")
            for solver in SOLVERS
        ),
        ("fig-u-first-two", dataclasses.replace(preset_plan("fig-u"), runs=preset_plan("fig-u").runs[:2])),
    ]
)


def largest_mesh(name: str) -> int:
    """The largest M among the runs of plan ``name``."""
    return max(config.M for config in PLANS[name].runs)


def environment() -> dict:
    """What the digests depend on beside the package: the numpy and scipy
    versions and the machine."""
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def fingerprints(names) -> dict:
    """``{(plan, threads): sha256}`` for the named plans, one child process
    per thread count, all of them running at once."""
    children = {}
    for n in THREADS:
        env = os.environ | dict.fromkeys(THREAD_VARIABLES, str(n))
        command = [sys.executable, __file__, "--child", *names]
        children[n] = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # Wait for every child before reading any, so that none outlives a failure.
    outputs = {n: child.communicate() for n, child in children.items()}
    digests = {}
    for n, (out, err) in outputs.items():
        if children[n].returncode != 0:
            raise RuntimeError(f"the child at {n} BLAS threads failed:\n{err}")
        for line in out.splitlines():
            name, digest = line.split()
            digests[name, n] = digest
    return digests


def render(env: dict, digests: dict) -> str:
    """The text of FINGERPRINTS.txt."""
    lines = [HEADER, *(f"{key} {value}" for key, value in env.items())]
    lines += [f"{name} {n} {digests[name, n]}" for name in PLANS for n in THREADS]
    return "\n".join(lines) + "\n"


def read(path: Path = FILE) -> tuple[dict, dict]:
    """``(environment, digests)`` as `render` wrote them to ``path``."""
    env, digests = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) == 2:
            env[fields[0]] = fields[1]
        else:
            digests[fields[0], int(fields[1])] = fields[2]
    return env, digests


def _child(names) -> None:
    for name in names:
        csv_text = run_plan(PLANS[name]).csv_text
        print(name, hashlib.sha256(csv_text.encode()).hexdigest(), flush=True)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=FILE)
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)  # what `fingerprints` starts
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child)
        return 0
    args.out.write_text(render(environment(), fingerprints(list(PLANS))))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
