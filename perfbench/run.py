#!/usr/bin/env python3
"""Benchmark of the thermistor-fem solver, run from the repository root.

    python3 perfbench/run.py --workload bdf2-tri-m256 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload, one process each
    python3 perfbench/smoke.py                            # every workload path at M <= 16

Workloads (each operation is one ``run_plan`` call; see BENCHMARK.json):

* ``bdf2-tri-m256``: bdf2, P1 triangles, M=256, tau=0.1 (N=10), sparse LU.
* ``sweep-fig-u``: the ``fig-u`` preset, bdf2 at M=8..64, 172 steps in all.
* ``bdf2-quad-m256-cg``: bdf2, Q1 squares, M=256, tau=0.5 (N=2), CG solver.

The manufactured problem has no random input, so ``--seed`` is recorded and
changes nothing.  Every operation's CSV is checked against the reference CSV
recorded at the seed commit (``perfbench/reference``): error columns to a
relative 1e-10, orders to 1e-8, and no ``# run failed`` lines.

With ``--trace 0`` the last line of output reports the end-to-end metrics:
median wall time of an operation, set-up (``build_mesh`` + ``FeSpace``),
time in ``run_simulation`` per step, time in ``compute_error_report``, and
the peak resident set of the process.  With ``--trace 1`` it reports the
per-layer metrics of traced operations: self times of each wrapped call
(they partition ``trace.wall_s``; the share left in no named layer,
``harness.self_s`` + ``schemes.self_s``, is printed and warned about above
10%), ``harness.run_one_s`` inclusive, exact counts, the computed size of the
quadrature tables, and the tracing overhead against one untraced operation.
The spans go to ``perfbench/out``.

The ``env`` line, printed after the operations, holds ``probe_s``: the
median time of a fixed sparse LU and dense product (none of it this
package's code) before and after them, so that runs made while the host ran
slower or faster than usual can be seen and set aside.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bdf2-tri-m256", "sweep-fig-u", "bdf2-quad-m256-cg")
#: BLAS/OpenMP threads.  One thread keeps runs steady on a shared machine;
#: no hot path here runs multi-threaded BLAS.
THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the M <= 16 versions of the workloads")
    return parser.parse_args(argv)


def run_all(argv) -> int:
    """Run every workload in a process of its own."""
    status = 0
    for name in WORKLOADS:
        args = [a if a != "all" else name for a in argv]
        status |= subprocess.run([sys.executable, __file__, *args]).returncode
    return status


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(argv)
    if sys.flags.optimize:
        print("run without -O: run_simulation's boundary assertions are part of the program", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "thermistor_fem" / "__init__.py").is_file():
        print(f"no thermistor_fem sources under {src}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(src))

    import numpy
    import scipy

    import bench

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    probe_before = bench.host_probe()
    result, traced_ops, problems, warnings = bench.measure(args.workload, args.seconds, bool(args.trace), args.smoke)
    env["probe_s"] = [probe_before, bench.host_probe()]
    print(json.dumps({"env": env}))
    if traced_ops:
        tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
        bench.write_spans(Path(__file__).resolve().parent / "out" / f"spans-{tag}.jsonl", env, traced_ops)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    failed_frac = result["failed"] / result["attempted"]
    print(f"failed_frac {failed_frac:g} ({result['failed']} of {result['attempted']} runs)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
