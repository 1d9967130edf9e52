"""Command line interface for single runs and preset convergence sweeps.

Exit codes: 0 on success, 2 for invalid configuration, 3 when a solve fails
(non-elliptic coefficient, a linear solver that does not converge, or memory
that runs out).  A failed run is classified by the type of its exception: the
ones in `schemes.RUN_FAILURES` are solver failures (raised in a step, their
text names it), any other `ValueError` is a configuration error.  ``--out`` is
opened before any run: a path that cannot be opened for writing is a
configuration error, and a CSV that cannot be written after the runs is one
line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ExperimentPlan,
    PRESETS,
    preset_plan,
    render_order_table,
    run_plan,
)
from .schemes import RUN_FAILURES, SCHEMES, SchemeConfig, validate_config

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermistor-fem",
        description="Convergence studies for the decoupled BDF-Galerkin thermistor solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one configuration and write its error report")
    run.add_argument("--scheme", required=True, choices=SCHEMES)
    run.add_argument("--elem", default="quad", choices=["quad", "tri"])
    run.add_argument("--M", required=True, type=int, help="cells per side (even)")
    run.add_argument(
        "--tau-rule",
        default="sqrt-h",
        help="time step rule: sqrt-h, equal-h, or fixed:<value>",
    )
    run.add_argument("--T", default=1.0, type=float, help="final time")
    run.add_argument("--out", required=True, help="CSV output path")

    sweep = sub.add_parser("sweep", help="run a preset study and write its CSV")
    sweep.add_argument("--preset", required=True, choices=sorted(PRESETS))
    sweep.add_argument("--out", required=True, help="CSV output path")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            config = SchemeConfig(
                scheme=args.scheme,
                M=args.M,
                elem_kind=args.elem,
                T=args.T,
                tau_rule=args.tau_rule,
            )
            validate_config(config)
            plan = ExperimentPlan(study="cli-run", runs=(config,))
        else:
            plan = preset_plan(args.preset)
        try:
            out = open(args.out, "w")
        except OSError as exc:
            raise ValueError(f"cannot write the CSV to {args.out!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    result = run_plan(plan)
    for failure in result.failures:
        print(failure, file=sys.stderr)
    try:
        with out:
            out.write(result.csv_text)
    except OSError as exc:
        print(f"cannot write the CSV to {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    print(f"wrote {len(result.reports)} run(s) to {args.out}")
    print()
    print(render_order_table(result.reports), end="")
    if result.failures:
        return 3 if any(isinstance(failure.error, RUN_FAILURES) for failure in result.failures) else 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
