"""Command line interface for single runs and preset convergence sweeps.

Exit codes: 0 on success, 2 for invalid configuration, 3 when a solve fails
(non-elliptic coefficient or a linear solver that does not converge).  A
failed run is classified by the type of its exception: `ConductivityNotPositive`
and `NoConvergence` are solver failures, any other `ValueError` is a
configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .fem import ConductivityNotPositive, NoConvergence
from .harness import (
    ExperimentPlan,
    PRESETS,
    preset_plan,
    render_order_table,
    run_plan,
)
from .schemes import SCHEMES, SchemeConfig, validate_config

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
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    result = run_plan(plan, out_path=args.out)
    for failure in result.failures:
        config = failure.config
        print(
            f"run failed (scheme={config.scheme} M={config.M} "
            f"tau_rule={config.tau_rule}): {failure.message}",
            file=sys.stderr,
        )

    print(f"wrote {len(result.reports)} run(s) to {args.out}")
    print()
    print(render_order_table(result.reports), end="")
    if result.failures:
        solver_failure = any(
            isinstance(failure.error, (ConductivityNotPositive, NoConvergence))
            for failure in result.failures
        )
        return 3 if solver_failure else 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
