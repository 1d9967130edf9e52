"""Convergence-study harness: error reports, CSV output, preset sweeps.

A *plan* is a named list of scheme configurations.  Running a plan runs every
configuration against the manufactured problem, measures the final-time
errors of both fields (including supercloseness to the nodal interpolant and
the post-processed superconvergent error), and renders CSV text with one row
per run in a fixed column schema:

    scheme,elem,M,h,tau,N,err_u_l2,err_u_h1,superclose_u_h1,superconv_u_h1,
    err_phi_l2,err_phi_h1,superclose_phi_h1,superconv_phi_h1,combined_l2

After the data rows, experimental convergence orders are appended for every
consecutive pair of runs of the same scheme and element kind (scheme column
``eoc:<scheme>``; the error columns then hold orders).  Orders are measured
against the mesh size whenever it changes between the two runs — also in
sweeps that tie the time step to the mesh — and against the time step
otherwise.  That rule lives in `_groups`, the one walk over neighbouring runs
that both the CSV and `render_order_table` read.  Runs that fail are
reported as ``#``-prefixed comment lines at the end, one line each, and do
not abort the remaining runs.

Floats are written in their shortest round-trip representation, so rerunning
a plan reproduces the text byte for byte.  Nothing here writes a file: the
command line (`thermistor_fem.cli`) writes the text where ``--out`` says.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from . import analysis
from .fem import FeSpace
from .manufactured import make_problem
from .mesh import build_mesh, macroelements
from .schemes import (
    RUN_FAILURES,
    ProblemData,
    SchemeConfig,
    TimeState,
    _check_space,
    run_simulation,
    validate_config,
)

__all__ = [
    "ErrorReport",
    "ExperimentPlan",
    "PlanResult",
    "RunFailure",
    "CSV_COLUMNS",
    "compute_error_report",
    "run_plan",
    "reports_to_csv",
    "render_order_table",
    "PRESETS",
    "preset_plan",
]


@dataclass(frozen=True)
class ErrorReport:
    """Final-time error measures of one run.

    ``err_*`` compare against the exact fields; ``superclose_*`` compare the
    FE solution with the nodal interpolant of the exact field (in H1 and in
    L2); ``superconv_*`` compare the macroelement post-processed solution
    with the exact field (in H1).  ``combined_l2`` is the root sum of squares
    of the two L2 errors.

    The two ``superclose_*_l2`` fields are carried on the report but are not
    part of the CSV schema, whose column set is fixed.
    """

    scheme: str
    elem: str
    M: int
    h: float
    tau: float
    N: int
    err_u_l2: float
    err_u_h1: float
    superclose_u_h1: float
    superconv_u_h1: float
    err_phi_l2: float
    err_phi_h1: float
    superclose_phi_h1: float
    superconv_phi_h1: float
    combined_l2: float
    superclose_u_l2: float
    superclose_phi_l2: float


#: The CSV schema: the report's fields in order, less the two table-only ones.
CSV_COLUMNS = [f.name for f in fields(ErrorReport) if f.name not in ("superclose_u_l2", "superclose_phi_l2")]
#: The fields that hold errors, and orders in an order row: the 7th field on.
_ERROR_FIELDS = [f.name for f in fields(ErrorReport)][6:]


def _field_errors(space: FeSpace, blocks, coeffs, exact, grad, t: float, name: str) -> dict:
    """The error measures of one field, keyed by their `ErrorReport` names.

    The exact values and gradients, which three errors read, are evaluated
    once on the error rule.  The solution, its distance to the nodal
    interpolant and its post-processed lift are evaluated block by block
    inside each norm that reads them, and every norm fills its integrand
    over two element ranges, at once on a large space (`fem._fill`).
    """
    exact_values, exact_grads = analysis.exact_fields(space, exact, grad, t)
    fe = analysis.FeEvaluation(space, coeffs)
    errors = {f"err_{name}_l2": analysis.l2_error(fe, exact_values)}
    errors[f"err_{name}_h1"] = analysis.h1_error(fe, exact_values, exact_grads)
    fe = analysis.FeEvaluation(space, coeffs - analysis.interpolate_nodal(space, exact, t))
    errors[f"superclose_{name}_h1"] = analysis.fe_h1_norm(fe)
    errors[f"superclose_{name}_l2"] = analysis.fe_l2_norm(fe)
    post = analysis.i2h_postprocess(space, blocks, coeffs)
    errors[f"superconv_{name}_h1"] = analysis.h1_error_postprocessed(post, exact_values, exact_grads)
    return errors


def compute_error_report(space: FeSpace, state: TimeState, problem: ProblemData, config: SchemeConfig) -> ErrorReport:
    """Measure all error norms of a finished run at its final time; the
    report's ``tau`` and ``N`` are those `validate_config` gives ``config``.

    Raises ValueError, before evaluating anything, unless the space's mesh
    is the configuration's, as `run_simulation` does.  Raises ValueError
    naming every error field that is not finite (NaN or infinite), so that
    a bad problem fails its run instead of writing ``nan`` into the CSV."""
    tau, N = validate_config(config)
    _check_space(space, config)
    t = state.t
    blocks = macroelements(space.mesh)
    u = _field_errors(space, blocks, state.u_n, problem.exact_u, problem.grad_u, t, "u")
    phi = _field_errors(space, blocks, state.phi_n, problem.exact_phi, problem.grad_phi, t, "phi")
    report = ErrorReport(
        scheme=config.scheme,
        elem=config.elem_kind,
        M=config.M,
        h=space.mesh.h,
        tau=tau,
        N=N,
        combined_l2=float(np.sqrt(u["err_u_l2"] ** 2 + phi["err_phi_l2"] ** 2)),
        **u,
        **phi,
    )
    bad = [name for name in _ERROR_FIELDS if not math.isfinite(getattr(report, name))]
    if bad:
        raise ValueError(f"final-time errors that are not finite: {', '.join(bad)}")
    return report


@dataclass(frozen=True)
class ExperimentPlan:
    """A named list of runs executed in order."""

    study: str
    runs: tuple


class RunFailure(NamedTuple):
    """A run of a plan that raised: its configuration and the exception."""

    config: SchemeConfig
    error: Exception

    @property
    def message(self) -> str:
        """``"<exception type>: <text>"``."""
        return f"{type(self.error).__name__}: {self.error}"

    def __str__(self) -> str:
        """The run and its `message` on one line, as the CSV comment and the
        CLI show it: line breaks in the message become spaces."""
        c = self.config
        text = " ".join(self.message.splitlines())
        return f"run failed: scheme={c.scheme} elem={c.elem_kind} M={c.M} tau_rule={c.tau_rule}: {text}"


@dataclass
class PlanResult:
    reports: list
    failures: list  # of RunFailure
    csv_text: str


def run_one(config: SchemeConfig, problem: Optional[ProblemData] = None) -> ErrorReport:
    """Run a single configuration and measure its errors."""
    validate_config(config)
    problem = problem or make_problem()
    space = FeSpace(build_mesh(config.M, config.elem_kind), config.assembly_points, config.error_points)
    state, _ = run_simulation(config, problem, space)
    return compute_error_report(space, state, problem, config)


def run_plan(plan: ExperimentPlan, problem: Optional[ProblemData] = None) -> PlanResult:
    """Run every configuration of the plan and render the CSV text; no file
    is written.

    Failed runs are recorded with their diagnostic and do not stop the plan.
    """
    problem = problem or make_problem()
    reports = []
    failures = []
    for config in plan.runs:
        try:
            reports.append(run_one(config, problem))
        except (*RUN_FAILURES, ValueError) as exc:
            failures.append(RunFailure(config, exc))
    return PlanResult(reports=reports, failures=failures, csv_text=reports_to_csv(reports, failures))


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _groups(reports):
    """``(runs, orders)`` for each stretch of consecutive reports of one
    scheme and element kind: orders are taken only within a stretch.

    ``orders[i]`` maps every error field to its experimental order between
    ``runs[i]`` and ``runs[i + 1]``, or is None unless the pair refines.  The
    ratio is taken against ``h`` whenever the mesh changes (even if the time
    step is tied to it), else against ``tau``; only a ratio above 1 refines.
    """
    groups = []
    for _, runs in itertools.groupby(reports, key=lambda r: (r.scheme, r.elem)):
        runs, orders = list(runs), []
        for a, b in zip(runs[:-1], runs[1:]):
            if a.M != b.M:
                ratio = a.h / b.h
            elif not np.isclose(a.tau, b.tau, rtol=1e-12, atol=0):
                ratio = a.tau / b.tau
            else:
                ratio = 1.0  # neither refines
            orders.append(
                {name: analysis.convergence_order(getattr(a, name), getattr(b, name), ratio) for name in _ERROR_FIELDS}
                if ratio > 1
                else None
            )
        groups.append((runs, orders))
    return groups


def reports_to_csv(reports, failures=()) -> str:
    """Serialize reports (plus appended order rows and a comment line per
    `RunFailure`) to CSV text.  An order row is the finer run's report with
    ``eoc:`` before its scheme and orders in place of its errors."""
    order_rows = [
        replace(b, scheme=f"eoc:{b.scheme}", **order)
        for runs, orders in _groups(reports)
        for b, order in zip(runs[1:], orders)
        if order is not None
    ]
    lines = [",".join(CSV_COLUMNS)]
    for r in [*reports, *order_rows]:
        lines.append(",".join(_fmt(getattr(r, name)) for name in CSV_COLUMNS))
    lines.extend(f"# {failure}" for failure in failures)
    return "\n".join(lines) + "\n"


_TABLE_ROWS = [
    ("u: L2 error", "err_u_l2"),
    ("u: H1 error", "err_u_h1"),
    ("u: superclose L2", "superclose_u_l2"),
    ("u: superclose H1", "superclose_u_h1"),
    ("u: postprocessed H1", "superconv_u_h1"),
    ("phi: L2 error", "err_phi_l2"),
    ("phi: H1 error", "err_phi_h1"),
    ("phi: superclose L2", "superclose_phi_l2"),
    ("phi: superclose H1", "superclose_phi_h1"),
    ("phi: postprocessed H1", "superconv_phi_h1"),
    ("combined L2", "combined_l2"),
]


def render_order_table(reports) -> str:
    """Human-readable error/order table (4 significant digits).

    Consecutive reports of one scheme and element kind form a group, as
    they do for the CSV's order rows; within a group each error quantity
    gets a row of values and, when the group has several runs, a row of the
    experimental orders `_groups` takes between neighbouring runs (``--``
    where a pair does not refine or an order is undefined).
    """
    if not reports:
        return "(no runs)\n"
    out = []
    label_w = max(len(lbl) for lbl, _ in _TABLE_ROWS) + 2
    for rs, orders in _groups(reports):
        headers = [f"M={r.M},tau={r.tau:.4g}" for r in rs]
        col_w = max(11, max(len(head) for head in headers) + 2)
        out.append(f"scheme={rs[0].scheme} elem={rs[0].elem}")
        out.append(" " * label_w + "".join(head.rjust(col_w) for head in headers))
        for label, name in _TABLE_ROWS:
            out.append(label.ljust(label_w) + "".join(f"{getattr(r, name):.3e}".rjust(col_w) for r in rs))
            if len(rs) > 1:
                cells = ["--"] + [
                    "--" if order is None or math.isnan(order[name]) else f"{order[name]:.2f}" for order in orders
                ]
                out.append("  order".ljust(label_w) + "".join(cell.rjust(col_w) for cell in cells))
        out.append("")
    return "\n".join(out)


# ----------------------------------------------------------------------------
# Presets: the standard studies
# ----------------------------------------------------------------------------
#
# All presets run the triangle mesh.  The spatial sweeps for the second-order
# scheme pair the mesh with a time step of half the mesh size, small enough
# that the O(tau^2) part stays below the spatial terms on every sweep level;
# the comparison-scheme tables deliberately use the much coarser tau = sqrt(h)
# to expose how those schemes degrade.  The fixed-tau and temporal presets
# refine one knob while the other saturates.  ``fig-phi`` runs the same four
# runs as ``fig-u`` (the CSV does not name the study, so the two files are
# byte-identical); both names are kept.  Each row is ``(study, scheme,
# [(M, tau_rule), ...])``; the plans are frozen, so every lookup shares one.

_SPATIAL_MS = (8, 16, 32, 64)
_TIED_STEP = [(M, f"fixed:{math.sqrt(2.0) / (2.0 * M)}") for M in _SPATIAL_MS]
_SQRT_H = [(M, "sqrt-h") for M in _SPATIAL_MS]

PRESETS = {
    study: ExperimentPlan(study, tuple(SchemeConfig(scheme, M, "tri", tau_rule=rule) for M, rule in runs))
    for study, scheme, runs in [
        ("fig-u", "bdf2", _TIED_STEP),
        ("fig-phi", "bdf2", _TIED_STEP),
        ("fig-fixed-tau", "bdf2", [(M, f"fixed:{0.1 / 2**k}") for k in range(4) for M in (*_SPATIAL_MS, 128, 256)]),
        ("fig-temporal", "bdf2", [(M, f"fixed:{0.1 / 2**k}") for M in (64, 256) for k in range(4)]),
        ("fig-bdf3", "bdf3", [(256, f"fixed:{0.1 / 2**k}") for k in range(3)]),
        ("table-gao", "gao", _SQRT_H),
        ("table-ext1", "ext1", _SQRT_H),
    ]
}


def preset_plan(name: str) -> ExperimentPlan:
    """Look up a named preset plan."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]
