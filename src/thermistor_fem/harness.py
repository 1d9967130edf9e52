"""Convergence-study harness: error reports, CSV output, preset sweeps.

A *plan* is a named list of scheme configurations.  Running a plan runs every
configuration against the manufactured problem, measures the final-time
errors of both fields (including supercloseness to the nodal interpolant and
the post-processed superconvergent error), and writes one CSV row per run
with a fixed column schema:

    scheme,elem,M,h,tau,N,err_u_l2,err_u_h1,superclose_u_h1,superconv_u_h1,
    err_phi_l2,err_phi_h1,superclose_phi_h1,superconv_phi_h1,combined_l2

After the data rows, experimental convergence orders are appended for every
consecutive pair of runs of the same scheme and element kind (scheme column
``eoc:<scheme>``; the error columns then hold orders).  Orders are measured
against the mesh size whenever it changes between the two runs — also in
sweeps that tie the time step to the mesh — and against the time step
otherwise.  Runs that fail are reported as ``#``-prefixed comment lines at
the end and do not abort the remaining runs.

Floats are written in their shortest round-trip representation, so rerunning
a plan reproduces the file byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import analysis
from .fem import ConductivityNotPositive, FeSpace, NoConvergence
from .manufactured import make_problem
from .mesh import build_mesh, macroelements
from .schemes import ProblemData, SchemeConfig, TimeState, resolve_tau, run_simulation, validate_config

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

CSV_COLUMNS = [
    "scheme",
    "elem",
    "M",
    "h",
    "tau",
    "N",
    "err_u_l2",
    "err_u_h1",
    "superclose_u_h1",
    "superconv_u_h1",
    "err_phi_l2",
    "err_phi_h1",
    "superclose_phi_h1",
    "superconv_phi_h1",
    "combined_l2",
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


def _field_errors(space: FeSpace, blocks, coeffs, exact, grad, t: float, name: str) -> dict:
    """The error measures of one field, keyed by their `ErrorReport` names.

    Each quantity on the error rule is evaluated once: the exact values and
    gradients, which every error reads, and the values and gradients of the
    solution, of its distance to the nodal interpolant and of its
    post-processed lift, each released once its norms are taken.
    """
    tb = space.error_tables
    x, y = tb.x[..., 0], tb.x[..., 1]
    exact_values, exact_grads = exact(x, y, t), grad(x, y, t)
    fe = analysis.FeEvaluation(space, coeffs)
    errors = {f"err_{name}_l2": analysis.l2_error(fe, exact_values)}
    errors[f"err_{name}_h1"] = analysis.h1_error(fe, exact_values, exact_grads)
    fe = analysis.FeEvaluation(space, coeffs - analysis.interpolate_nodal(space, exact, t))
    errors[f"superclose_{name}_h1"] = analysis.fe_h1_norm(fe)
    errors[f"superclose_{name}_l2"] = analysis.fe_l2_norm(fe)
    del fe
    post = analysis.i2h_postprocess(space, blocks, coeffs)
    errors[f"superconv_{name}_h1"] = analysis.h1_error_postprocessed(post, space, exact_values, exact_grads)
    return errors


def compute_error_report(
    space: FeSpace,
    state: TimeState,
    problem: ProblemData,
    config: SchemeConfig,
    tau: float,
    N: int,
) -> ErrorReport:
    """Measure all error norms of a finished run at its final time."""
    t = state.t
    blocks = macroelements(space.mesh)
    u = _field_errors(space, blocks, state.u_n, problem.exact_u, problem.grad_u, t, "u")
    phi = _field_errors(space, blocks, state.phi_n, problem.exact_phi, problem.grad_phi, t, "phi")
    return ErrorReport(
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
        """``"<exception type>: <text>"``, as the CSV comment line shows it."""
        return f"{type(self.error).__name__}: {self.error}"


@dataclass
class PlanResult:
    reports: list
    failures: list  # of RunFailure
    csv_text: str


def run_one(config: SchemeConfig, problem: Optional[ProblemData] = None) -> ErrorReport:
    """Run a single configuration and measure its errors."""
    validate_config(config)
    problem = problem or make_problem()
    mesh = build_mesh(config.M, config.elem_kind)
    space = FeSpace(mesh, config.assembly_points, config.error_points)
    tau, N = resolve_tau(config, mesh.h)
    state, _ = run_simulation(config, problem, space)
    return compute_error_report(space, state, problem, config, tau, N)


def run_plan(plan: ExperimentPlan, out_path=None, problem: Optional[ProblemData] = None) -> PlanResult:
    """Run every configuration of the plan; write the CSV if a path is given.

    Failed runs are recorded with their diagnostic and do not stop the plan.
    """
    problem = problem or make_problem()
    reports = []
    failures = []
    for config in plan.runs:
        try:
            reports.append(run_one(config, problem))
        except (ConductivityNotPositive, NoConvergence, ValueError) as exc:
            failures.append(RunFailure(config, exc))
    csv_text = reports_to_csv(reports, failures)
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(csv_text)
    return PlanResult(reports=reports, failures=failures, csv_text=csv_text)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


_ERROR_FIELDS = CSV_COLUMNS[6:]


def _refinement_ratio(a, b):
    """Refinement ratio between consecutive runs: against ``h`` whenever the
    mesh changes (even if the time step is tied to it), else against ``tau``.
    Returns ``None`` unless the pair refines (ratio above 1)."""
    if a.M != b.M:
        ratio = a.h / b.h
    elif not np.isclose(a.tau, b.tau, rtol=1e-12, atol=0):
        ratio = a.tau / b.tau
    else:
        return None
    return ratio if ratio > 1 else None


def _eoc_rows(reports):
    """Order rows for consecutive runs of the same scheme and element kind."""
    rows = []
    for a, b in zip(reports[:-1], reports[1:]):
        if (a.scheme, a.elem) != (b.scheme, b.elem):
            continue
        ratio = _refinement_ratio(a, b)
        if ratio is None:
            continue
        row = {
            "scheme": f"eoc:{b.scheme}",
            "elem": b.elem,
            "M": b.M,
            "h": b.h,
            "tau": b.tau,
            "N": b.N,
        }
        for name in _ERROR_FIELDS:
            row[name] = analysis.convergence_order(getattr(a, name), getattr(b, name), ratio)
        rows.append(row)
    return rows


def reports_to_csv(reports, failures=()) -> str:
    """Serialize reports (plus appended order rows and a comment line per
    `RunFailure`) to CSV text."""
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        lines.append(",".join(_fmt(getattr(r, name)) for name in CSV_COLUMNS))
    for row in _eoc_rows(reports):
        lines.append(",".join(_fmt(row[name]) for name in CSV_COLUMNS))
    for failure in failures:
        config = failure.config
        lines.append(f"# run failed: scheme={config.scheme} elem={config.elem_kind} M={config.M} tau_rule={config.tau_rule}: {failure.message}")
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

    Reports are grouped by scheme and element kind; within a group each error
    quantity gets a row of values and, when the group has several runs, a row
    of experimental orders computed against whichever of ``h`` or ``tau``
    varies between consecutive runs.
    """
    if not reports:
        return "(no runs)\n"
    groups: dict[tuple, list] = {}
    for r in reports:
        groups.setdefault((r.scheme, r.elem), []).append(r)

    out = []
    label_w = max(len(lbl) for lbl, _ in _TABLE_ROWS) + 2
    for (scheme, elem), rs in groups.items():
        headers = [f"M={r.M},tau={r.tau:.4g}" for r in rs]
        col_w = max(11, max(len(head) for head in headers) + 2)
        out.append(f"scheme={scheme} elem={elem}")
        out.append(" " * label_w + "".join(head.rjust(col_w) for head in headers))
        for label, name in _TABLE_ROWS:
            vals = [getattr(r, name) for r in rs]
            out.append(label.ljust(label_w) + "".join(f"{v:.3e}".rjust(col_w) for v in vals))
            if len(rs) > 1:
                cells = ["--".rjust(col_w)]
                for a, b, ea, eb in zip(rs[:-1], rs[1:], vals[:-1], vals[1:]):
                    ratio = _refinement_ratio(a, b)
                    order = float("nan") if ratio is None else analysis.convergence_order(ea, eb, ratio)
                    cells.append(("--" if math.isnan(order) else f"{order:.2f}").rjust(col_w))
                out.append("  order".ljust(label_w) + "".join(cells))
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
# refine one knob while the other saturates.

_SPATIAL_MS = (8, 16, 32, 64)


def _spatial(scheme: str, study: str) -> ExperimentPlan:
    runs = tuple(
        SchemeConfig(
            scheme=scheme,
            M=M,
            elem_kind="tri",
            tau_rule=f"fixed:{math.sqrt(2.0) / (2.0 * M)}",
        )
        for M in _SPATIAL_MS
    )
    return ExperimentPlan(study=study, runs=runs)


def _comparison_table(scheme: str, study: str) -> ExperimentPlan:
    runs = tuple(
        SchemeConfig(scheme=scheme, M=M, elem_kind="tri", tau_rule="sqrt-h")
        for M in _SPATIAL_MS
    )
    return ExperimentPlan(study=study, runs=runs)


def _fixed_tau() -> ExperimentPlan:
    runs = tuple(
        SchemeConfig(scheme="bdf2", M=M, elem_kind="tri", tau_rule=f"fixed:{tau}")
        for tau in (0.1, 0.05, 0.025, 0.0125)
        for M in (8, 16, 32, 64, 128, 256)
    )
    return ExperimentPlan(study="fig-fixed-tau", runs=runs)


def _temporal(scheme: str, study: str, Ms, n_taus: int) -> ExperimentPlan:
    taus = tuple(0.1 / 2**k for k in range(n_taus))
    runs = tuple(
        SchemeConfig(scheme=scheme, M=M, elem_kind="tri", tau_rule=f"fixed:{tau}")
        for M in Ms
        for tau in taus
    )
    return ExperimentPlan(study=study, runs=runs)


PRESETS = {
    "fig-u": lambda: _spatial("bdf2", "fig-u"),
    "fig-phi": lambda: _spatial("bdf2", "fig-phi"),
    "fig-fixed-tau": _fixed_tau,
    "fig-temporal": lambda: _temporal("bdf2", "fig-temporal", (64, 256), 4),
    "fig-bdf3": lambda: _temporal("bdf3", "fig-bdf3", (256,), 3),
    "table-gao": lambda: _comparison_table("gao", "table-gao"),
    "table-ext1": lambda: _comparison_table("ext1", "table-ext1"),
}


def preset_plan(name: str) -> ExperimentPlan:
    """Look up a named preset plan."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]()
