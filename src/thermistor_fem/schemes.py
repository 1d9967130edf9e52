"""Decoupled IMEX time integrators for the thermistor system.

The continuous problem couples a heat equation for the temperature ``u`` with
a quasi-static potential equation for ``phi`` through the temperature
dependent conductivity ``sigma(u)`` and the Joule heating source
``sigma(u) |grad phi|^2``:

    u_t - Laplace(u) = sigma(u) |grad phi|^2 + f1,
    -div(sigma(u) grad phi) = f2,

with homogeneous Dirichlet data for ``u`` and prescribed boundary values
``g`` for ``phi``.  All schemes here decouple the system by extrapolating the
conductivity from known time levels, so each step costs two linear solves:
one potential solve and one temperature solve.

Every potential-first scheme is one `imex_step` driven by a row of
`TABLES`: the weights of the conductivity extrapolation and the weights of
the backward difference.  The workhorse row ``bdf2`` is the two-step
backward differentiation formula with ``sigma* = 2 sigma(U^{n-1}) -
sigma(U^{n-2})``; ``euler`` and ``bdf3`` are its first- and third-order
relatives, and ``ext1`` pairs the two-step difference with first-order
extrapolation (``sigma* = sigma(U^{n-1})``).  `gao_step` advances the
temperature first, using Joule data extrapolated from previous potentials.
``ext1`` and ``gao`` lose accuracy and are kept for comparison studies.
`run_simulation` builds the history levels a row needs: two-level rows
start with one implicit Euler step, and ``bdf3`` starts from the nodal
interpolants of the exact solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .analysis import interpolate_nodal, nodal_values
from .fem import (
    DirichletSystem,
    FeSpace,
    assemble_joule_load,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_stiffness,
    quadrature_rules,
)
from .mesh import build_mesh, mesh_size

__all__ = [
    "ProblemData",
    "SchemeConfig",
    "TimeState",
    "StepRecord",
    "OperatorCache",
    "ImexTable",
    "TABLES",
    "resolve_tau",
    "validate_config",
    "potential_solve",
    "temperature_solve",
    "imex_step",
    "gao_step",
    "run_simulation",
]

SCHEMES = ("euler", "bdf2", "bdf3", "gao", "ext1")
#: Most time steps a run may take; the largest preset takes 91.
MAX_STEPS = 100_000


@dataclass(frozen=True)
class ProblemData:
    """Data defining one thermistor problem instance.

    ``exact_u`` and ``exact_phi`` are space-time fields ``f(x, y, t)`` used
    for the initial condition, the start levels of ``bdf3``, the potential's
    Dirichlet data, and error norms.  ``grad_u``/``grad_phi`` return pairs
    of partials for the H1 errors that every run reports.
    """

    sigma: Callable
    exact_u: Callable
    exact_phi: Callable
    f1: Callable
    f2: Callable
    grad_u: Callable
    grad_phi: Callable


@dataclass(frozen=True)
class TimeState:
    """Solution history after completing time level ``n`` (``t = n * tau``).

    ``u_n`` is the newest temperature; ``u_nm1``/``u_nm2`` are the one- and
    two-level-old values (``None`` until the history fills up).  Of the
    potential only ``phi_n`` and ``phi_nm1`` are kept: no step reads older.
    The exact start levels of ``bdf3`` carry no potential (``None``).
    """

    n: int
    t: float
    u_n: np.ndarray
    u_nm1: Optional[np.ndarray] = None
    u_nm2: Optional[np.ndarray] = None
    phi_n: Optional[np.ndarray] = None
    phi_nm1: Optional[np.ndarray] = None

    def advanced(self, u_new: np.ndarray, phi_new: np.ndarray, tau: float) -> "TimeState":
        """Shift the history by one level."""
        return TimeState(
            n=self.n + 1,
            t=(self.n + 1) * tau,
            u_n=u_new,
            u_nm1=self.u_n,
            u_nm2=self.u_nm1,
            phi_n=phi_new,
            phi_nm1=self.phi_n,
        )

    def temperatures(self, k: int) -> tuple:
        """The ``k`` newest temperature levels, newest first."""
        levels = (self.u_n, self.u_nm1, self.u_nm2)[:k]
        if any(u is None for u in levels):
            raise ValueError(f"the step needs {k} history levels; run the start-up first")
        return levels


@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics collected by `run_simulation`."""

    n: int
    t: float
    sigma_star_min: float
    res_phi: float
    res_u: float


@dataclass(frozen=True)
class SchemeConfig:
    """Configuration of one simulation run.

    ``tau_rule`` is one of ``"sqrt-h"`` (time step targeting the square root
    of the mesh size), ``"equal-h"`` (targeting the mesh size), or
    ``"fixed:<value>"``.  The realized step divides ``T`` evenly:
    ``N = ceil(T / target)``, ``tau = T / N``.

    ``solver`` is ``"direct"`` (sparse LU) or ``"cg"`` (scipy's conjugate
    gradients with the Jacobi preconditioner, to a relative residual of 1e-12).
    ``assembly_points`` and ``error_points`` choose the quadrature rules of
    `FeSpace`, as `quadrature_rules` reads them (None picks the defaults).
    """

    scheme: str
    M: int
    elem_kind: str = "quad"
    T: float = 1.0
    tau_rule: str = "sqrt-h"
    solver: str = "direct"
    assembly_points: Optional[int] = None
    error_points: Optional[int] = None


def validate_config(config: SchemeConfig) -> None:
    """Raise ValueError for configurations that cannot be run."""
    if config.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {config.scheme!r}; choose from {SCHEMES}")
    if config.elem_kind not in ("quad", "tri"):
        raise ValueError(f"elem_kind must be 'quad' or 'tri', got {config.elem_kind!r}")
    if not isinstance(config.M, (int, np.integer)) or config.M < 2 or config.M % 2:
        raise ValueError(f"M must be an even integer >= 2, got {config.M!r}")
    if not (isinstance(config.T, (int, float, np.integer, np.floating)) and 0 < config.T < math.inf):
        raise ValueError(f"T must be a positive finite number, got {config.T!r}")
    if config.solver not in ("direct", "cg"):
        raise ValueError(f"solver must be 'direct' or 'cg', got {config.solver!r}")
    quadrature_rules(config.elem_kind, config.assembly_points, config.error_points)
    _, N = resolve_tau(config, mesh_size(config.M))
    levels = _scheme_table(config.scheme).levels
    if N < levels:
        raise ValueError(
            f"scheme {config.scheme!r} needs at least {levels} time steps; "
            f"tau rule {config.tau_rule!r} gives N={N}"
        )


def _tau_target(rule, h: float) -> float:
    """The time step a tau rule aims at on a mesh of size ``h``."""
    if isinstance(rule, str) and rule.startswith("fixed:"):
        try:
            target = float(rule[len("fixed:"):])
        except ValueError:
            raise ValueError(f"bad fixed step in tau rule {rule!r}") from None
        if not target > 0:
            raise ValueError(f"fixed time step must be positive, got {target}")
        return target
    if isinstance(rule, str) and rule in ("sqrt-h", "equal-h"):
        return math.sqrt(h) if rule == "sqrt-h" else h
    raise ValueError(f"unknown tau rule {rule!r}; use 'sqrt-h', 'equal-h' or 'fixed:<v>'")


def resolve_tau(config: SchemeConfig, h: float) -> tuple[float, int]:
    """Realize the time step: ``N = ceil(T / target)``, ``tau = T / N``.

    Raises ValueError for an unknown tau rule, or if ``N`` would exceed
    `MAX_STEPS`.
    """
    target = _tau_target(config.tau_rule, h)
    # Relative round-off guard: T / (T / N) may come out a few ulps above N.
    steps = config.T / target * (1 - 1e-12)
    if not steps <= MAX_STEPS:
        raise ValueError(
            f"T={config.T!r} with tau rule {config.tau_rule!r} needs more than "
            f"MAX_STEPS={MAX_STEPS} time steps"
        )
    N = max(1, math.ceil(steps))
    return config.T / N, N


class OperatorCache:
    """Assembled operators and factorizations reused across time steps.

    The temperature system matrix ``alpha * Mass + Stiffness`` is constant in
    time for every scheme here, so its Dirichlet reduction (and, with the
    direct solver, its factorization) is built once per ``alpha``.  Only the
    newest is kept: ``alpha`` only moves forward (Euler, BDF2, BDF3).  The
    potential matrix changes every step; `potential_solve` assembles it.
    """

    def __init__(self, space: FeSpace, solver: str = "direct"):
        self.space = space
        self.solver = solver
        self.mass = assemble_mass(space)
        self.stiffness = assemble_stiffness(space)
        self._heat: tuple[float, DirichletSystem] | None = None

    def heat_system(self, alpha: float) -> DirichletSystem:
        """The reduced ``alpha * Mass + Stiffness``, summed entry by entry on
        the space's sparsity pattern."""
        key = float(alpha)
        if self._heat is None or self._heat[0] != key:
            self._heat = None  # free the old factorization before the new one
            A = self.space.pattern.matrix(key * self.mass.data + self.stiffness.data)
            self._heat = (key, DirichletSystem(self.space, A, self.solver))
        return self._heat[1]


def _sigma_at_quad(space: FeSpace, problem: ProblemData, u_coeffs: np.ndarray) -> np.ndarray:
    return problem.sigma(space.values_at_quad(u_coeffs))


def potential_solve(space, problem, ops, sigma_star, t, record=None) -> np.ndarray:
    """Solve the discrete potential equation at time ``t``.

    ``(sigma* grad Phi_h, grad xi) = (f2(t), xi)`` for all interior test
    functions, with ``Phi_h`` equal to the nodal interpolant of the exact
    potential on the boundary; ``sigma_star`` holds conductivity values at
    the assembly quadrature points.
    """
    A = assemble_weighted_stiffness(space, sigma_star)
    system = DirichletSystem(space, A, ops.solver)
    b = assemble_load(space, lambda x, y: problem.f2(x, y, t))
    g = nodal_values(problem.exact_phi, space.mesh.nodes[space.boundary_dofs], t)
    phi = system.solve(b, g)
    if record is not None:
        record["res_phi"] = system.residual(phi, b)
    return phi


def temperature_solve(space, problem, ops, alpha, mass_history, joule, t, record=None) -> np.ndarray:
    """Solve ``(alpha Mass + Stiffness) U = Mass history + joule + (f1(t), xi)``.

    This is the temperature update of every scheme here: ``alpha`` and
    ``mass_history`` come from the backward difference, ``joule`` is the
    assembled Joule load.  The temperature vanishes on the boundary.
    """
    b1 = assemble_load(space, lambda x, y: problem.f1(x, y, t))
    rhs = ops.mass @ mass_history + joule + b1
    system = ops.heat_system(alpha)
    u = system.solve(rhs, np.zeros(space.boundary_dofs.size))
    if record is not None:
        record["res_u"] = system.residual(u, rhs)
    return u


# ----------------------------------------------------------------------------
# Steps.  Each maps the state at level n to the state at level n+1; sources
# and boundary data are evaluated at the new time.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ImexTable:
    """Coefficients of one decoupled IMEX step.

    The extrapolated conductivity is ``sigma* = sum_k extrap[k]
    sigma(U^{n-1-k})`` and the backward difference is ``D_tau U^n = alpha
    U^n - sum_k history[k] U^{n-1-k} / (d tau)`` with ``alpha = a / (d
    tau)``; the integer numerators share the denominator ``d``.
    """

    extrap: tuple
    a: int
    history: tuple
    d: int

    @property
    def levels(self) -> int:
        """Known temperature levels the step reads."""
        return len(self.history)

    def difference(self, levels, tau: float) -> tuple[float, np.ndarray]:
        """``alpha`` and ``sum_k history[k] levels[k] / (d tau)``, newest level first."""
        history = sum(c * u for c, u in zip(self.history, levels))
        return self.a / (self.d * tau), history / (self.d * tau)


#: Implicit Euler; BDF2 and BDF3 with extrapolation of matching order (the
#: paper's scheme is ``bdf2``); BDF2 with first-order extrapolation, which
#: spoils the convergence rate and is kept for comparison studies.
TABLES = {
    "euler": ImexTable(extrap=(1,), a=1, history=(1,), d=1),
    "bdf2": ImexTable(extrap=(2, -1), a=3, history=(4, -1), d=2),
    "bdf3": ImexTable(extrap=(3, -3, 1), a=11, history=(18, -9, 2), d=6),
    "ext1": ImexTable(extrap=(1,), a=3, history=(4, -1), d=2),
}


def _scheme_table(scheme: str) -> ImexTable:
    """The `TABLES` row a scheme steps with: ``gao`` reads the ``bdf2`` row."""
    return TABLES["bdf2" if scheme == "gao" else scheme]


def imex_step(
    table: ImexTable,
    state: TimeState,
    space: FeSpace,
    problem: ProblemData,
    tau: float,
    ops: OperatorCache,
    record: Optional[dict] = None,
) -> TimeState:
    """One potential-first step with the coefficients of ``table``.

    The potential is solved first with the extrapolated conductivity
    evaluated at quadrature points, then the temperature is advanced with the
    fresh potential in the Joule term.
    """
    us = state.temperatures(table.levels)
    t_new = (state.n + 1) * tau
    sigma_star = sum(w * _sigma_at_quad(space, problem, u) for w, u in zip(table.extrap, us))
    if record is not None:
        record["sigma_star_min"] = float(sigma_star.min())
    phi_new = potential_solve(space, problem, ops, sigma_star, t_new, record)
    joule = assemble_joule_load(space, sigma_star, phi_new)
    alpha, history = table.difference(us, tau)
    u_new = temperature_solve(space, problem, ops, alpha, history, joule, t_new, record)
    return state.advanced(u_new, phi_new, tau)


def gao_step(
    state: TimeState,
    space: FeSpace,
    problem: ProblemData,
    tau: float,
    ops: OperatorCache,
    record: Optional[dict] = None,
) -> TimeState:
    """Temperature-first BDF2 step with extrapolated Joule data.

    The temperature update uses ``2 sigma(U^n) |grad Phi^n|^2 -
    sigma(U^{n-1}) |grad Phi^{n-1}|^2`` from past potentials, then the
    potential equation is solved with the new conductivity ``sigma(U^{n+1})``.
    """
    table = _scheme_table("gao")
    us = state.temperatures(table.levels)
    if state.phi_nm1 is None:
        raise ValueError("gao_step needs two history levels of both fields")
    t_new = (state.n + 1) * tau
    joule = sum(
        w * assemble_joule_load(space, _sigma_at_quad(space, problem, u), phi)
        for w, u, phi in zip(table.extrap, us, (state.phi_n, state.phi_nm1))
    )
    alpha, history = table.difference(us, tau)
    u_new = temperature_solve(space, problem, ops, alpha, history, joule, t_new, record)
    sigma_new = _sigma_at_quad(space, problem, u_new)
    if record is not None:
        record["sigma_star_min"] = float(sigma_new.min())
    phi_new = potential_solve(space, problem, ops, sigma_new, t_new, record)
    return state.advanced(u_new, phi_new, tau)


def run_simulation(
    config: SchemeConfig,
    problem: ProblemData,
    space: Optional[FeSpace] = None,
) -> tuple[TimeState, list[StepRecord]]:
    """Run one scheme from ``t = 0`` to ``t = T``.

    Builds the mesh and space (unless one is passed in: its mesh must be the
    configuration's, else ValueError), realizes the time step from the tau
    rule, performs the scheme's starting procedure, then steps to the final
    time.  Returns the final `TimeState` (whose newest levels are the fields
    at ``T``) and the per-step diagnostics trace.  The ``bdf3`` start levels
    are temperature interpolants only; no potential is solved for them.
    """
    validate_config(config)
    if space is None:
        mesh = build_mesh(config.M, config.elem_kind)
        space = FeSpace(mesh, config.assembly_points, config.error_points)
    elif (space.mesh.M, space.mesh.elem_kind) != (config.M, config.elem_kind):
        raise ValueError(f"the space is on an M={space.mesh.M} {space.mesh.elem_kind} mesh, not the configuration's")
    tau, N = resolve_tau(config, space.mesh.h)
    table = _scheme_table(config.scheme)

    ops = OperatorCache(space, config.solver)
    u0 = interpolate_nodal(space, problem.exact_u, 0.0)
    state = TimeState(n=0, t=0.0, u_n=u0)
    trace: list[StepRecord] = []

    def advance(step, state):
        record = dict.fromkeys(("sigma_star_min", "res_phi", "res_u"), np.nan)
        state = step(state, space, problem, tau, ops, record)
        trace.append(StepRecord(n=state.n, t=state.t, **record))
        return state

    if config.scheme == "gao":
        # The first temperature-first step consumes two potential levels, so
        # the start-up also solves for the initial potential.
        sigma0 = _sigma_at_quad(space, problem, u0)
        state = replace(state, phi_n=potential_solve(space, problem, ops, sigma0, 0.0))

    # Start-up: build the history levels the scheme reads.  BDF3 takes its
    # first two temperature levels from the exact solution, with no potential:
    # its steps read temperatures only.  A two-level row takes one implicit
    # Euler step.
    while state.n < table.levels - 1:
        if config.scheme == "bdf3":
            state = state.advanced(interpolate_nodal(space, problem.exact_u, (state.n + 1) * tau), None, tau)
        else:
            state = advance(partial(imex_step, TABLES["euler"]), state)

    step = gao_step if config.scheme == "gao" else partial(imex_step, table)
    while state.n < N:
        state = advance(step, state)

    return state, trace
