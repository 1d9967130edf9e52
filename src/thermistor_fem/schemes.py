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
one potential solve and one temperature solve.  A step holds its two
Dirichlet systems, `OperatorCache.potential_system` and
`OperatorCache.heat_system`, and waits once for the loads of its new time,
which a helper thread computes while the first system is assembled and
factorized.

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
from concurrent.futures import Future
from contextlib import AbstractContextManager
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .analysis import interpolate_nodal, nodal_values
from .fem import (
    SOLVERS,
    ConductivityNotPositive,
    DirichletSystem,
    FeSpace,
    NoConvergence,
    _beside,
    assemble_joule_load,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_stiffness,
    quadrature_rules,
)
from .mesh import check_mesh_args, mesh_size

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
    "imex_step",
    "gao_step",
    "run_simulation",
    "RUN_FAILURES",
]

SCHEMES = ("euler", "bdf2", "bdf3", "gao", "ext1")
#: Most time steps a run may take; the largest preset takes 91.
MAX_STEPS = 100_000
#: The exceptions that fail a run as a solver failure (CLI exit 3), not as a
#: configuration error; with `ValueError`, those `run_plan` records and passes.
RUN_FAILURES = (ConductivityNotPositive, NoConvergence, MemoryError)


@dataclass(frozen=True)
class ProblemData:
    """Data defining one thermistor problem instance.

    ``exact_u`` and ``exact_phi`` are space-time fields ``f(x, y, t)`` used
    for the initial condition, the start levels of ``bdf3``, the potential's
    Dirichlet data, and error norms.  ``grad_u``/``grad_phi`` return pairs
    of partials for the H1 errors that every run reports.

    A run's `OperatorCache` holds its problem.  ``f1``, ``f2`` and
    ``exact_phi`` (for the potential's boundary values) are called on a
    helper thread that each step starts and ends (`OperatorCache.loads`),
    while the calling thread assembles and factorizes the step's first
    system; ``sigma`` is called on the calling thread.  The final error
    report calls ``exact_u``, ``exact_phi``, ``grad_u`` and ``grad_phi`` at
    the error rule's points
    (`analysis.exact_fields`), on a large space on two threads at once: the
    calling thread for the first range of elements, a helper for the
    second, which ends with the call.  Initial and start-up levels and the
    report's nodal interpolants call ``exact_u`` and ``exact_phi`` on the
    calling thread.
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
    ``record`` is the `StepRecord` of the step that made the level (``None``
    for the initial datum and for ``bdf3``'s exact start levels).
    """

    n: int
    t: float
    u_n: np.ndarray
    u_nm1: Optional[np.ndarray] = None
    u_nm2: Optional[np.ndarray] = None
    phi_n: Optional[np.ndarray] = None
    phi_nm1: Optional[np.ndarray] = None
    record: Optional[StepRecord] = None

    def advanced(self, u_new: np.ndarray, phi_new: np.ndarray, tau: float, *diagnostics: float) -> "TimeState":
        """Shift the history by one level.  ``diagnostics`` are the step's
        ``sigma_star_min``, ``res_phi`` and ``res_u``; an exact level has none."""
        n, t = self.n + 1, (self.n + 1) * tau
        record = StepRecord(n, t, *diagnostics) if diagnostics else None
        return TimeState(n, t, u_new, self.u_n, self.u_nm1, phi_new, self.phi_n, record)

    def temperatures(self, k: int) -> tuple:
        """The ``k`` newest temperature levels, newest first."""
        levels = (self.u_n, self.u_nm1, self.u_nm2)[:k]
        if any(u is None for u in levels):
            raise ValueError(f"the step needs {k} history levels; run the start-up first")
        return levels


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of the step that made level ``n`` (time ``t``): the minimum
    of the conductivity its potential solve used, and its solves' residuals."""

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

    ``solver`` is ``"direct"`` (sparse LU) or ``"cg"`` (`fem.solve_spd`'s
    Jacobi-preconditioned conjugate gradients, to a relative residual of 1e-12
    in at most ``min(50 n, 200 isqrt(n))`` iterations for ``n`` unknowns).
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


def validate_config(config: SchemeConfig) -> tuple[float, int]:
    """Raise ValueError for a configuration that cannot be run; else return its `resolve_tau` ``(tau, N)``."""
    if config.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {config.scheme!r}; choose from {SCHEMES}")
    check_mesh_args(config.M, config.elem_kind)
    if config.solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {config.solver!r}")
    quadrature_rules(config.elem_kind, config.assembly_points, config.error_points)
    tau, N = resolve_tau(config, mesh_size(config.M))
    levels = _scheme_table(config.scheme).levels
    if N < levels:
        raise ValueError(
            f"scheme {config.scheme!r} needs at least {levels} time steps; "
            f"tau rule {config.tau_rule!r} gives N={N}"
        )
    return tau, N


def _check_space(space: FeSpace, config: SchemeConfig) -> None:
    """Raise ValueError unless ``space`` is on the configuration's mesh."""
    if (space.mesh.M, space.mesh.elem_kind) != (config.M, config.elem_kind):
        raise ValueError(f"the space is on an M={space.mesh.M} {space.mesh.elem_kind} mesh, not the configuration's")


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

    Raises ValueError for a ``T`` that is not a positive finite number, for
    an unknown tau rule, or if ``N`` would exceed `MAX_STEPS`.
    """
    if not (isinstance(config.T, (int, float, np.integer, np.floating)) and 0 < config.T < math.inf):
        raise ValueError(f"T must be a positive finite number, got {config.T!r}")
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
    """One run's context: its space, problem and solver, and the operators
    it reuses across time steps.

    Every step and solve reads the space, the problem and the solver from
    the cache, so one step cannot mix two spaces.  The temperature system
    matrix ``alpha * Mass + Stiffness`` is constant in time for every scheme
    here, so its Dirichlet reduction (and, with the direct solver, its
    factorization) is built once per ``alpha``.  Only the newest is kept:
    ``alpha`` only moves forward (Euler, BDF2, BDF3).  The potential matrix
    changes every step: `potential_system` makes it anew, and the step drops
    it after its one solve.  Every matrix lies on the space's sparsity
    pattern (`FeSpace.pattern`), which the first assembly builds and
    `run_simulation` releases when the run ends.

    A step computes the loads of its new time on a helper thread (`loads`)
    while the calling thread assembles and factorizes its first system, and
    waits for them once, before either solve; the cache owns no thread.
    Every factorization is made and freed on the calling thread: a SuperLU
    factor freed on another thread than its own is never released.
    """

    def __init__(self, space: FeSpace, problem: ProblemData, solver: str = "direct"):
        self.space = space
        self.problem = problem
        self.solver = solver
        self.mass = assemble_mass(space)
        self.stiffness = assemble_stiffness(space)
        self._heat: tuple[float, DirichletSystem] | None = None

    def loads(self, t: float) -> AbstractContextManager[Future]:
        """A context manager that computes the loads at time ``t``
        (`_step_loads`) on a helper thread while its ``with`` block runs, and
        yields their future.  Leaving the block, by returning or by raising,
        waits for the job and ends the thread (`fem._beside`)."""
        return _beside("step-loads", _step_loads, self, t)

    def potential_system(self, sigma_star: np.ndarray) -> DirichletSystem:
        """The reduced ``(sigma* grad phi, grad xi)``, with ``sigma_star`` at
        the assembly quadrature points; made anew at each call."""
        return DirichletSystem(self.space, assemble_weighted_stiffness(self.space, sigma_star), self.solver)

    def heat_system(self, alpha: float) -> DirichletSystem:
        """The reduced ``alpha * Mass + Stiffness``, summed entry by entry on
        the space's sparsity pattern."""
        key = float(alpha)
        if self._heat is None or self._heat[0] != key:
            self._heat = None  # free the old factorization before the new one
            A = self.space.pattern.matrix(key * self.mass.data + self.stiffness.data)
            self._heat = (key, DirichletSystem(self.space, A, self.solver))
        return self._heat[1]


def _sigma_at_quad(ops: OperatorCache, u_coeffs: np.ndarray) -> np.ndarray:
    return ops.problem.sigma(ops.space.values_at_quad(u_coeffs))


def _step_loads(ops: OperatorCache, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a step needs that depends on its new time ``t`` alone: the
    potential's load ``(f2(t), xi)`` and boundary values (the nodal
    interpolant of the exact potential), and the temperature's load
    ``(f1(t), xi)``, in that order."""
    space, problem = ops.space, ops.problem
    b2 = assemble_load(space, lambda x, y: problem.f2(x, y, t))
    g = nodal_values(problem.exact_phi, space.mesh.nodes[space.boundary_dofs], t)
    b1 = assemble_load(space, lambda x, y: problem.f1(x, y, t))
    return b2, g, b1


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
        """``alpha`` and ``sum_k history[k] levels[k] / (d tau)``, newest level
        first.  Raises ValueError unless ``tau`` is positive and finite."""
        if not 0 < tau < math.inf:
            raise ValueError(f"the time step must be positive and finite, got {tau!r}")
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


def imex_step(table: ImexTable, state: TimeState, tau: float, ops: OperatorCache) -> TimeState:
    """One potential-first step with the coefficients of ``table``, on the
    space and problem of ``ops``.

    The potential is solved first, ``(sigma* grad Phi, grad xi) = (f2(t),
    xi)`` with the extrapolated conductivity at quadrature points and the
    exact potential's nodal values on the boundary.  Then the temperature,
    zero on the boundary, is advanced with the fresh potential in the Joule
    load: ``(alpha Mass + Stiffness) U = Mass history + joule + (f1(t),
    xi)``, with ``alpha`` and ``history`` from `ImexTable.difference`.
    """
    us = state.temperatures(table.levels)
    alpha, history = table.difference(us, tau)
    with ops.loads((state.n + 1) * tau) as loads:
        sigma_star = sum(w * _sigma_at_quad(ops, u) for w, u in zip(table.extrap, us))
        potential = ops.potential_system(sigma_star)
        b2, g, b1 = loads.result()
    phi_new, res_phi = potential.solve(b2, g)
    del potential  # its factorization goes before the heat system solves
    joule = assemble_joule_load(ops.space, sigma_star, phi_new)
    u_new, res_u = ops.heat_system(alpha).solve(ops.mass @ history + joule + b1, np.zeros(ops.space.boundary_dofs.size))
    return state.advanced(u_new, phi_new, tau, float(sigma_star.min()), res_phi, res_u)


def gao_step(state: TimeState, tau: float, ops: OperatorCache) -> TimeState:
    """Temperature-first BDF2 step with extrapolated Joule data, on the space
    and problem of ``ops``.

    The temperature update uses ``2 sigma(U^n) |grad Phi^n|^2 -
    sigma(U^{n-1}) |grad Phi^{n-1}|^2`` from past potentials, then the
    potential equation is solved with the new conductivity ``sigma(U^{n+1})``.
    """
    table = _scheme_table("gao")
    us = state.temperatures(table.levels)
    if state.phi_nm1 is None:
        raise ValueError("gao_step needs two history levels of both fields")
    alpha, history = table.difference(us, tau)
    with ops.loads((state.n + 1) * tau) as loads:
        joule = sum(
            w * assemble_joule_load(ops.space, _sigma_at_quad(ops, u), phi)
            for w, u, phi in zip(table.extrap, us, (state.phi_n, state.phi_nm1))
        )
        heat = ops.heat_system(alpha)
        b2, g, b1 = loads.result()
    u_new, res_u = heat.solve(ops.mass @ history + joule + b1, np.zeros(ops.space.boundary_dofs.size))
    sigma_new = _sigma_at_quad(ops, u_new)
    phi_new, res_phi = ops.potential_system(sigma_new).solve(b2, g)
    return state.advanced(u_new, phi_new, tau, float(sigma_new.min()), res_phi, res_u)


def run_simulation(
    config: SchemeConfig,
    problem: ProblemData,
    space: FeSpace,
) -> tuple[TimeState, list[StepRecord]]:
    """Run one scheme on ``space`` from ``t = 0`` to ``t = T``.

    The space's mesh must be the configuration's, else ValueError.  Realizes
    the time step from the tau rule, then takes the steps ``1 ... N``; the
    first ones are the scheme's start-up.  Returns the final `TimeState`
    (whose newest levels are the fields at ``T``) and the trace, the
    `record` of every level a step solved for.  The ``bdf3`` start levels are
    temperature interpolants only; no potential is solved for them.
    A `RUN_FAILURES` exception of step ``n`` (0: the initial potential of
    ``gao``) is re-raised as the first `RUN_FAILURES` type it is an instance
    of, its text prefixed with ``step n at t=...:``.  Each step's helper
    thread (`OperatorCache.loads`) ends before the step's first solve, and
    each potential system is dropped after its one solve.
    The run builds the space's sparsity pattern on its first assembly and
    releases it when it returns or raises: the error report does not read
    it, and a later run on the space builds the same pattern again.
    """
    tau, N = validate_config(config)
    _check_space(space, config)
    table = _scheme_table(config.scheme)
    ops = OperatorCache(space, problem, config.solver)
    state = TimeState(n=0, t=0.0, u_n=interpolate_nodal(space, problem.exact_u, 0.0))
    euler = partial(imex_step, TABLES["euler"])
    step = gao_step if config.scheme == "gao" else partial(imex_step, table)
    trace: list[StepRecord] = []
    n = 0
    try:
        if config.scheme == "gao":
            # The first temperature-first step consumes two potential levels, so
            # the start-up also solves for the initial potential.
            with ops.loads(0.0) as loads:
                potential = ops.potential_system(_sigma_at_quad(ops, state.u_n))
                b2, g, _ = loads.result()
            state = replace(state, phi_n=potential.solve(b2, g)[0])
            del potential  # the run would hold it to its end
        for n in range(1, N + 1):
            # Start-up: BDF3 takes its first two temperature levels from the
            # exact solution, with no potential: its steps read temperatures
            # only.  A two-level row takes one implicit Euler step.
            if n < table.levels and config.scheme == "bdf3":
                state = state.advanced(interpolate_nodal(space, problem.exact_u, n * tau), None, tau)
            else:
                state = (euler if n < table.levels else step)(state, tau, ops)
                trace.append(state.record)
    except RUN_FAILURES as exc:
        # numpy's allocation error takes no message argument: re-raise as the
        # tuple's own type.
        kind = next(kind for kind in RUN_FAILURES if isinstance(exc, kind))
        raise kind(f"step {n} at t={n * tau:g}: {exc}") from exc
    finally:
        # Nothing after the last step reads the pattern; the next user rebuilds it.
        vars(space).pop("pattern", None)
    return state, trace
