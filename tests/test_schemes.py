"""Time-stepping schemes: step resolution, algebraic identities, step-level
structure (decoupling, degeneracies), and the dense reference step."""

import gc
import math
import threading
import time
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense_oracle as oracle
from thermistor_fem import (
    TABLES,
    ConductivityNotPositive,
    FeEvaluation,
    FeSpace,
    SchemeConfig,
    TimeState,
    build_mesh,
    fe_l2_norm,
    gao_step,
    imex_step,
    interpolate_nodal,
    l2_error,
    make_problem,
    resolve_tau,
    run_simulation,
)
from thermistor_fem import fem
from thermistor_fem.manufactured import exact_phi, exact_u, sigma
from thermistor_fem.mesh import mesh_size
from thermistor_fem.schemes import (
    MAX_STEPS,
    SCHEMES,
    OperatorCache,
    ProblemData,
    _step_loads,
    potential_solve,
    validate_config,
)


STEPS = {
    "bdf2_step": partial(imex_step, TABLES["bdf2"]),
    "bdf3_step": partial(imex_step, TABLES["bdf3"]),
    "ext1_step": partial(imex_step, TABLES["ext1"]),
    "gao_step": gao_step,
}


def one_step(step, state, space, problem, tau):
    """``step`` on a fresh operator cache."""
    return step(state, tau, OperatorCache(space, problem))


def cfg(**kw):
    base = dict(scheme="bdf2", M=4, elem_kind="tri", T=1.0, tau_rule="fixed:0.25")
    base.update(kw)
    return SchemeConfig(**base)


def run(config, problem):
    """`run_simulation` on a fresh space on the configuration's mesh."""
    return run_simulation(config, problem, FeSpace(build_mesh(config.M, config.elem_kind)))


def l2_distance(space, coeffs, f, t):
    """``||u_h - f(t)||_0`` on the space's error rule."""
    tb = space.error_tables
    return l2_error(FeEvaluation(space, coeffs), f(tb.x[..., 0], tb.x[..., 1], t))


# ----------------------------------------------------------------------------
# Configuration and step resolution
# ----------------------------------------------------------------------------


def test_resolve_tau_fixed_divides_t_evenly():
    tau, N = resolve_tau(cfg(tau_rule="fixed:0.3"), h=0.1)
    assert (tau, N) == (0.25, 4)
    # no spurious extra step from floating point: 1.0 / 0.1 stays at N = 10
    tau, N = resolve_tau(cfg(tau_rule="fixed:0.1"), h=0.1)
    assert (tau, N) == (0.1, 10)


@pytest.mark.parametrize("T", [0.7, 1.0, 3.0, 10.0])
def test_a_fixed_step_of_t_over_n_resolves_to_n_steps(T):
    # T / (T / N) may land a few ulps above N; an absolute guard stops
    # covering that once N is in the tens of thousands.
    for N in range(1, MAX_STEPS + 1):
        assert resolve_tau(SchemeConfig("euler", 2, T=T, tau_rule=f"fixed:{T / N!r}"), 1.0)[1] == N, N


def test_resolve_tau_mesh_coupled_rules():
    h = 0.25
    tau, N = resolve_tau(cfg(tau_rule="sqrt-h"), h=h)
    assert (tau, N) == (0.5, 2)
    tau, N = resolve_tau(cfg(tau_rule="equal-h"), h=h)
    assert (tau, N) == (0.25, 4)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 0.0125, 1.0, 5e-324]),
)
_TAU_RULES = st.one_of(
    st.sampled_from(["sqrt-h", "equal-h", "SQRT-H", "sqrt-h ", " fixed:1", "fixed", "fixed:", "fixed::1"]),
    st.sampled_from(["fixed:1_0", "fixed:_1", "fixed:1_", "fixed: 0.5\n", "fixed:1e400", "fixed:-0", "fixed:0x1"]),
    _FLOATS.map(lambda v: f"fixed:{v!r}"),
    st.text(max_size=8).map(lambda junk: f"fixed:{junk}"),
    st.text(max_size=10),
    st.one_of(st.none(), st.integers(-3, 3), _FLOATS, st.binary(max_size=4), st.just(b"sqrt-h")),
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # a huge T over a tiny step
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(rule=_TAU_RULES, M=st.integers(1, 600), T=st.one_of(st.floats(1e-3, 1e3), _FLOATS))
def test_resolve_tau_equals_the_reference_rule_reader(rule, M, T):
    # One function reads a rule; every rule gives the reference's steps, or
    # both refuse it with the same error, whose text differs only for a rule
    # that is not a string.  A horizon that is not positive and finite is
    # refused before the rule is read.
    config = cfg(M=M, T=T, tau_rule=rule)
    try:
        want = oracle.resolve_tau(config, mesh_size(M))
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            resolve_tau(config, mesh_size(M))
        assert type(info.value) is type(exc)
        if isinstance(rule, str):
            assert str(info.value) == str(exc)
    else:
        assert resolve_tau(config, mesh_size(M)) == want


@pytest.mark.parametrize("T", [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan])
@pytest.mark.parametrize("rule", ["sqrt-h", "fixed:0.1", "weekly"])
def test_resolve_tau_refuses_a_horizon_that_is_not_positive_and_finite(T, rule):
    with pytest.raises(ValueError, match="T must be a positive finite number"):
        resolve_tau(cfg(T=T, tau_rule=rule), h=0.1)


def test_resolve_tau_step_never_exceeds_horizon():
    tau, N = resolve_tau(cfg(T=0.1, tau_rule="fixed:0.7"), h=0.1)
    assert (tau, N) == (0.1, 1)


@pytest.mark.parametrize(
    "bad",
    [
        dict(scheme="leapfrog"),
        dict(elem_kind="hex"),
        dict(M=5),
        dict(M=0),
        dict(M=2.0),
        dict(M=-2),
        dict(T=0.0),
        dict(T=-1.0),
        dict(T=float("inf")),
        dict(T=-float("inf")),
        dict(T=float("nan")),
        dict(T="1.0"),
        dict(T=None),
        dict(solver="gmres"),
        dict(tau_rule="weekly"),
        dict(tau_rule="fixed:zero"),
        dict(tau_rule="fixed:-0.1"),
        dict(tau_rule="fixed:0"),
        dict(tau_rule="fixed:nan"),
        dict(assembly_points=0),
        dict(assembly_points=-3),
        dict(assembly_points=2.0),
        dict(error_points=0),
        dict(error_points="4"),
        dict(tau_rule=None),
        dict(tau_rule=0.1),
        dict(elem_kind="tri", assembly_points=3),
        dict(elem_kind="tri", error_points=4),
        # horizons shorter than the start-up: N=1 < 2 levels, N=2 < 3 levels
        dict(tau_rule="fixed:1.0"),
        dict(scheme="gao", tau_rule="fixed:1.0"),
        dict(scheme="bdf3", tau_rule="fixed:0.5"),
    ],
)
def test_validate_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        validate_config(cfg(**bad))


@pytest.mark.parametrize(
    "T, rule", [(1e300, "fixed:0.5"), (1.0, "fixed:1e-300"), (1e300, "fixed:1e-300"), (2e5, "fixed:1")]
)
def test_step_count_is_capped(T, rule):
    # Without the cap these ask for up to ~1e600 steps: a run that never ends.
    config = cfg(scheme="euler", M=2, T=T, tau_rule=rule)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        resolve_tau(config, mesh_size(2))
    with pytest.raises(ValueError, match="MAX_STEPS"):
        validate_config(config)


def test_step_count_may_reach_the_cap():
    config = cfg(scheme="euler", M=2, T=float(MAX_STEPS), tau_rule="fixed:1")
    validate_config(config)
    assert resolve_tau(config, mesh_size(2)) == (1.0, MAX_STEPS)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        resolve_tau(replace(config, T=MAX_STEPS + 1.0), mesh_size(2))


def test_problem_data_requires_the_exact_gradients():
    # Every run reports H1 errors, so a problem without them cannot be built.
    problem = make_problem()
    with pytest.raises(TypeError):
        ProblemData(problem.sigma, problem.exact_u, problem.exact_phi, problem.f1, problem.f2)


def test_run_simulation_validates_first():
    with pytest.raises(ValueError):
        run_simulation(cfg(M=3), make_problem(), FeSpace(build_mesh(4, "tri")))


# ----------------------------------------------------------------------------
# The coefficient tables and the backward-difference energy identity
# ----------------------------------------------------------------------------


def d_tau(f_n, f_nm1, f_nm2, tau):
    """The two-step backward difference exactly as the ``bdf2`` row applies it."""
    alpha, history = TABLES["bdf2"].difference((f_nm1, f_nm2), tau)
    return alpha * f_n - history


def test_d_tau_formula():
    # D_tau f^n = (3 f^n - 4 f^{n-1} + f^{n-2}) / (2 tau), split into the
    # matrix coefficient and the known right-hand side exactly.
    rng = np.random.default_rng(0)
    b, c = rng.standard_normal((2, 17))
    tau = 0.3
    alpha, history = TABLES["bdf2"].difference((b, c), tau)
    assert alpha == 3 / (2 * tau)
    assert np.array_equal(history, (4 * b - c) / (2 * tau))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_tables_are_exact_on_polynomials(name):
    # With unit steps and the new level at t = 0, each history level sits at
    # t = -1, -2, ...  A k-level backward difference differentiates
    # polynomials of degree <= k exactly and an extrapolation with m weights
    # reproduces degree < m, so one mistyped coefficient fails here.  The
    # arithmetic is in exact fractions.  `levels` counts the difference's
    # levels, which the start-up builds: the extrapolation reads no other.
    table = TABLES[name]
    assert len(table.extrap) <= len(table.history) == table.levels
    past = [Fraction(-1 - k) for k in range(table.levels)]
    for degree in range(len(table.history) + 1):
        history = sum(c * t**degree for c, t in zip(table.history, past))
        derivative = (table.a * 0**degree - history) / table.d
        assert derivative == (1 if degree == 1 else 0), (name, degree)
    for degree in range(len(table.extrap)):
        assert sum(w * t**degree for w, t in zip(table.extrap, past)) == 0**degree, (name, degree)


def test_bdf2_energy_identity_telescopes():
    # G-stability of the two-step backward difference: testing D_tau u^n
    # against u^n itself telescopes into a difference of positive "energies"
    # plus a positive dissipation term,
    #
    #   2 tau (D_tau u^n, u^n) = E(u^n, u^{n-1}) - E(u^{n-1}, u^{n-2})
    #                            + 0.5 |u^n - 2 u^{n-1} + u^{n-2}|^2,
    #   E(a, b) = 0.5 (|a|^2 + |2a - b|^2).
    #
    # This is the structural reason the scheme is unconditionally stable, and
    # it must hold exactly (to rounding) for arbitrary sequences.
    rng = np.random.default_rng(42)
    m, levels = 60, 9
    u = rng.standard_normal((levels, m))
    tau = 0.05

    def energy(a, b):
        return 0.5 * (a @ a + (2 * a - b) @ (2 * a - b))

    lhs_total = 0.0
    for n in range(2, levels):
        lhs = 2 * tau * (d_tau(u[n], u[n - 1], u[n - 2], tau) @ u[n])
        jump = u[n] - 2 * u[n - 1] + u[n - 2]
        rhs = energy(u[n], u[n - 1]) - energy(u[n - 1], u[n - 2]) + 0.5 * (jump @ jump)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        lhs_total += lhs

    dissipation = sum(
        0.5 * ((u[n] - 2 * u[n - 1] + u[n - 2]) @ (u[n] - 2 * u[n - 1] + u[n - 2]))
        for n in range(2, levels)
    )
    rhs_total = energy(u[-1], u[-2]) - energy(u[1], u[0]) + dissipation
    assert abs(lhs_total - rhs_total) < 1e-12 * max(1.0, abs(lhs_total))


# ----------------------------------------------------------------------------
# One step against the dense reference implementation
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_bdf2_step_matches_dense_reference(kind):
    space = FeSpace(build_mesh(8, kind))
    problem = make_problem()
    tau = 0.1
    u_nm1 = interpolate_nodal(space, exact_u, 0.1)
    u_n = interpolate_nodal(space, exact_u, 0.2)
    state = TimeState(n=2, t=0.2, u_n=u_n, u_nm1=u_nm1)
    new = one_step(STEPS["bdf2_step"], state, space, problem, tau)
    u_ref, phi_ref = oracle.oracle_bdf2_step(space.mesh, problem, u_n, u_nm1, tau, 0.3)
    assert np.abs(new.u_n - u_ref).max() < 1e-9
    assert np.abs(new.phi_n - phi_ref).max() < 1e-9


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_ext1_step_matches_dense_reference(kind):
    # ext1: the BDF2 difference with the conductivity of the newest level alone.
    space = FeSpace(build_mesh(8, kind))
    problem = make_problem()
    u_nm1 = interpolate_nodal(space, exact_u, 0.1)
    u_n = interpolate_nodal(space, exact_u, 0.2)
    state = TimeState(n=2, t=0.2, u_n=u_n, u_nm1=u_nm1)
    new = one_step(STEPS["ext1_step"], state, space, problem, 0.1)
    u_ref, phi_ref = oracle.oracle_imex_step(space.mesh, problem, (1,), (3, (4, -1), 2), (u_n, u_nm1), 0.1, 0.3)
    assert np.abs(new.u_n - u_ref).max() < 1e-9
    assert np.abs(new.phi_n - phi_ref).max() < 1e-9


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_gao_run_matches_dense_reference_from_its_start_up(kind):
    # Three steps from t=0: the potential at t=0, one implicit Euler step,
    # then two temperature-first steps, the first of which reads the t=0
    # potential in its Joule load.
    space = FeSpace(build_mesh(8, kind))
    problem = make_problem()
    state, _ = run_simulation(SchemeConfig("gao", 8, kind, T=0.3, tau_rule="fixed:0.1"), problem, space)
    u_ref, phi_ref = oracle.oracle_gao_run(space.mesh, problem, 0.1, 3)
    assert state.n == 3
    assert np.abs(state.u_n - u_ref).max() < 1e-9
    assert np.abs(state.phi_n - phi_ref).max() < 1e-9


# ----------------------------------------------------------------------------
# Structural properties of the steps
# ----------------------------------------------------------------------------


def history_state(space, tau, n=2):
    """Exact-interpolant history up to level n (newest last)."""
    problem = make_problem()
    levels = [interpolate_nodal(space, exact_u, k * tau) for k in range(n + 1)]
    ops, phi = OperatorCache(space, problem), []
    for k, u in enumerate(levels):
        with ops.loads(k * tau) as loads:
            phi.append(potential_solve(ops, sigma(space.values_at_quad(u)), loads)[0])
    return TimeState(
        n=n,
        t=n * tau,
        u_n=levels[n],
        u_nm1=levels[n - 1],
        u_nm2=levels[n - 2],
        phi_n=phi[n],
        phi_nm1=phi[n - 1],
    )


@pytest.mark.parametrize("name", ["bdf2_step", "bdf3_step", "ext1_step"])
def test_potential_update_is_decoupled_from_the_heat_source(name):
    # Within a step the potential is computed before the temperature, from
    # history only, so perturbing f1 must change U^n but leave Phi^n bitwise
    # identical.
    space = FeSpace(build_mesh(4, "tri"))
    tau = 0.2
    state = history_state(space, tau)
    problem = make_problem()
    shifted = replace(problem, f1=lambda x, y, t: problem.f1(x, y, t) + 50.0)
    a = one_step(STEPS[name], state, space, problem, tau)
    b = one_step(STEPS[name], state, space, shifted, tau)
    assert np.array_equal(a.phi_n, b.phi_n)
    assert np.abs(a.u_n - b.u_n).max() > 1e-3


def test_gao_temperature_is_decoupled_from_the_new_potential():
    # The comparison scheme goes the other way: U^n is computed from old
    # potentials, so perturbing the potential source f2 leaves U^n bitwise
    # identical while Phi^n changes.
    space = FeSpace(build_mesh(4, "tri"))
    tau = 0.2
    state = history_state(space, tau)
    problem = make_problem()
    shifted = replace(problem, f2=lambda x, y, t: problem.f2(x, y, t) + 50.0)
    a = one_step(gao_step, state, space, problem, tau)
    b = one_step(gao_step, state, space, shifted, tau)
    assert np.array_equal(a.u_n, b.u_n)
    assert np.abs(a.phi_n - b.phi_n).max() > 1e-3


def constant_sigma_problem():
    problem = make_problem()
    return replace(problem, sigma=lambda s: np.full_like(np.asarray(s, dtype=float), 1.3))


def test_constant_conductivity_collapses_extrapolation_orders():
    # With sigma constant, first- and second-order extrapolation coincide, so
    # the workhorse scheme and its first-order variant produce identical steps.
    space = FeSpace(build_mesh(4, "tri"))
    tau = 0.2
    state = history_state(space, tau)
    problem = constant_sigma_problem()
    a = one_step(STEPS["bdf2_step"], state, space, problem, tau)
    b = one_step(STEPS["ext1_step"], state, space, problem, tau)
    assert np.array_equal(a.u_n, b.u_n)
    assert np.array_equal(a.phi_n, b.phi_n)


def test_stationary_potential_and_constant_sigma_collapse_the_orderings():
    # With sigma constant and potential data independent of time, every
    # potential solve returns the same field, and the temperature-first
    # ordering produces exactly the potential-first trajectory.
    problem = replace(
        constant_sigma_problem(),
        exact_phi=lambda x, y, t: 1.0 + x * y,  # harmonic
        f2=lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)),
        grad_phi=lambda x, y, t: (y, x),
    )
    a, _ = run(cfg(scheme="bdf2"), problem)
    b, _ = run(cfg(scheme="gao"), problem)
    assert np.array_equal(a.u_n, b.u_n)
    assert np.array_equal(a.phi_n, b.phi_n)


@pytest.mark.parametrize(
    "name, needs",
    [
        ("bdf2_step", "u_nm1"),
        ("ext1_step", "u_nm1"),
        ("bdf3_step", "u_nm2"),
        ("gao_step", "phi_nm1"),
    ],
)
def test_steps_refuse_to_run_without_history(name, needs):
    space = FeSpace(build_mesh(4, "tri"))
    u0 = interpolate_nodal(space, exact_u, 0.0)
    state = TimeState(n=0, t=0.0, u_n=u0)
    if needs == "phi_nm1":
        state = replace(state, u_nm1=u0, u_nm2=u0)
    elif needs == "u_nm2":
        state = replace(state, u_nm1=u0)
    with pytest.raises(ValueError):
        one_step(STEPS[name], state, space, make_problem(), 0.1)


@pytest.mark.parametrize("name", ["bdf2_step", "gao_step"])
@pytest.mark.parametrize("tau", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_steps_refuse_a_time_step_that_is_not_positive_and_finite(name, tau):
    # A bad step is a bad argument (ValueError), not a solver failure, and it
    # is refused before the step starts its loads job.
    space = FeSpace(build_mesh(4, "tri"))
    state = history_state(space, 0.1)
    ops = OperatorCache(space, make_problem())
    before = threading.enumerate()
    with pytest.raises(ValueError, match="^the time step must be positive and finite"):
        STEPS[name](state, tau, ops)
    assert threading.enumerate() == before


# ----------------------------------------------------------------------------
# Start-up and full runs
# ----------------------------------------------------------------------------


def test_euler_init_returns_first_level():
    space = FeSpace(build_mesh(8, "tri"))
    tau = 0.05
    # the Euler start-up step: implicit Euler from the interpolated datum
    state = TimeState(n=0, t=0.0, u_n=interpolate_nodal(space, exact_u, 0.0))
    state = one_step(partial(imex_step, TABLES["euler"]), state, space, make_problem(), tau)
    assert state.n == 1 and state.u_nm1 is not None
    u1, phi1 = state.u_n, state.phi_n
    # first-order accurate but consistent: both fields near the exact ones
    assert l2_distance(space, u1, exact_u, tau) < 0.05
    assert l2_distance(space, phi1, exact_phi, tau) < 0.01
    assert np.all(u1[space.boundary_dofs] == 0.0)


def test_run_simulation_reaches_final_time_and_traces_every_step(monkeypatch):
    problem = make_problem()
    state, trace = run(cfg(scheme="euler"), problem)
    assert state.n == 4
    assert state.t == pytest.approx(1.0)
    assert [r.n for r in trace] == [1, 2, 3, 4]
    assert [r.t for r in trace] == pytest.approx([0.25, 0.5, 0.75, 1.0])

    for scheme in ("bdf2", "ext1", "gao"):
        state, trace = run(cfg(scheme=scheme), problem)
        assert state.n == 4
        assert [r.n for r in trace] == [1, 2, 3, 4]  # Euler start is recorded too

    state, trace = run(cfg(scheme="bdf3"), problem)
    assert state.n == 4
    assert [r.n for r in trace] == [3, 4]  # exact start levels are not steps

    # The trace is the `record` of each level a step made; the levels no step
    # made carry None: bdf3's exact start levels, and gao's level 0, which
    # holds the initial potential.
    seen = []

    def spy(table, state, *args):
        seen.append(state)
        return imex_step(table, state, *args)

    monkeypatch.setattr("thermistor_fem.schemes.imex_step", spy)
    state, trace = run(cfg(scheme="bdf3"), problem)
    assert [s.n for s in seen] == [2, 3]
    assert [s.record for s in seen] + [state.record] == [None, *trace]
    seen.clear()
    run(cfg(scheme="gao"), problem)
    assert [s.n for s in seen] == [0]  # the Euler start-up step
    assert seen[0].phi_n is not None and seen[0].record is None


def test_run_simulation_records_solver_and_coefficient_diagnostics():
    problem = make_problem()
    for scheme, step in (("bdf2", partial(imex_step, TABLES["bdf2"])), ("gao", gao_step)):
        state, trace = run(cfg(scheme=scheme), problem)
        assert state.record is trace[-1]
        for record in trace:
            assert 0.9 < record.sigma_star_min <= 2.0
            assert record.res_phi < 1e-10
            assert record.res_u < 1e-10
        # The step called on the level before the last makes the trace's last entry.
        space = FeSpace(build_mesh(4, "tri"))
        before, _ = run_simulation(cfg(scheme=scheme, T=0.75), problem, space)
        assert one_step(step, before, space, problem, 0.25).record == trace[-1]


def test_run_simulation_rejects_horizons_shorter_than_the_startup():
    with pytest.raises(ValueError):
        run(cfg(scheme="bdf2", tau_rule="fixed:1.0"), make_problem())
    with pytest.raises(ValueError):
        run(cfg(scheme="bdf3", tau_rule="fixed:0.5"), make_problem())


def test_run_simulation_refuses_a_space_on_another_mesh():
    # validate_config resolves the step count on the configuration's mesh.
    space = FeSpace(build_mesh(2, "tri"))
    with pytest.raises(ValueError, match="not the configuration's"):
        run_simulation(cfg(scheme="bdf3", M=64, tau_rule="sqrt-h"), make_problem(), space)
    with pytest.raises(ValueError, match="not the configuration's"):
        run_simulation(cfg(M=2, elem_kind="quad"), make_problem(), space)


def test_a_set_up_failure_keeps_its_text(monkeypatch):
    # Only a failure inside the steps names a step: the operator assembly
    # before them raises as it is.
    def no_memory(space):
        raise MemoryError("cannot assemble the mass matrix")

    monkeypatch.setattr("thermistor_fem.schemes.assemble_mass", no_memory)
    with pytest.raises(MemoryError, match="^cannot assemble the mass matrix$"):
        run(cfg(), make_problem())


def test_exact_init_seeds_interpolants():
    # BDF3 starts from the nodal interpolants of the exact temperature.
    problem = make_problem()
    space = FeSpace(build_mesh(4, "tri"))
    config = cfg(scheme="bdf3", T=0.75, tau_rule="fixed:0.25")
    state, trace = run_simulation(config, problem, space)
    # two exact levels + one bdf3 step
    assert [r.n for r in trace] == [3]
    assert np.array_equal(state.u_nm2, interpolate_nodal(space, exact_u, 0.25))
    assert np.array_equal(state.u_nm1, interpolate_nodal(space, exact_u, 0.5))


def test_bdf3_solves_a_potential_only_in_its_steps(monkeypatch):
    # The exact start levels carry temperatures only: of N levels, the N - 2
    # bdf3 steps solve for a potential and the start-up solves none.
    calls, made = [], {}  # made: id of each StepLoads -> (it, its time)

    def timed_step_loads(ops, t):
        loads = _step_loads(ops, t)
        made[id(loads)] = (loads, t)
        return loads

    def counting_potential_solve(ops, sigma_star, loads):
        calls.append(made[id(loads.result())][1])
        return potential_solve(ops, sigma_star, loads)

    monkeypatch.setattr("thermistor_fem.schemes._step_loads", timed_step_loads)
    monkeypatch.setattr("thermistor_fem.schemes.potential_solve", counting_potential_solve)
    state, _ = run(cfg(scheme="bdf3", T=1.25), make_problem())
    assert calls == pytest.approx([0.75, 1.0, 1.25])
    assert state.n == 5 and state.phi_n is not None


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    half_M=st.integers(1, 4),
    kind=st.sampled_from(["tri", "quad"]),
    solver=st.sampled_from(["direct", "cg"]),
    N=st.integers(3, 5),
)
def test_runs_hold_the_boundary_values_exactly(scheme, half_M, kind, solver, N):
    # The Dirichlet reduction writes the boundary values straight into the
    # solution: the temperature is exactly 0 there and the potential is
    # exactly the exact trace at the final time.
    config = cfg(scheme=scheme, M=2 * half_M, elem_kind=kind, T=0.25 * N, solver=solver)
    space = FeSpace(build_mesh(config.M, kind))
    state, _ = run_simulation(config, make_problem(), space)
    xb = space.mesh.nodes[space.boundary_dofs]
    assert state.n == N
    assert np.all(state.u_n[space.boundary_dofs] == 0.0)
    assert np.array_equal(state.phi_n[space.boundary_dofs], exact_phi(xb[:, 0], xb[:, 1], state.t))


def test_cg_and_direct_solvers_agree_on_a_full_run():
    problem = make_problem()
    a, _ = run(cfg(solver="direct"), problem)
    b, _ = run(cfg(solver="cg"), problem)
    assert np.abs(a.u_n - b.u_n).max() < 1e-9
    assert np.abs(a.phi_n - b.phi_n).max() < 1e-9


# ----------------------------------------------------------------------------
# Temporal order of every scheme
# ----------------------------------------------------------------------------


def final_level(scheme, N, space):
    """The level at T = 1 of ``scheme`` with N steps on ``space`` (tri M=16)."""
    state, _ = run_simulation(SchemeConfig(scheme, 16, "tri", tau_rule=f"fixed:{1 / N!r}"), make_problem(), space)
    return state


@pytest.fixture(scope="module")
def time_reference():
    # bdf2 with 2560 steps on the same space: its temporal error lies far
    # below that of the runs below, and the spatial error cancels.  640 steps
    # are too few for bdf3's last leg.
    space = FeSpace(build_mesh(16, "tri"))
    return space, final_level("bdf2", 2560, space)


#: Each scheme's temporal order, and the fields that show it at N = 10..80.
#: ext1's temperature is not yet asymptotic there (orders 1.87, 1.67, 1.46).
TEMPORAL_ORDERS = {
    "euler": (1, ("u_n", "phi_n")),
    "bdf2": (2, ("u_n", "phi_n")),
    "bdf3": (3, ("u_n", "phi_n")),
    "gao": (2, ("u_n", "phi_n")),
    "ext1": (1, ("phi_n",)),
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_converges_in_time_at_its_order(scheme, time_reference):
    order, fields = TEMPORAL_ORDERS[scheme]
    space, reference = time_reference
    levels = [final_level(scheme, N, space) for N in (10, 20, 40, 80)]
    for field in fields:
        errs = [fe_l2_norm(FeEvaluation(space, getattr(s, field) - getattr(reference, field))) for s in levels]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert orders[-1] == pytest.approx(order, abs=0.15), (field, orders)


# ----------------------------------------------------------------------------
# The steps' helper threads
# ----------------------------------------------------------------------------


class RecordedFactor:
    """A SuperLU factor that notes the threads it is made and freed on."""

    def __init__(self, lu, events):
        self._lu, self._events = lu, events
        events.append(("made", threading.current_thread()))

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def __del__(self):
        self._events.append(("freed", threading.current_thread()))


@pytest.mark.parametrize("scheme", ["bdf2", "bdf3", "gao"])
def test_every_factor_is_made_and_freed_on_the_calling_thread(scheme, monkeypatch):
    # A SuperLU factor freed on another thread than the one that made it is
    # never released: the helper computes loads, never a factor.
    events, real_splu = [], fem.spla.splu
    monkeypatch.setattr(fem.spla, "splu", lambda *a, **kw: RecordedFactor(real_splu(*a, **kw), events))
    run(cfg(scheme=scheme, T=1.25), make_problem())
    gc.collect()
    kinds = [kind for kind, _ in events]
    assert kinds.count("made") == kinds.count("freed") >= 3
    assert {thread for _, thread in events} == {threading.current_thread()}


def test_no_thread_starts_before_a_step_asks_for_its_loads():
    # The loads' helper starts when their ``with`` block is entered, not
    # when the context manager is made.
    before = threading.enumerate()
    ops = OperatorCache(FeSpace(build_mesh(4, "tri")), make_problem())
    ops.heat_system(10.0)
    ops.loads(0.5)
    assert threading.enumerate() == before


@pytest.mark.parametrize("name", ["bdf2_step", "gao_step"])
def test_a_step_ends_its_helper_before_it_returns(name):
    # The cache owns no thread and is never closed: the step's loads run on
    # a helper that has ended when the step returns.
    space = FeSpace(build_mesh(4, "tri"))
    state = history_state(space, 0.1)
    ops = OperatorCache(space, make_problem())
    before = threading.enumerate()
    STEPS[name](state, 0.1, ops)
    assert threading.enumerate() == before


def test_a_failure_in_the_loads_keeps_its_type_and_names_its_step():
    problem = make_problem()
    threads = []

    def f1(x, y, t):
        threads.append(threading.current_thread())
        if t == 0.5:
            raise MemoryError("cannot evaluate f1")
        return problem.f1(x, y, t)

    with pytest.raises(MemoryError, match=r"^step 2 at t=0\.5: cannot evaluate f1$") as info:
        run(cfg(), replace(problem, f1=f1))
    assert type(info.value) is MemoryError and type(info.value.__cause__) is MemoryError
    assert threads and threading.current_thread() not in threads


def test_a_failure_beside_a_running_job_waits_for_it_and_ends_the_worker():
    # sigma* is negative in step 1 while the helper is still inside f2: the
    # run fails only once the job is done, and leaves no thread behind.
    problem = make_problem()
    started, finished = threading.Event(), threading.Event()

    def f2(x, y, t):
        started.set()
        time.sleep(0.2)
        finished.set()
        return problem.f2(x, y, t)

    def negative_sigma(s):
        assert started.wait(10)
        return np.full_like(np.asarray(s, dtype=float), -1.0)

    before = threading.enumerate()
    with pytest.raises(ConductivityNotPositive, match=r"^step 1 at t=0\.25: "):
        run(cfg(), replace(problem, f2=f2, sigma=negative_sigma))
    assert finished.is_set()
    assert threading.enumerate() == before


def test_operator_cache_holds_only_the_current_heat_system():
    # A run's heat coefficient only moves forward (Euler, BDF2, BDF3), so the
    # cache keeps one system and frees the earlier factorization.
    ops = OperatorCache(FeSpace(build_mesh(4, "tri")), make_problem())
    first = ops.heat_system(10.0)
    assert ops.heat_system(10.0) is first
    freed = weakref.ref(first)
    del first
    ops.heat_system(15.0)
    gc.collect()
    assert freed() is None


def test_potential_solve_is_second_order_accurate():
    t = 0.4
    errs = []
    for M in (8, 16):
        space = FeSpace(build_mesh(M, "tri"))
        u = interpolate_nodal(space, exact_u, t)
        sigma_star = sigma(space.values_at_quad(u))
        ops = OperatorCache(space, make_problem())
        with ops.loads(t) as loads:
            phi, res = potential_solve(ops, sigma_star, loads)
        assert res < 1e-10
        errs.append(l2_distance(space, phi, exact_phi, t))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
