"""The final-time error report: bit for bit the per-norm formulation of the
dense oracle, with each exact field evaluated once per set of points."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import _dense_oracle as oracle
from thermistor_fem import (
    FeSpace,
    SchemeConfig,
    TimeState,
    build_mesh,
    interpolate_nodal,
    make_problem,
    resolve_tau,
    run_simulation,
)
from thermistor_fem.harness import compute_error_report


def perturbed_state(space, problem, t=0.7):
    """The nodal interpolants at ``t`` plus noise, so that every
    supercloseness measure is nonzero."""
    rng = np.random.default_rng(21)
    u = interpolate_nodal(space, problem.exact_u, t) + 1e-3 * rng.standard_normal(space.n_dofs)
    phi = interpolate_nodal(space, problem.exact_phi, t) + 1e-3 * rng.standard_normal(space.n_dofs)
    return TimeState(n=7, t=t, u_n=u, phi_n=phi)


def bdf2_state(space, problem, config):
    state, _ = run_simulation(config, problem, space)
    return state


@pytest.mark.parametrize("make_state", ["perturbed", "bdf2"])
@pytest.mark.parametrize("M", [8, 10])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_report_equals_the_per_norm_formulation_bit_for_bit(kind, M, make_state):
    problem = make_problem()
    config = SchemeConfig("bdf2", M, kind, tau_rule="fixed:0.25")
    space = FeSpace(build_mesh(M, kind))
    tau, N = resolve_tau(config, space.mesh.h)
    if make_state == "perturbed":
        state = perturbed_state(space, problem)
    else:
        state = bdf2_state(space, problem, config)
    got = dataclasses.asdict(compute_error_report(space, state, problem, config, tau, N))

    fresh, t = FeSpace(build_mesh(M, kind)), state.t
    want = {
        **oracle.per_norm_field_errors(fresh, state.u_n, problem.exact_u, problem.grad_u, t, "u"),
        **oracle.per_norm_field_errors(fresh, state.phi_n, problem.exact_phi, problem.grad_phi, t, "phi"),
    }
    want["combined_l2"] = float(np.sqrt(want["err_u_l2"] ** 2 + want["err_phi_l2"] ** 2))
    for name, value in want.items():
        assert got[name] == value, name
        assert value > 0, name


def test_report_evaluates_each_exact_field_once_per_set_of_points():
    # The nodal interpolant reads exact_u and exact_phi at the nodes; every
    # error reads the one evaluation at the error-rule points.
    problem = make_problem()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    names = ("exact_u", "exact_phi", "grad_u", "grad_phi")
    counting = dataclasses.replace(problem, **{n: counted(n, getattr(problem, n)) for n in names})
    config = SchemeConfig("bdf2", 8, "tri", tau_rule="fixed:0.25")
    space = FeSpace(build_mesh(8, "tri"))
    state = perturbed_state(space, problem)
    compute_error_report(space, state, counting, config, 0.25, 4)
    assert calls == {"exact_u": 2, "exact_phi": 2, "grad_u": 1, "grad_phi": 1}
