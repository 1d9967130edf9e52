"""The final-time error report: bit for bit the per-norm formulation of the
dense oracle, with each exact field evaluated once per set of points, and
its norms filled over two element ranges at once."""

import dataclasses
import threading
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest

import _dense_oracle as oracle
from thermistor_fem import (
    ExperimentPlan,
    FeEvaluation,
    FeSpace,
    SchemeConfig,
    TimeState,
    build_mesh,
    h1_error,
    h1_error_postprocessed,
    i2h_postprocess,
    interpolate_nodal,
    l2_error,
    macroelements,
    make_problem,
    resolve_tau,
    run_plan,
    run_simulation,
)
from thermistor_fem.analysis import exact_fields
from thermistor_fem.fem import _CHUNK
from thermistor_fem.harness import compute_error_report

#: Fewest elements whose report fills its second range on a helper thread.
HELPER_ELEMENTS = 8 * _CHUNK


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
@pytest.mark.parametrize("M", [8, 10, 34, 50, 64])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_report_equals_the_per_norm_formulation_bit_for_bit(kind, M, make_state):
    # From tri M=34 and quad M=50 on, the elements no longer fit in one block
    # and the norms are filled over two element ranges; at M=34 and M=50
    # the ranges hold unequal numbers of patch rows.
    problem = make_problem()
    config = SchemeConfig("bdf2", M, kind, tau_rule="fixed:0.25")
    space = FeSpace(build_mesh(M, kind))
    if make_state == "perturbed":
        state = perturbed_state(space, problem)
    else:
        state = bdf2_state(space, problem, config)
    got = dataclasses.asdict(compute_error_report(space, state, problem, config))

    fresh, t = FeSpace(build_mesh(M, kind)), state.t
    want = {
        **oracle.per_norm_field_errors(fresh, state.u_n, problem.exact_u, problem.grad_u, t, "u"),
        **oracle.per_norm_field_errors(fresh, state.phi_n, problem.exact_phi, problem.grad_phi, t, "phi"),
    }
    want["combined_l2"] = float(np.sqrt(want["err_u_l2"] ** 2 + want["err_phi_l2"] ** 2))
    for name, value in want.items():
        assert got[name] == value, name
        assert value > 0, name
    assert (got["tau"], got["N"]) == resolve_tau(config, space.mesh.h)


@pytest.mark.parametrize(("kind", "M"), [("tri", 98), ("quad", 130)])
def test_report_with_a_helper_thread_equals_the_per_norm_formulation_bit_for_bit(kind, M):
    # Both spaces have HELPER_ELEMENTS elements or more, so the second
    # element range is filled on the helper thread; 49 and 65 rows of
    # patches split into unequal ranges.
    problem = make_problem()
    space = FeSpace(build_mesh(M, kind))
    assert space.mesh.n_elements >= HELPER_ELEMENTS
    state = perturbed_state(space, problem)
    got = dataclasses.asdict(compute_error_report(space, state, problem, SchemeConfig("bdf2", M, kind)))
    fresh, t = FeSpace(build_mesh(M, kind)), state.t
    want = {
        **oracle.per_norm_field_errors(fresh, state.u_n, problem.exact_u, problem.grad_u, t, "u"),
        **oracle.per_norm_field_errors(fresh, state.phi_n, problem.exact_phi, problem.grad_phi, t, "phi"),
    }
    for name, value in want.items():
        assert got[name] == value, name


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_report_peaks_below_five_and_three_quarters_error_rule_arrays(kind):
    # tracemalloc sees numpy's allocations, on both threads.  Above the
    # tables, the report holds the three exact fields of one field and one
    # norm's integrand whole, and everything else in blocks of elements, two
    # blocks at a time.  At M=128 it peaked at 4.72 (tri) and 5.23 (quad)
    # such arrays; with whole FE and lifted fields it peaked at 8.35.
    problem = make_problem()
    space = FeSpace(build_mesh(128, kind))
    array_bytes = space.error_tables.wdet.nbytes
    state = perturbed_state(space, problem)
    tracemalloc.start()
    try:
        compute_error_report(space, state, problem, SchemeConfig("bdf2", 128, kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / array_bytes < 5.75


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
    compute_error_report(space, state, counting, config)
    assert calls == {"exact_u": 2, "exact_phi": 2, "grad_u": 1, "grad_phi": 1}


def test_a_report_below_the_helper_size_starts_no_thread():
    # tri M=32 has 2048 elements, one block of _CHUNK; tri M=64 has two
    # element ranges, both filled on the calling thread; tri M=92 has
    # HELPER_ELEMENTS or more, and the second range is filled on a helper.
    problem = make_problem()
    seen = []

    def grad_u(x, y, t):
        seen.append(threading.current_thread())
        return problem.grad_u(x, y, t)

    recording = dataclasses.replace(problem, grad_u=grad_u)
    for M, threads in ((32, 1), (64, 1), (92, 2)):
        space = FeSpace(build_mesh(M, "tri"))
        assert (space.mesh.n_elements <= _CHUNK) == (M == 32)
        assert (space.mesh.n_elements >= HELPER_ELEMENTS) == (M == 92)
        before = threading.enumerate()
        seen.clear()
        compute_error_report(space, perturbed_state(space, problem), recording, SchemeConfig("bdf2", M, "tri"))
        assert threading.current_thread() in seen
        assert len(set(seen)) == threads
        assert threading.enumerate() == before


def test_an_exact_field_that_fails_on_the_helpers_range_fails_its_run_as_a_serial_one():
    # grad_u refuses points above y = 0.75.  At M=8 the report evaluates it
    # in one block, on the calling thread; at M=92 the upper half of the
    # elements is the helper thread's range.  Both runs end as the same
    # RunFailure, and the conftest fixture checks that no thread is left.
    problem = make_problem()
    raised_on = []

    def grad_u(x, y, t):
        if np.any(y > 0.75):
            raised_on.append(threading.current_thread())
            raise ValueError("grad_u is not defined above y = 0.75")
        return problem.grad_u(x, y, t)

    runs = tuple(SchemeConfig("bdf2", M, "tri", tau_rule="fixed:0.5") for M in (8, 92))
    result = run_plan(ExperimentPlan("helper-failure", runs), dataclasses.replace(problem, grad_u=grad_u))
    assert result.reports == []
    serial, split = result.failures
    assert serial.message == split.message == "ValueError: grad_u is not defined above y = 0.75"
    assert str(split) == (
        "run failed: scheme=bdf2 elem=tri M=92 tau_rule=fixed:0.5: ValueError: grad_u is not defined above y = 0.75"
    )
    main = threading.main_thread()
    assert raised_on[0] is main and raised_on[-1] is not main


@pytest.mark.parametrize("case", ["lift M=8, space M=16", "fe M=8, exact M=16", "fe M=16, exact M=8"])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_norms_refuse_fields_of_another_space(kind, case):
    # A lift or an FE function of one mesh, with the exact fields of the
    # other.  The FE norms used to give a number for "fe M=8, exact M=16",
    # from the first rows of the exact values.  The lift reads its space's
    # error rule, so only exact fields can come from another space.
    problem = make_problem()
    coarse, fine = FeSpace(build_mesh(8, kind)), FeSpace(build_mesh(16, kind))
    field_space, exact_space = (fine, coarse) if case == "fe M=16, exact M=8" else (coarse, fine)
    values, grads = exact_fields(exact_space, problem.exact_u, problem.grad_u, 0.5)
    coeffs = interpolate_nodal(field_space, problem.exact_u, 0.5)
    want = rf"exact fields must have the error rule's shape \({field_space.mesh.n_elements}, "
    if case.startswith("lift"):
        h1 = partial(h1_error_postprocessed, i2h_postprocess(field_space, macroelements(field_space.mesh), coeffs))
    else:
        fe = FeEvaluation(field_space, coeffs)
        h1 = partial(h1_error, fe)
        with pytest.raises(ValueError, match=want):
            l2_error(fe, values)
    with pytest.raises(ValueError, match=want):
        h1(values, grads)
    own_values, own_grads = exact_fields(field_space, problem.exact_u, problem.grad_u, 0.5)
    with pytest.raises(ValueError, match=want):  # the partials are checked too
        h1(own_values, grads)
    assert h1(own_values, own_grads) > 0


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_a_problem_with_nan_errors_fails_its_runs(kind):
    # grad_u gives NaN: the two H1 errors that read it are not finite, and
    # each run fails with a ValueError that names them, instead of writing
    # nan into the CSV.
    problem = make_problem()
    nan_grad = dataclasses.replace(problem, grad_u=lambda x, y, t: (np.nan, np.nan))
    runs = tuple(SchemeConfig("bdf2", M, kind, tau_rule="fixed:0.5") for M in (8, 16))
    result = run_plan(ExperimentPlan("nan-grad", runs), nan_grad)
    assert result.reports == []
    assert [failure.message for failure in result.failures] == [
        "ValueError: final-time errors that are not finite: err_u_h1, superconv_u_h1"
    ] * 2
    assert result.csv_text.splitlines()[1:] == [f"# {failure}" for failure in result.failures]
