"""High-precision verification of the manufactured solution.

The closed-form sources ``f1``/``f2`` are checked against the governing
equations themselves: all derivatives are recomputed symbol-free with
``mpmath`` at 50 digits, so an algebra slip in the hand-derived sources of
size above 1e-9 cannot pass.
"""

import mpmath as mp
import numpy as np
import pytest

import _dense_oracle as oracle
from thermistor_fem import FeSpace, build_mesh, make_problem
from thermistor_fem.manufactured import (
    exact_phi,
    exact_u,
    grad_phi,
    grad_u,
    sigma,
    sigma_prime,
    source_f1,
    source_f2,
)

mp.mp.dps = 50

TIMES = (0.0, 0.37, 1.0)


def mp_u(x, y, t):
    return mp.e ** (-2 * t) * mp.sin(mp.pi * x) * mp.sin(mp.pi * y)


def mp_phi(x, y, t):
    return 1 + mp.sin(x + y + t)


def mp_sigma(s):
    return 1 / (1 + s * s) + 1


def sample_points(n=12, seed=20):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, 0.95, size=(n, 2))
    return [(mp.mpf(float(x)), mp.mpf(float(y))) for x, y in pts]


POINTS = sample_points()


def test_sigma_is_bounded_between_one_and_two():
    s = np.linspace(-50.0, 50.0, 2001)
    vals = sigma(s)
    assert np.all(vals > 1.0)
    assert np.all(vals <= 2.0)
    assert sigma(0.0) == 2.0
    assert sigma(1e8) == pytest.approx(1.0, abs=1e-15)


def test_sigma_prime_matches_high_precision_derivative():
    for s in (-3.0, -0.5, 0.0, 0.25, 1.0, 7.0):
        want = mp.diff(mp_sigma, mp.mpf(s))
        assert abs(sigma_prime(s) - float(want)) < 1e-12


def test_temperature_vanishes_on_the_boundary():
    line = np.linspace(0.0, 1.0, 101)
    for t in TIMES:
        for edge in (
            exact_u(line, 0.0, t),
            exact_u(line, 1.0, t),
            exact_u(0.0, line, t),
            exact_u(1.0, line, t),
        ):
            assert np.abs(edge).max() < 1e-15


@pytest.mark.parametrize("t", TIMES)
def test_gradients_match_high_precision_partials(t):
    tm = mp.mpf(t)
    for x, y in POINTS:
        ux = mp.diff(lambda s: mp_u(s, y, tm), x)
        uy = mp.diff(lambda s: mp_u(x, s, tm), y)
        gx, gy = grad_u(float(x), float(y), t)
        assert abs(gx - float(ux)) < 1e-12
        assert abs(gy - float(uy)) < 1e-12

        px = mp.diff(lambda s: mp_phi(s, y, tm), x)
        py = mp.diff(lambda s: mp_phi(x, s, tm), y)
        qx, qy = grad_phi(float(x), float(y), t)
        assert abs(qx - float(px)) < 1e-12
        assert abs(qy - float(py)) < 1e-12


@pytest.mark.parametrize("t", TIMES)
def test_heat_source_satisfies_the_heat_equation(t):
    # f1 must equal u_t - Laplace(u) - sigma(u) |grad phi|^2 exactly.
    tm = mp.mpf(t)
    for x, y in POINTS:
        u_t = mp.diff(lambda s: mp_u(x, y, s), tm)
        u_xx = mp.diff(lambda s: mp_u(s, y, tm), x, 2)
        u_yy = mp.diff(lambda s: mp_u(x, s, tm), y, 2)
        p_x = mp.diff(lambda s: mp_phi(s, y, tm), x)
        p_y = mp.diff(lambda s: mp_phi(x, s, tm), y)
        want = u_t - (u_xx + u_yy) - mp_sigma(mp_u(x, y, tm)) * (p_x**2 + p_y**2)
        got = source_f1(float(x), float(y), t)
        assert abs(got - float(want)) < 1e-9


@pytest.mark.parametrize("t", TIMES)
def test_potential_source_satisfies_the_potential_equation(t):
    # f2 must equal -div(sigma(u) grad phi) exactly.
    tm = mp.mpf(t)
    for x, y in POINTS:
        flux_x = lambda s: mp_sigma(mp_u(s, y, tm)) * mp.diff(  # noqa: E731
            lambda r: mp_phi(r, y, tm), s
        )
        flux_y = lambda s: mp_sigma(mp_u(x, s, tm)) * mp.diff(  # noqa: E731
            lambda r: mp_phi(x, r, tm), s
        )
        want = -(mp.diff(flux_x, x) + mp.diff(flux_y, y))
        got = source_f2(float(x), float(y), t)
        assert abs(got - float(want)) < 1e-9


@pytest.mark.parametrize("t", TIMES)
def test_exact_fields_are_internally_consistent(t):
    x = np.array([0.21, 0.68])
    y = np.array([0.43, 0.9])
    # The closed forms the sources are built from.
    u = exact_u(x, y, t)
    fields = {
        "u_t": -2.0 * u,
        "lap_u": -2.0 * np.pi**2 * u,
        "lap_phi": -2.0 * np.sin(x + y + t),
    }
    # Time derivative and Laplacians via mpmath partials
    for i in range(2):
        xm, ym, tm = mp.mpf(float(x[i])), mp.mpf(float(y[i])), mp.mpf(t)
        u_t = mp.diff(lambda s: mp_u(xm, ym, s), tm)
        assert abs(fields["u_t"][i] - float(u_t)) < 1e-12
        lap_u = mp.diff(lambda s: mp_u(s, ym, tm), xm, 2) + mp.diff(
            lambda s: mp_u(xm, s, tm), ym, 2
        )
        lap_phi = mp.diff(lambda s: mp_phi(s, ym, tm), xm, 2) + mp.diff(
            lambda s: mp_phi(xm, s, tm), ym, 2
        )
        assert abs(fields["lap_u"][i] - float(lap_u)) < 1e-10
        assert abs(fields["lap_phi"][i] - float(lap_phi)) < 1e-12


def test_potential_source_equals_its_one_expression_form_bit_for_bit():
    tb = FeSpace(build_mesh(10, "tri")).error_tables
    x, y = tb.x[..., 0], tb.x[..., 1]
    grid = np.meshgrid(np.linspace(-2.0, 3.0, 41), np.linspace(-1.0, 2.0, 37))
    for t in (0.0, 0.1, 0.37, 1.0):
        assert np.array_equal(source_f2(x, y, t), oracle.source_f2_formula(x, y, t))
        assert np.array_equal(source_f2(*grid, t), oracle.source_f2_formula(*grid, t))
        got = source_f2(0.3, 0.7, t)
        assert np.ndim(got) == 0 and got == oracle.source_f2_formula(0.3, 0.7, t)


def test_make_problem_bundles_the_manufactured_data():
    problem = make_problem()
    assert problem.sigma is sigma
    assert problem.f1 is source_f1
    assert problem.f2 is source_f2
    assert problem.exact_u is exact_u
    assert problem.exact_phi is exact_phi
    x, y = 0.3, 0.7
    assert problem.exact_u(x, y, 0.5) == exact_u(x, y, 0.5)
    assert problem.exact_phi(x, y, 0.5) == exact_phi(x, y, 0.5)
