"""Quadrature rules: exactness on monomials against closed-form integrals."""

import math

import numpy as np
import pytest

from thermistor_fem.fem import _TRI_RULES, gauss_rule_square, gauss_rule_triangle


def square_monomial_integral(p, q):
    """Integral of x^p y^q over [-1, 1]^2."""

    def one_d(k):
        return 0.0 if k % 2 else 2.0 / (k + 1)

    return one_d(p) * one_d(q)


def triangle_monomial_integral(p, q):
    """Integral of x^p y^q over the triangle (0,0), (1,0), (0,1)."""
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


@pytest.mark.parametrize("n_1d", [2, 3, 4])
def test_square_rule_is_exact_to_degree(n_1d):
    rule = gauss_rule_square(n_1d)
    assert rule.weights.sum() == pytest.approx(4.0)
    assert np.all(np.abs(rule.points) <= 1.0)
    degree = 2 * n_1d - 1
    for p in range(degree + 1):
        for q in range(degree + 1):
            got = np.sum(rule.weights * rule.points[:, 0] ** p * rule.points[:, 1] ** q)
            assert got == pytest.approx(square_monomial_integral(p, q), abs=1e-13), (p, q)


@pytest.mark.parametrize("degree", [5, 6])
def test_triangle_rule_is_exact_to_degree(degree):
    rule = gauss_rule_triangle(degree)
    assert rule.weights.sum() == pytest.approx(0.5)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all((x >= 0) & (y >= 0) & (x + y <= 1 + 1e-14))
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            got = np.sum(rule.weights * x**p * y**q)
            assert got == pytest.approx(triangle_monomial_integral(p, q), abs=1e-13), (p, q)


def test_triangle_rule_sizes():
    assert gauss_rule_triangle(5).n_points == 7
    assert gauss_rule_triangle(6).n_points == 12


def tolerant_orbit(bary):
    """Distinct permutations of a barycentric triple, duplicates found to
    1e-14 with the first occurrence kept: the reference for the exact dedup."""
    seen = []
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
        p = tuple(bary[k] for k in perm)
        if not any(np.allclose(p, q, rtol=0, atol=1e-14) for q in seen):
            seen.append(p)
    return seen


@pytest.mark.parametrize("degree, n_points", [(5, 7), (6, 12)])
def test_triangle_rule_points_are_distinct_and_in_orbit_order(degree, n_points):
    # Exact dedup of the orbits gives the same points, in the same order, as
    # dedup to 1e-14: the tabulated triples repeat their values exactly.
    rule = gauss_rule_triangle(degree)
    assert rule.n_points == n_points
    assert len(np.unique(rule.points, axis=0)) == n_points
    want_pts, want_wts = [], []
    for w, bary in _TRI_RULES[degree]:
        for b in tolerant_orbit(bary):
            want_pts.append((b[1], b[2]))
            want_wts.append(w * 0.5)
    assert np.array_equal(rule.points, np.array(want_pts))
    assert np.array_equal(rule.weights, np.array(want_wts))


def test_triangle_rule_rejects_unknown_degree():
    with pytest.raises(ValueError):
        gauss_rule_triangle(9)
