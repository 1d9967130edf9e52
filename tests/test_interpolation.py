"""Nodal interpolation, discrete norms, error integrals, and the EOC helper."""

import numpy as np
import pytest

import _dense_oracle as oracle
from thermistor_fem import (
    FeEvaluation,
    FeSpace,
    build_mesh,
    eoc,
    fe_h1_norm,
    fe_l2_norm,
    h1_error,
    interpolate_nodal,
    l2_error,
)
from thermistor_fem.analysis import convergence_order
from thermistor_fem.manufactured import exact_u, grad_u


@pytest.fixture(params=["tri", "quad"])
def space(request):
    return FeSpace(build_mesh(8, request.param))


def at_error_points(space, f, t):
    """``f(x, y, t)`` at the points of the space's error rule."""
    tb = space.error_tables
    return f(tb.x[..., 0], tb.x[..., 1], t)


def test_interpolate_nodal_evaluates_at_nodes(space):
    field = lambda x, y, t: x + 10.0 * y + t  # noqa: E731
    got = interpolate_nodal(space, field, 0.25)
    nodes = space.mesh.nodes
    assert np.array_equal(got, nodes[:, 0] + 10.0 * nodes[:, 1] + 0.25)
    # A field that returns a scalar is broadcast to the nodes.
    assert np.array_equal(interpolate_nodal(space, lambda x, y, t: 2.5, 0.0), np.full(len(nodes), 2.5))


def test_functions_in_the_fe_space_interpolate_exactly(space):
    # Linears lie in both spaces; the bilinear term only in the quad space.
    if space.mesh.elem_kind == "quad":
        f = lambda x, y, t: 1.0 + 2.0 * x - y + 3.0 * x * y  # noqa: E731
        g = lambda x, y, t: (2.0 + 3.0 * y, -1.0 + 3.0 * x)  # noqa: E731
    else:
        f = lambda x, y, t: 1.0 + 2.0 * x - y  # noqa: E731
        g = lambda x, y, t: (  # noqa: E731
            np.full_like(np.asarray(x, dtype=float), 2.0),
            np.full_like(np.asarray(x, dtype=float), -1.0),
        )
    fe = FeEvaluation(space, interpolate_nodal(space, f, 0.0))
    values = at_error_points(space, f, 0.0)
    assert l2_error(fe, values) < 1e-14
    assert h1_error(fe, values, at_error_points(space, g, 0.0)) < 1e-13


def test_fe_norms_match_dense_matrices(space):
    # ||v_h||_0^2 = c^T M c and |v_h|_1^2 = c^T K c hold exactly because the
    # quadrature is exact for products of basis functions.
    rng = np.random.default_rng(11)
    c = rng.standard_normal(space.n_dofs)
    M = oracle.dense_mass(space.mesh.nodes, space.mesh.elements)
    K = oracle.dense_stiffness(space.mesh.nodes, space.mesh.elements)
    fe = FeEvaluation(space, c)
    assert fe_l2_norm(fe) == pytest.approx(np.sqrt(c @ M @ c), rel=1e-13)
    assert fe_h1_norm(fe) == pytest.approx(np.sqrt(c @ (M + K) @ c), rel=1e-13)


def test_error_against_zero_is_the_norm(space):
    rng = np.random.default_rng(12)
    c = rng.standard_normal(space.n_dofs)
    zero = lambda x, y, t: np.zeros_like(x)  # noqa: E731
    zero_grad = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))  # noqa: E731
    fe = FeEvaluation(space, c)
    values, grads = at_error_points(space, zero, 0.0), at_error_points(space, zero_grad, 0.0)
    assert l2_error(fe, values) == pytest.approx(fe_l2_norm(fe), rel=1e-14)
    assert h1_error(fe, values, grads) == pytest.approx(fe_h1_norm(FeEvaluation(space, c)), rel=1e-14)


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_interpolant_converges_at_the_expected_orders(kind):
    t = 0.3
    rows_l2, rows_h1 = [], []
    for M in (8, 16, 32, 64):
        space = FeSpace(build_mesh(M, kind))
        fe = FeEvaluation(space, interpolate_nodal(space, exact_u, t))
        values = at_error_points(space, exact_u, t)
        rows_l2.append((space.mesh.h, l2_error(fe, values)))
        rows_h1.append((space.mesh.h, h1_error(fe, values, at_error_points(space, grad_u, t))))
    for order in eoc(rows_l2):
        assert order == pytest.approx(2.0, abs=0.05)
    for order in eoc(rows_h1):
        assert order == pytest.approx(1.0, abs=0.05)


def test_eoc_computes_log_ratios():
    got = eoc([(1.0, 1.0), (0.5, 0.25), (0.25, 0.0625)])
    assert got == pytest.approx([2.0, 2.0], abs=1e-14)


def test_eoc_rejects_bad_input():
    with pytest.raises(ValueError):
        eoc([(1.0, 1.0)])
    with pytest.raises(ValueError):
        eoc([(1.0, 1.0), (0.5, 0.0)])
    with pytest.raises(ValueError):
        eoc([(0.5, 1.0), (1.0, 0.5)])
    nan, inf = float("nan"), float("inf")
    for pairs in (
        [(1.0, nan), (0.5, 1.0)],
        [(1.0, 1.0), (0.5, nan)],
        [(1.0, inf), (0.5, 1.0)],
        [(1.0, 1.0), (0.5, inf)],
        [(nan, 1.0), (0.5, 1.0)],
        [(1.0, 1.0), (nan, 0.5)],
        [(1.0, 1.0), (0.0, 0.5)],
        [(inf, 1.0), (0.5, 0.5)],
    ):
        with pytest.raises(ValueError):
            eoc(pairs)


def test_convergence_order_divides_by_the_log_of_the_ratio():
    # log(9) / log(3) by hand: at a ratio of 3 the order of 1 -> 1/9 is 2.
    assert convergence_order(1.0, 1 / 9, 3.0) == 2.0


@pytest.mark.filterwarnings("error")  # no divide-by-zero warning either
def test_convergence_order_is_nan_unless_both_errors_are_positive_and_finite():
    assert convergence_order(1.0, 0.25, 2.0) == pytest.approx(2.0, abs=1e-14)
    nan, inf = float("nan"), float("inf")
    for e_coarse, e_fine in ((1.0, inf), (inf, 1.0), (inf, inf), (-inf, 1.0), (1.0, 0.0), (nan, 1.0), (1.0, -1.0)):
        assert np.isnan(convergence_order(e_coarse, e_fine, 2.0)), (e_coarse, e_fine)
