"""Assembly of mass/stiffness/load operators against the dense oracle and
hand-derived identities."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense_oracle as oracle
from thermistor_fem import (
    ConductivityNotPositive,
    DirichletSystem,
    FeSpace,
    SchemeConfig,
    assemble_joule_load,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_stiffness,
    build_mesh,
    validate_config,
)
from thermistor_fem.fem import _shape_quad, _shape_tri


@pytest.fixture(params=["tri", "quad"])
def space(request):
    return FeSpace(build_mesh(4, request.param))


def test_mass_matrix_matches_dense_oracle(space):
    got = assemble_mass(space).toarray()
    want = oracle.dense_mass(space.mesh.nodes, space.mesh.elements)
    assert np.abs(got - want).max() < 1e-14


def test_stiffness_matrix_matches_dense_oracle(space):
    got = assemble_stiffness(space).toarray()
    want = oracle.dense_stiffness(space.mesh.nodes, space.mesh.elements)
    assert np.abs(got - want).max() < 1e-13


def test_mass_total_is_domain_area(space):
    assert assemble_mass(space).sum() == pytest.approx(1.0, abs=1e-14)


def test_stiffness_rows_sum_to_zero(space):
    row_sums = np.asarray(assemble_stiffness(space).sum(axis=1)).ravel()
    assert np.abs(row_sums).max() < 1e-13


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    half_M=st.integers(1, 12),
    kind=st.sampled_from(["tri", "quad"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stiffness_matrices_are_symmetric_with_zero_row_sums(half_M, kind, seed):
    # Constants lie in the kernel of every (weighted) stiffness matrix, and
    # the bilinear forms are symmetric, whatever the conductivity in (1, 2].
    space = FeSpace(build_mesh(2 * half_M, kind))
    sigma = 2.0 - np.random.default_rng(seed).uniform(0.0, 1.0, space.tables.wdet.shape)
    for A in (assemble_stiffness(space), assemble_weighted_stiffness(space, sigma)):
        bound = 1e-12 * abs(A).max()
        assert abs(A - A.T).max() <= bound
        assert np.abs(np.asarray(A.sum(axis=1))).max() <= bound


def test_interior_stiffness_stencil_on_triangles():
    # On the uniform right-triangle mesh the P1 Laplacian reduces to the
    # classical five-point stencil: diagonal 4, four axis neighbours -1,
    # and exact zeros across the diagonal neighbours.
    M = 4
    space = FeSpace(build_mesh(M, "tri"))
    K = assemble_stiffness(space).toarray()
    center = 2 * (M + 1) + 2  # node (2, 2)
    assert K[center, center] == pytest.approx(4.0, abs=1e-14)
    for neighbour in (center - 1, center + 1, center - (M + 1), center + (M + 1)):
        assert K[center, neighbour] == pytest.approx(-1.0, abs=1e-14)
    # diagonal-coupled lattice neighbours drop out
    assert K[center, center + (M + 1) - 1] == pytest.approx(0.0, abs=1e-14)
    assert K[center, center - (M + 1) + 1] == pytest.approx(0.0, abs=1e-14)


def test_weighted_stiffness_with_unit_weight_equals_stiffness(space):
    ones = np.ones_like(space.tables.wdet)
    diff = (assemble_weighted_stiffness(space, ones) - assemble_stiffness(space)).toarray()
    assert np.abs(diff).max() < 1e-14


def test_weighted_stiffness_matches_dense_oracle(space):
    weight = lambda x, y: 1.5 + np.sin(2 * x) * np.cos(y)  # noqa: E731
    sigma = weight(space.tables.x[..., 0], space.tables.x[..., 1])
    got = assemble_weighted_stiffness(space, sigma).toarray()
    want = oracle.dense_stiffness(space.mesh.nodes, space.mesh.elements, weight)
    assert np.abs(got - want).max() < 1e-13


def test_weighted_stiffness_rejects_nonpositive_coefficient(space):
    sigma = np.ones_like(space.tables.wdet)
    sigma[0, 0] = 0.0
    with pytest.raises(ConductivityNotPositive):
        assemble_weighted_stiffness(space, sigma)
    with pytest.raises(ConductivityNotPositive):
        assemble_weighted_stiffness(space, -np.ones_like(space.tables.wdet))
    sigma[0, 0] = np.nan  # NaN fails the floor comparison too
    with pytest.raises(ConductivityNotPositive):
        assemble_weighted_stiffness(space, sigma)


def test_weighted_stiffness_rejects_wrong_shape(space):
    with pytest.raises(ValueError):
        assemble_weighted_stiffness(space, np.ones(7))


def test_load_vector_matches_dense_oracle(space):
    f = lambda x, y: np.cos(3.0 * x - y) + x * y  # noqa: E731
    got = assemble_load(space, f)
    want = oracle.dense_load(space.mesh.nodes, space.mesh.elements, f)
    assert np.abs(got - want).max() < 1e-14


def test_constant_load_sums_to_area(space):
    b = assemble_load(space, lambda x, y: 1.0)
    assert b.sum() == pytest.approx(1.0, abs=1e-14)


def test_joule_load_matches_dense_oracle(space):
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(space.n_dofs)
    sigma = 1.0 + space.tables.x[..., 0] ** 2
    got = assemble_joule_load(space, sigma, phi)

    nodes, elements = space.mesh.nodes, space.mesh.elements
    want = np.zeros(space.n_dofs)
    for elem in elements:
        pts, wts, values, gradients = oracle._element_quadrature(nodes, elem)
        for (x, y), w in zip(pts, wts):
            g = oracle.fe_grad(nodes, list(elem), phi, x, y)
            want[list(elem)] += w * (1.0 + x**2) * float(g @ g) * values(x, y)
    assert np.abs(got - want).max() < 1e-13


def test_dirichlet_elimination_reproduces_linear_solution(space):
    # u(x, y) = 2x - 3y + 1 is harmonic and lies in the FE space, so the
    # discrete Poisson solution must equal its nodal values exactly.
    exact = lambda x, y: 2.0 * x - 3.0 * y + 1.0  # noqa: E731
    system = DirichletSystem(space, assemble_stiffness(space), "cg")
    xb = space.mesh.nodes[space.boundary_dofs]
    full = system.solve(np.zeros(space.n_dofs), exact(xb[:, 0], xb[:, 1]))
    want = exact(space.mesh.nodes[:, 0], space.mesh.nodes[:, 1])
    assert np.abs(full - want).max() < 1e-10


def test_dirichlet_system_rejects_wrong_boundary_length(space):
    system = DirichletSystem(space, assemble_stiffness(space), "cg")
    with pytest.raises(ValueError):
        system.solve(np.zeros(space.n_dofs), np.zeros(3))


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_space_rejects_inverted_elements(kind):
    mesh = build_mesh(4, kind)
    with pytest.raises(ValueError, match="degenerate or inverted"):
        FeSpace(replace(mesh, nodes=mesh.nodes * [-1.0, 1.0]))


@pytest.mark.parametrize("points", [dict(assembly_points=2), dict(error_points=2), dict(error_points=1)])
def test_quad_space_rejects_gauss_rules_below_three_points(points):
    # Coarser rules than degree 5 shift the reported errors (at bdf2, M=8,
    # error_points=2 moved superconv_u_h1 from 6.98e-3 to 6.77e-3).
    with pytest.raises(ValueError, match="at least 3 points"):
        FeSpace(build_mesh(4, "quad"), **points)


@pytest.mark.parametrize("points", [dict(assembly_points=0), dict(error_points=0)])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_space_rejects_empty_rules(kind, points):
    with pytest.raises(ValueError, match="positive integer"):
        FeSpace(build_mesh(4, kind), **points)


@pytest.mark.parametrize("name", ["assembly_points", "error_points"])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_space_and_validate_config_accept_the_same_rules(kind, name):
    mesh = build_mesh(2, kind)
    for size in (None, *range(8)):
        config = SchemeConfig("bdf2", 2, kind, tau_rule="fixed:0.5", **{name: size})
        try:
            validate_config(config)
        except ValueError:
            with pytest.raises(ValueError):
                FeSpace(mesh, **{name: size})
        else:
            FeSpace(mesh, **{name: size})


def test_three_point_quad_rules_and_triangle_rules_are_accepted():
    space = FeSpace(build_mesh(4, "quad"), assembly_points=3, error_points=3)
    assert space.tables.wdet.shape == space.error_tables.wdet.shape == (16, 9)
    FeSpace(build_mesh(4, "tri"), assembly_points=5, error_points=5)


def einsum_tables(mesh, rule):
    """``grad``, ``wdet`` and ``x`` of a rule, written as the einsum formulas
    that the node-by-node sums of the table build must reproduce."""
    shape = _shape_quad if mesh.elem_kind == "quad" else _shape_tri
    N, dN = shape(rule.points)
    coords = mesh.nodes[mesh.elements]
    J = np.einsum("qib,eia->eqab", dN, coords)
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 0, 1]
    inv[..., 1, 0] = -J[..., 1, 0]
    inv[..., 1, 1] = J[..., 0, 0]
    inv /= detJ[..., None, None]
    grad = np.einsum("eqba,qib->eqia", inv, dN)
    return grad, rule.weights[None, :] * detJ, np.einsum("qi,eia->eqa", N, coords)


@pytest.mark.parametrize("M", [2, 8, 64])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_tables_equal_the_einsum_formulas_bit_for_bit(kind, M):
    space = FeSpace(build_mesh(M, kind))
    for tb in (space.tables, space.error_tables):
        grad, wdet, x = einsum_tables(space.mesh, tb.rule)
        assert np.array_equal(tb.grad, grad)
        assert np.array_equal(tb.wdet, wdet)
        assert np.array_equal(tb.x, x)
