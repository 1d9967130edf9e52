"""Conjugate-gradient solver and prepared Dirichlet systems."""

import numpy as np
import pytest
import scipy.sparse as sp

from thermistor_fem import (
    DirichletSystem,
    FeSpace,
    NoConvergence,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_mesh,
    solve_spd,
)


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B @ B.T + n * np.eye(n))


def test_solve_spd_matches_dense_solver():
    A = random_spd(40, seed=1)
    b = np.random.default_rng(2).standard_normal(40)
    x = solve_spd(A, b, tol=1e-14)
    want = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - want).max() < 1e-10


def test_solve_spd_zero_rhs_returns_zero():
    A = random_spd(10, seed=3)
    x = solve_spd(A, np.zeros(10))
    assert x.shape == (10,)
    assert np.all(x == 0.0)


def test_solve_spd_rejects_nonpositive_diagonal():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NoConvergence):
        solve_spd(A, np.ones(2))


def test_solve_spd_rejects_indefinite_matrix():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(NoConvergence):
        solve_spd(A, np.array([1.0, -1.0]))


def test_solve_spd_is_deterministic():
    A = random_spd(25, seed=4)
    b = np.random.default_rng(5).standard_normal(25)
    x1 = solve_spd(A, b)
    x2 = solve_spd(A, b)
    assert np.array_equal(x1, x2)


@pytest.fixture(params=["tri", "quad"])
def space(request):
    return FeSpace(build_mesh(6, request.param))


def test_dirichlet_system_direct_and_cg_agree(space):
    A = assemble_mass(space) + assemble_stiffness(space)
    b = assemble_load(space, lambda x, y: np.sin(x + 2 * y))
    g = np.cos(space.mesh.nodes[space.boundary_dofs, 0])
    direct = DirichletSystem(space, A, method="direct").solve(b, g)
    cg = DirichletSystem(space, A, method="cg").solve(b, g)
    assert np.abs(direct[space.boundary_dofs] - g).max() == 0.0
    assert np.abs(direct - cg).max() < 1e-10


def test_dirichlet_system_residual_is_small_at_solution(space):
    A = assemble_stiffness(space)
    b = assemble_load(space, lambda x, y: 1.0)
    system = DirichletSystem(space, A)
    x = system.solve(b, np.zeros(space.boundary_dofs.size))
    assert system.residual(x, b) < 1e-12
    x_bad = x + 1e-3
    x_bad[space.boundary_dofs] = 0.0
    assert system.residual(x_bad, b) > 1e-6


def test_dirichlet_system_rejects_unknown_method(space):
    A = assemble_stiffness(space)
    with pytest.raises(ValueError):
        DirichletSystem(space, A, method="gmres")
