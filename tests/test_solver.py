"""Conjugate-gradient solver and prepared Dirichlet systems."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import _dense_oracle as oracle
from thermistor_fem import FeSpace, NoConvergence, build_mesh, interpolate_nodal, make_problem
from thermistor_fem import fem
from thermistor_fem.fem import (
    DirichletSystem,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_stiffness,
    solve_spd,
)
from thermistor_fem.schemes import OperatorCache


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B @ B.T + n * np.eye(n))


class CountingMatrix:
    """A sparse matrix that counts its products with vectors."""

    def __init__(self, A):
        self.A = sp.csr_matrix(A)
        self.shape = self.A.shape
        self.products = 0

    def diagonal(self):
        return self.A.diagonal()

    def __matmul__(self, p):
        self.products += 1
        return self.A @ p


def test_solve_spd_matches_dense_solver():
    A = random_spd(40, seed=1)
    b = np.random.default_rng(2).standard_normal(40)
    x = solve_spd(A, b)
    want = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - want).max() < 1e-10


def reduced_systems(M, kind):
    """The reduced potential and heat systems of one bdf2 step at t = 0.5."""
    space = FeSpace(build_mesh(M, kind))
    problem = make_problem()
    t = 0.5
    u = interpolate_nodal(space, problem.exact_u, t)
    potential = DirichletSystem(
        space, assemble_weighted_stiffness(space, problem.sigma(space.values_at_quad(u))), "cg"
    )
    xb = space.mesh.nodes[space.boundary_dofs]
    g = problem.exact_phi(xb[:, 0], xb[:, 1], t)
    b_phi = assemble_load(space, lambda x, y: problem.f2(x, y, t))
    b_phi = b_phi[space.interior_dofs] - potential.A_ib @ g
    heat = OperatorCache(space, problem, "cg").heat_system(3 / (2 * 0.1))
    b_u = assemble_load(space, lambda x, y: problem.f1(x, y, t))[space.interior_dofs]
    return {"potential": (potential.A_red, b_phi), "heat": (heat.A_red, b_u)}


@pytest.mark.parametrize("M", [6, 10, 64])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_solve_spd_is_the_reference_jacobi_cg_bit_for_bit(kind, M):
    for name, (A, b) in reduced_systems(M, kind).items():
        assert np.array_equal(solve_spd(A, b), oracle.jacobi_cg(A, b)), name


@pytest.mark.parametrize("n, seed", [(40, 1), (10, 3), (25, 4)])
def test_solve_spd_is_the_reference_jacobi_cg_on_random_matrices(n, seed):
    A = random_spd(n, seed)
    b = np.random.default_rng(seed + 1).standard_normal(n)
    assert np.array_equal(solve_spd(A, b), oracle.jacobi_cg(A, b))


def nan_off_diagonal(n):
    A = sp.diags(np.arange(1.0, n + 1.0)).tolil()
    A[7, 8] = A[8, 7] = np.nan
    return A


@pytest.mark.parametrize(
    "A, b",
    [
        ([[1.0, 1.0], [1.0, 1.0]], np.array([1.0, -1.0])),  # p . Ap = 0
        (nan_off_diagonal(1000), np.ones(1000)),  # p . Ap is NaN
    ],
    ids=["zero-curvature", "nan-matrix"],
)
def test_solve_spd_stops_at_the_first_breakdown(A, b):
    A = CountingMatrix(A)
    with pytest.raises(NoConvergence, match="broke down"):
        solve_spd(A, b)
    assert A.products == 1


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_solve_spd_refuses_a_load_that_is_not_finite(bad):
    # An inf load made the stop test ``inf <= inf`` before the first
    # iteration, and the solve returned zeros; a NaN load broke down as
    # "matrix not SPD".  Both are refused before the loop, in the words of
    # `DirichletSystem.solve`.
    A = CountingMatrix(sp.diags(np.full(5, 2.0)))
    b = np.ones(5)
    b[2] = bad
    with pytest.raises(NoConvergence, match="^the reduced load has non-finite values$"):
        solve_spd(A, b)
    assert A.products == 0


def test_solve_spd_raises_at_the_iteration_cap():
    # Hilbert(12), condition number ~1e16: the residual never reaches 1e-12.
    A = sp.csr_matrix(scipy.linalg.hilbert(12))
    with pytest.raises(NoConvergence, match="did not converge in 600 iterations"):
        solve_spd(A, np.ones(12))


def test_solve_spd_stops_at_a_cap_that_grows_like_m():
    # A wrong kernel that keeps positive curvature: the tri M=64 potential
    # matrix plus a skew part, so p . Ap is unchanged but CG cannot converge.
    # It runs to its cap, 200 isqrt(n) products for 63^2 unknowns, not 50 n.
    # (With CG_RTOL = 0 the SPD matrix itself runs to the same cap, but its
    # residual sinks into subnormal numbers, which makes each product slow.)
    A, b = reduced_systems(64, "tri")["potential"]
    cap = 200 * math.isqrt(b.size)
    assert cap == 12_600 < 50 * b.size
    upper = sp.triu(A, 1)
    A = CountingMatrix(A + (upper - upper.T))
    with pytest.raises(NoConvergence, match=f"did not converge in {cap} iterations"):
        solve_spd(A, b)
    assert A.products == cap


def test_solve_spd_returns_once_the_residual_is_exactly_zero(monkeypatch):
    # Jacobi CG solves a diagonal system of powers of two in one step, to an
    # exactly zero residual.  With no tolerance left, that is still the
    # answer, not a breakdown that calls the SPD matrix "not SPD".
    monkeypatch.setattr(fem, "CG_RTOL", 0.0)
    A = CountingMatrix(sp.diags([2.0, 4.0, 8.0]))
    assert np.array_equal(solve_spd(A, np.array([1.0, 3.0, 5.0])), [0.5, 0.75, 0.625])
    assert A.products == 1


@pytest.mark.parametrize("power", [-515, -530])
def test_solve_spd_solves_a_tiny_load_as_the_scaled_unit_load(power):
    # At 2**-515 (about 1e-155) and 2**-530 the squares of the residual
    # underflow to zero, and so would ``p . Ap``, which reads as "not SPD".
    # Run on the load scaled by a power of two, the loop is the unscaled one.
    A, b = reduced_systems(16, "tri")["potential"]
    assert np.array_equal(solve_spd(A, np.ldexp(b, power)), np.ldexp(solve_spd(A, b), power))


def test_solve_spd_zero_rhs_returns_zero():
    A = random_spd(10, seed=3)
    x = solve_spd(A, np.zeros(10))
    assert x.shape == (10,)
    assert np.all(x == 0.0)


def test_solve_spd_answers_a_zero_load_with_a_zero_of_its_own():
    # The answer is a new array: the caller's load must not come back (a
    # write to the answer would change it), nor its signed zeros.
    A = random_spd(3, seed=3)
    b = np.array([0.0, -0.0, 0.0])
    x = solve_spd(A, b)
    assert not np.shares_memory(x, b)
    assert not np.any(np.signbit(x))
    x[:] = 1.0
    assert np.all(b == 0.0) and np.signbit(b[1])


def test_solve_spd_rejects_nonpositive_diagonal():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NoConvergence):
        solve_spd(A, np.ones(2))


def test_solve_spd_rejects_nonpositive_diagonal_under_a_zero_load():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NoConvergence, match="non-positive diagonal"):
        solve_spd(A, np.zeros(2))


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


THREAD_COUNT_SCRIPT = """
import hashlib
from test_solver import reduced_systems
from thermistor_fem import ExperimentPlan, SchemeConfig, run_plan
from thermistor_fem.fem import solve_spd

A, b = reduced_systems(160, "quad")["potential"]
print(hashlib.sha256(solve_spd(A, b).tobytes()).hexdigest())
config = SchemeConfig("bdf2", 128, "quad", T=0.5, tau_rule="fixed:0.25", solver="cg")
print(hashlib.sha256(run_plan(ExperimentPlan("threads", (config,))).csv_text.encode()).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs at most one thread per CPU")
def test_cg_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product across its threads, and the order of
    # the partial sums follows their number.  The quad M=160 system has
    # 25,281 unknowns and the M=128 run 16,129: both long enough to split.
    lines = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_COUNT_SCRIPT],
            cwd=Path(__file__).parent,
            env=os.environ | {"OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout.split())
    assert len(lines[0]) == 2
    assert lines[0] == lines[1]


@pytest.fixture
def factors(monkeypatch):
    """Every factor made through ``fem.spla.splu``, in order."""
    made = []
    real_splu = fem.spla.splu

    def splu(*args, **kwargs):
        made.append(real_splu(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(fem.spla, "splu", splu)
    return made


def lu_arrays(lu):
    """The row pivots and the index and value arrays of L and U."""
    return [lu.perm_r] + [getattr(F, name) for F in (lu.L, lu.U) for name in ("indptr", "indices", "data")]


@pytest.mark.parametrize("M", [8, 34, 64])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_factorizations_in_the_first_column_order_equal_fresh_ones(kind, M, factors):
    # A potential, then a heat matrix, then another potential on one space:
    # the first factorization chooses the column order (COLAMD), the others
    # reuse it.  Each factor and solve equals that of a fresh factorization.
    space = FeSpace(build_mesh(M, kind))
    problem = make_problem()
    ops = OperatorCache(space, problem)

    def potential(t):
        u = interpolate_nodal(space, problem.exact_u, t)
        return assemble_weighted_stiffness(space, problem.sigma(space.values_at_quad(u)))

    heat = space.pattern.matrix(15.0 * ops.mass.data + ops.stiffness.data)
    b = assemble_load(space, lambda x, y: np.sin(x + 2 * y))
    g = np.cos(space.mesh.nodes[space.boundary_dofs, 0])
    for A in (potential(0.3), heat, potential(0.6)):
        system = DirichletSystem(space, A)
        fresh = DirichletSystem(FeSpace(build_mesh(M, kind)), A)
        for got, want in zip(lu_arrays(factors[-2]), lu_arrays(factors[-1])):
            assert np.array_equal(got, want)
        assert np.array_equal(system.solve(b, g)[0], fresh.solve(b, g)[0])


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_a_space_keeps_the_column_order_alone(kind):
    # What the first factorization leaves on the pattern is its column order
    # and the inverse: no per-nonzero map that outlives the factor.
    space = FeSpace(build_mesh(8, kind))
    DirichletSystem(space, assemble_stiffness(space))
    n = space.interior_dofs.size
    kept = space.pattern._columns
    assert all(isinstance(a, np.ndarray) and a.size <= n for a in kept)
    assert np.array_equal(np.sort(kept[0]), np.arange(n)) and np.array_equal(kept[1][kept[0]], np.arange(n))


def test_a_factor_is_freed_with_its_system(factors):
    # The space keeps the first factor's column order for later ones; what it
    # keeps must not hold that factor (``perm_c``'s base is the factor).
    space = FeSpace(build_mesh(8, "tri"))
    for A in (assemble_stiffness(space), assemble_mass(space) + assemble_stiffness(space)):
        DirichletSystem(space, A).solve(assemble_load(space, lambda x, y: 1.0), np.zeros(space.boundary_dofs.size))
    held_by_a_list_alone = [object()]
    assert [sys.getrefcount(lu) for lu in factors] == [sys.getrefcount(o) for o in held_by_a_list_alone] * 2


@pytest.fixture(params=["tri", "quad"])
def space(request):
    return FeSpace(build_mesh(6, request.param))


def test_dirichlet_system_direct_and_cg_agree(space):
    A = assemble_mass(space) + assemble_stiffness(space)
    b = assemble_load(space, lambda x, y: np.sin(x + 2 * y))
    g = np.cos(space.mesh.nodes[space.boundary_dofs, 0])
    direct, _ = DirichletSystem(space, A, method="direct").solve(b, g)
    cg, _ = DirichletSystem(space, A, method="cg").solve(b, g)
    assert np.abs(direct[space.boundary_dofs] - g).max() == 0.0
    assert np.abs(direct - cg).max() < 1e-10


def test_dirichlet_system_residual_is_small_at_solution(space):
    A = assemble_stiffness(space)
    b = assemble_load(space, lambda x, y: 1.0)
    system = DirichletSystem(space, A)
    x, residual = system.solve(b, np.zeros(space.boundary_dofs.size))
    assert residual < 1e-12
    # With zero boundary values the reduced load is the interior load.
    b_red = b[space.interior_dofs]
    assert system.residual(x[space.interior_dofs], b_red) == residual
    assert system.residual(x[space.interior_dofs] + 1e-3, b_red) > 1e-6


def test_a_singular_block_fails_to_factorize(space):
    # Before the space's first factorization (COLAMD), then in its column order.
    zero = space.pattern.matrix(np.zeros(space.pattern.nnz))
    for _ in range(2):
        with pytest.raises(NoConvergence, match="^sparse factorization failed"):
            DirichletSystem(space, zero)
        DirichletSystem(space, assemble_stiffness(space))


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_a_non_finite_load_fails_either_solve(space, method):
    # Both solvers used to blame themselves: CG the matrix ("not SPD"), LU
    # its factorization.  The load is checked before either.
    system = DirichletSystem(space, assemble_mass(space) + assemble_stiffness(space), method)
    for value in (np.nan, np.inf):
        b = assemble_load(space, lambda x, y: 1.0)
        b[space.interior_dofs[0]] = value
        with pytest.raises(NoConvergence, match="load has non-finite"):
            system.solve(b, np.zeros(space.boundary_dofs.size))


def test_dirichlet_system_rejects_unknown_method(space):
    A = assemble_stiffness(space)
    with pytest.raises(ValueError):
        DirichletSystem(space, A, method="gmres")
