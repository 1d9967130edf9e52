"""The fixed sparsity pattern, the slot-mapped Dirichlet reduction and the
assembly kernels reproduce the straightforward formulations bit for bit."""

import numpy as np
import pytest
import scipy.sparse as sp

import _dense_oracle as oracle
from thermistor_fem import FeSpace, build_mesh, make_problem
from thermistor_fem import fem
from thermistor_fem.fem import (
    DirichletSystem,
    assemble_joule_load,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_stiffness,
)
from thermistor_fem.manufactured import exact_u, grad_u, source_f1, source_f2
from thermistor_fem.schemes import OperatorCache


@pytest.fixture(
    scope="module",
    params=[(kind, M) for kind in ("tri", "quad") for M in (2, 8, 10, 64)],
    ids=lambda p: f"{p[0]}-M{p[1]}",
)
def space(request):
    kind, M = request.param
    return FeSpace(build_mesh(M, kind))


def conductivity(space, seed=0):
    return 2.0 - np.random.default_rng(seed).uniform(0.0, 1.0, space.tables.wdet.shape)


def assert_identical(got, want):
    assert got.format == want.format
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def einsum_matrices(space, sigma):
    """Mass, stiffness and weighted stiffness the COO way, from einsums."""
    tb, el, n = space.tables, space.mesh.elements, space.n_dofs
    grad = oracle.materialized_grad(tb)
    return (
        oracle.coo_assemble(el, np.einsum("eq,qi,qj->eij", tb.wdet, tb.N, tb.N), n),
        oracle.coo_assemble(el, np.einsum("eq,eqia,eqja->eij", tb.wdet, grad, grad), n),
        oracle.coo_assemble(el, np.einsum("eq,eqia,eqja->eij", sigma * tb.wdet, grad, grad), n),
    )


def test_matrices_equal_the_coo_conversion(space):
    sigma = conductivity(space)
    got = (assemble_mass(space), assemble_stiffness(space), assemble_weighted_stiffness(space, sigma))
    for A, want in zip(got, einsum_matrices(space, sigma)):
        assert_identical(A, want)


def test_stiffness_kernel_equals_the_einsum(space):
    for tb in (space.tables, space.error_tables):
        s = conductivity(space, 1)[:, :1] * tb.wdet
        grad = oracle.materialized_grad(tb)
        got = fem._stiffness_kernel(tb.grad, s)
        assert np.array_equal(got, np.einsum("eq,eqia,eqja->eij", s, grad, grad))
        assert np.array_equal(got, fem._stiffness_kernel(np.ascontiguousarray(grad.transpose(1, 3, 2, 0)), s))


def test_gradients_equal_the_einsum(space):
    # On the whole table, and one axis at a time as `FeEvaluation` reads it.
    coeffs = np.random.default_rng(2).standard_normal(space.n_dofs)
    nodal = coeffs[space.mesh.elements.T]
    for tb in (space.tables, space.error_tables):
        want = np.einsum("eqia,ei->eqa", oracle.materialized_grad(tb), coeffs[space.mesh.elements])
        assert np.array_equal(fem._gradients(tb.grad, nodal, np.empty(want.shape)), want)
        for axis in (0, 1):
            got = fem._gradients(tb.grad[:, axis : axis + 1], nodal, np.empty(tb.wdet.shape + (1,)))
            assert np.array_equal(got[..., 0], want[..., axis])


def test_loads_equal_add_at(space):
    tb, el, n = space.tables, space.mesh.elements, space.n_dofs
    f = lambda x, y: np.cos(3.0 * x - y) + x * y  # noqa: E731
    fq = f(tb.x[..., 0], tb.x[..., 1])
    want = oracle.add_at_scatter(el, np.einsum("eq,qi->ei", fq * tb.wdet, tb.N), n)
    assert np.array_equal(assemble_load(space, f), want)

    sigma = conductivity(space, 3)
    phi = np.random.default_rng(4).standard_normal(n)
    g = np.einsum("eqia,ei->eqa", oracle.materialized_grad(tb), phi[el])
    g2 = g[..., 0] ** 2 + g[..., 1] ** 2
    want = oracle.add_at_scatter(el, np.einsum("eq,qi->ei", sigma * g2 * tb.wdet, tb.N), n)
    assert np.array_equal(assemble_joule_load(space, sigma, phi), want)


@pytest.mark.parametrize("M", [8, 34, 50, 256])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_block_evaluation_equals_the_full_table_evaluation(kind, M):
    # `assemble_load` evaluates its source one block of `fem._CHUNK` elements
    # at a time: one block at M=8, a partial last block at tri M=34 and quad
    # M=50, many whole blocks at M=256.  The load must be the one of the
    # source evaluated on the whole table at once.
    space = FeSpace(build_mesh(M, kind))
    tb, el, n = space.tables, space.mesh.elements, space.n_dofs
    sources = {
        "array": lambda x, y: exact_u(x, y, 0.37),
        "one partial": lambda x, y: grad_u(x, y, 0.37)[1],
        "source": lambda x, y: source_f1(x, y, 0.37),
        "scalar": lambda x, y: 2.5,
    }
    for name, f in sources.items():
        fq = np.broadcast_to(f(tb.x[..., 0], tb.x[..., 1]), tb.wdet.shape)
        want = oracle.add_at_scatter(el, np.einsum("eq,qi->ei", fq * tb.wdet, tb.N), n)
        assert np.array_equal(assemble_load(space, f), want), name


def test_a_load_source_that_returns_a_tuple_is_refused():
    # A source must give one array per block; a tuple, on the first block or
    # on a later one, must fail, not be summed into the load.
    space = FeSpace(build_mesh(64, "tri"))
    assert space.tables.wdet.shape[0] == 4 * fem._CHUNK

    def switching(first, later):
        """A source that returns ``first`` on the first block, ``later`` after."""
        calls = []

        def f(x, y):
            calls.append(None)
            return first(x, y) if len(calls) == 1 else later(x, y)

        return f

    array, pair = (lambda x, y: x), (lambda x, y: (x, y))
    for f in (
        lambda x, y: (x,),
        pair,
        lambda x, y: (x, y, x),
        switching(pair, array),
        switching(array, pair),
    ):
        with pytest.raises(ValueError):
            assemble_load(space, f)


# tri M=34 (2,312 elements) and quad M=50 (2,500) end in a partial block of
# `fem._CHUNK` (2,048) elements; the M=64 meshes are whole blocks.
BLOCKED_MESHES = [("tri", 34), ("quad", 50), ("tri", 64), ("quad", 64)]


@pytest.mark.parametrize("kind, M", BLOCKED_MESHES)
def test_source_loads_equal_the_full_table_evaluation(kind, M):
    space = FeSpace(build_mesh(M, kind))
    tb, el, n = space.tables, space.mesh.elements, space.n_dofs
    x, y = tb.x[..., 0], tb.x[..., 1]
    for source in (source_f1, source_f2):
        for t in (0.0, 0.1, 0.37, 1.0):
            want = oracle.add_at_scatter(el, np.einsum("eq,qi->ei", source(x, y, t) * tb.wdet, tb.N), n)
            assert np.array_equal(assemble_load(space, lambda x, y: source(x, y, t)), want)


@pytest.mark.parametrize("kind, M", BLOCKED_MESHES)
def test_load_evaluates_the_source_block_by_block_in_element_order(kind, M):
    space = FeSpace(build_mesh(M, kind))
    seen = []

    def f(x, y):
        seen.append(np.stack([x, y], axis=-1))
        return x * y

    assemble_load(space, f)
    ne = space.mesh.elements.shape[0]
    assert [len(block) for block in seen] == [min(fem._CHUNK, ne - lo) for lo in range(0, ne, fem._CHUNK)]
    assert np.array_equal(np.concatenate(seen), space.tables.x)


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_dirichlet_reduction_equals_fancy_indexing(space, method, monkeypatch):
    factored = []

    def splu(A, *args, **kwargs):
        lu = real_splu(A, *args, **kwargs)
        factored.append((A, lu, kwargs.get("permc_spec", "COLAMD")))
        return lu

    real_splu = fem.spla.splu
    monkeypatch.setattr(fem.spla, "splu", splu)
    mass, stiffness, weighted = einsum_matrices(space, conductivity(space))
    alpha = 1.5 / 0.1
    ops = OperatorCache(space, make_problem(), method)
    systems = [
        (DirichletSystem(space, assemble_weighted_stiffness(space, conductivity(space)), method), weighted),
        (ops.heat_system(alpha), (alpha * mass + stiffness).tocsr()),
    ]
    assert len(factored) == (2 if method == "direct" else 0)
    for k, (system, A) in enumerate(systems):
        A_red, A_ib, csc = oracle.fancy_reduction(A, space.interior_dofs, space.boundary_dofs)
        assert_identical(system.A_red, A_red)
        assert_identical(system.A_ib, A_ib)
        if factored:
            # The space's first factorization chooses the column order; the
            # next one factors the block with its columns in that order.
            matrix, _, permc_spec = factored[k]
            order = np.argsort(factored[0][1].perm_c)
            assert_identical(matrix, csc if k == 0 else csc[:, order])
            assert permc_spec == ("COLAMD" if k == 0 else "NATURAL")


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_dirichlet_system_rejects_a_matrix_off_the_pattern(kind):
    space = FeSpace(build_mesh(4, kind))
    n = space.n_dofs
    K = assemble_stiffness(space)
    missing = K.copy()
    missing.data[1] = 0.0
    missing.eliminate_zeros()
    extra = K + sp.csr_matrix(([1.0], ([0], [n - 1])), shape=(n, n))
    for A in (missing, extra, sp.identity(n, format="csr"), assemble_stiffness(FeSpace(build_mesh(6, kind)))):
        with pytest.raises(ValueError, match="sparsity pattern"):
            DirichletSystem(space, A)
    DirichletSystem(space, K.tocoo())  # the same entries in another format
