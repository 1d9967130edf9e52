"""Finite element core: quadrature, assembly, boundary conditions, solvers.

Everything here is for continuous piecewise-bilinear elements on squares or
piecewise-linear elements on triangles, with one degree of freedom per mesh
node.  Assembly is vectorized over elements and returns ``scipy.sparse.csr``
matrices on one fixed `SparsityPattern` per space: the pattern, and the
maps that sum element entries into it and cut the Dirichlet blocks out of
it, are built once, so a time step only gathers and sums values.

The fast paths are held to the arithmetic of the straightforward ones bit
for bit (``np.array_equal``): matrices equal ``coo_matrix(...).tocsr()`` of
the einsum element matrices, loads equal ``np.add.at``, the Dirichlet
blocks equal fancy indexing of the full matrix, and the quadrature values
equal their einsum formulas.  Each is checked against those formulations
in the tests.

Coefficient fields (e.g. the electric conductivity evaluated from a previous
time level) are represented as arrays of values at the quadrature points of
the assembly rule, shape ``(n_elements, n_qpoints)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

__all__ = [
    "ConductivityNotPositive",
    "NoConvergence",
    "QuadRule",
    "quadrature_rules",
    "FeSpace",
    "SparsityPattern",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_weighted_stiffness",
    "assemble_load",
    "assemble_joule_load",
    "solve_spd",
    "DirichletSystem",
]

#: Coefficient fields below this threshold at any quadrature point make the
#: weighted stiffness form (possibly) non-elliptic and are rejected.
POSITIVITY_FLOOR = 1e-10

#: Relative residual tolerance of `solve_spd`.
CG_RTOL = 1e-12

#: Elements per block of the blocked kernels: their temporaries stay small
#: and in cache.
_CHUNK = 2048


class ConductivityNotPositive(ValueError):
    """Raised when a coefficient field is not strictly positive."""


class NoConvergence(RuntimeError):
    """Raised when an iterative or direct solve cannot produce a solution."""


# ----------------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadRule:
    """Quadrature rule on the reference element.

    For quads the reference element is ``[-1, 1]^2``; for triangles it is the
    unit triangle with vertices (0,0), (1,0), (0,1).  ``weights`` include the
    reference measure, so ``sum(weights)`` equals 4 (quads) or 1/2 (triangles).
    """

    points: np.ndarray
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]


def gauss_rule_square(n_1d: int) -> QuadRule:
    """Tensor-product Gauss-Legendre rule with ``n_1d`` points per direction.

    Exact for polynomials of degree ``2*n_1d - 1`` in each variable.
    """
    x, w = np.polynomial.legendre.leggauss(n_1d)
    X, Y = np.meshgrid(x, x, indexing="xy")
    WX, WY = np.meshgrid(w, w, indexing="xy")
    points = np.column_stack([X.ravel(), Y.ravel()])
    weights = (WX * WY).ravel()
    return QuadRule(points, weights)


# Symmetric rules on the unit triangle, in barycentric orbit form.  The
# degree-5 rule is the classical 7-point rule; the degree-6 rule is the
# 12-point rule.  Orbit weights are normalized to sum to one and are scaled
# by the reference area 1/2 below.
_TRI_RULES = {
    5: [
        # (weight, barycentric coordinates of one representative)
        (0.225, (1 / 3, 1 / 3, 1 / 3)),
        (0.132394152788506, (0.059715871789770, 0.470142064105115, 0.470142064105115)),
        (0.125939180544827, (0.797426985353087, 0.101286507323456, 0.101286507323456)),
    ],
    6: [
        (0.050844906370207, (0.873821971016996, 0.063089014491502, 0.063089014491502)),
        (0.116786275726379, (0.501426509658179, 0.249286745170910, 0.249286745170910)),
        (0.082851075618374, (0.636502499121399, 0.310352451033785, 0.053145049844816)),
    ],
}


def _orbit(bary):
    """All distinct permutations of a barycentric triple, in a fixed order.

    The tabulated triples repeat their values exactly, so exact comparison
    removes the duplicates; the first occurrence keeps its place.
    """
    perms = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))
    return list(dict.fromkeys(tuple(bary[k] for k in perm) for perm in perms))


def gauss_rule_triangle(degree: int) -> QuadRule:
    """Symmetric rule on the reference triangle, exact to ``degree``.

    Available degrees: 5 (seven points) and 6 (twelve points).
    """
    if degree not in _TRI_RULES:
        raise ValueError(f"no triangle rule of degree {degree}; available: 5, 6")
    pts, wts = [], []
    for w, bary in _TRI_RULES[degree]:
        for b in _orbit(bary):
            # Reference coordinates (x, y) = (b1, b2) for barycentric
            # (b0, b1, b2) on the triangle (0,0), (1,0), (0,1).
            pts.append((b[1], b[2]))
            wts.append(w * 0.5)
    return QuadRule(np.array(pts), np.array(wts))


def quadrature_rules(elem_kind: str, assembly_points: int | None = None, error_points: int | None = None):
    """The assembly and the error-norm `QuadRule` of a space on ``elem_kind`` elements.

    Sizes are Gauss points per direction for quads (defaults 3 and 4; at
    least 3, exact to degree 5 like the coarsest triangle rule) or degrees
    for triangles (defaults 5 and 6, the only ones tabulated).  ``None``
    picks the default; a size that cannot be built raises ValueError.
    """
    sizes = {"assembly_points": assembly_points, "error_points": error_points}
    for name, value in sizes.items():
        if value is not None and not (isinstance(value, (int, np.integer)) and value > 0):
            raise ValueError(f"{name} must be None or a positive integer, got {value!r}")
    defaults = {"quad": (3, 4), "tri": (5, 6)}[elem_kind]
    a, e = (d if v is None else v for v, d in zip(sizes.values(), defaults))
    if elem_kind == "tri":
        return gauss_rule_triangle(a), gauss_rule_triangle(e)
    if min(a, e) < 3:
        raise ValueError(f"quads need Gauss rules of at least 3 points per direction, got {sizes}")
    return gauss_rule_square(a), gauss_rule_square(e)


# ----------------------------------------------------------------------------
# Reference basis functions
# ----------------------------------------------------------------------------


def _shape_quad(points):
    """Bilinear shape functions on [-1,1]^2, nodes ordered bl, br, tr, tl.

    Returns values ``(nq, 4)`` and reference gradients ``(nq, 4, 2)``.
    """
    xi = points[:, 0]
    eta = points[:, 1]
    N = 0.25 * np.column_stack(
        [(1 - xi) * (1 - eta), (1 + xi) * (1 - eta), (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)]
    )
    dN = np.empty((points.shape[0], 4, 2))
    dN[:, 0, 0] = -0.25 * (1 - eta)
    dN[:, 0, 1] = -0.25 * (1 - xi)
    dN[:, 1, 0] = 0.25 * (1 - eta)
    dN[:, 1, 1] = -0.25 * (1 + xi)
    dN[:, 2, 0] = 0.25 * (1 + eta)
    dN[:, 2, 1] = 0.25 * (1 + xi)
    dN[:, 3, 0] = -0.25 * (1 + eta)
    dN[:, 3, 1] = 0.25 * (1 - xi)
    return N, dN


def _shape_tri(points):
    """Linear shape functions on the reference triangle."""
    xi = points[:, 0]
    eta = points[:, 1]
    N = np.column_stack([1 - xi - eta, xi, eta])
    dN = np.broadcast_to(
        np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]), (points.shape[0], 3, 2)
    ).copy()
    return N, dN


@dataclass(frozen=True)
class RuleTables:
    """Per-rule evaluation tables over all elements.

    Attributes
    ----------
    rule : QuadRule
    N : (nq, ndof) array
        Shape function values at the reference quadrature points.
    grad : (ne, nq, ndof, 2) array
        Physical gradients of the shape functions.
    wdet : (ne, nq) array
        Quadrature weight times Jacobian determinant.
    x : (ne, nq, 2) array
        Physical coordinates of the quadrature points.
    """

    rule: QuadRule
    N: np.ndarray
    grad: np.ndarray
    wdet: np.ndarray
    x: np.ndarray


def _build_tables(mesh: Mesh, rule: QuadRule) -> RuleTables:
    shape = _shape_quad if mesh.elem_kind == "quad" else _shape_tri
    N, dN = shape(rule.points)
    (ne, ndof), nq = mesh.elements.shape, rule.n_points
    grad = np.empty((ne, nq, ndof, 2))
    detJ = np.empty((ne, nq))
    x = np.empty((ne, nq, 2))

    # The sums below run over the element nodes (or the reference axes) in
    # index order: that reproduces the einsum formulas in the comments bit
    # for bit, at a fraction of their cost.  Each block of elements is laid
    # out element-last, so that every operation is one long contiguous loop.
    for lo in range(0, ne, _CHUNK):
        block = mesh.elements[lo : lo + _CHUNK]
        c = np.ascontiguousarray(mesh.nodes[block].transpose(1, 2, 0))  # (ndof, 2, ne)
        # Jacobian of the reference-to-physical map at each quadrature point:
        # J[e,q,a,b] = sum_i dN[q,i,b] * coords[e,i,a]; J[a][b] is (nq, ne).
        J = [[sum(dN[:, i, b, None] * c[i, a] for i in range(ndof)) for b in range(2)] for a in range(2)]
        det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
        if np.any(det <= 0):
            raise ValueError("mesh contains degenerate or inverted elements")
        inv = [[J[1][1] / det, -J[0][1] / det], [-J[1][0] / det, J[0][0] / det]]
        # grad_x N = J^{-T} grad_ref N: grad[e,q,i,a] = sum_b inv[e,q,b,a] * dN[q,i,b]
        g = np.empty((nq, ndof, 2, c.shape[-1]))
        for i in range(ndof):
            for a in range(2):
                np.multiply(inv[0][a], dN[:, i, 0, None], out=g[:, i, a])
                g[:, i, a] += inv[1][a] * dN[:, i, 1, None]
        grad[lo : lo + _CHUNK] = g.transpose(3, 0, 1, 2)
        detJ[lo : lo + _CHUNK] = det.T
        # x[e,q,a] = sum_i N[q,i] * coords[e,i,a]
        for a in range(2):
            x[lo : lo + _CHUNK, :, a] = sum(N[:, i, None] * c[i, a] for i in range(ndof)).T
    wdet = rule.weights[None, :] * detJ
    return RuleTables(rule=rule, N=N, grad=grad, wdet=wdet, x=x)


# ----------------------------------------------------------------------------
# Finite element space
# ----------------------------------------------------------------------------


class FeSpace:
    """Nodal finite element space on a structured mesh.

    Holds the quadrature tables of the assembly rule, and builds on first
    use those of the error rule (`error_tables`) and the sparsity pattern
    with its assembly and reduction maps (`pattern`).

    Parameters
    ----------
    mesh : Mesh
    assembly_points, error_points : int, optional
        Rule sizes, as `quadrature_rules` reads them (None: the defaults).
    """

    def __init__(self, mesh: Mesh, assembly_points: int | None = None, error_points: int | None = None):
        self.mesh = mesh
        self.n_dofs = mesh.n_nodes
        self.boundary_dofs = mesh.boundary_nodes
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        self.interior_dofs = np.nonzero(mask)[0]

        a_rule, self._error_rule = quadrature_rules(mesh.elem_kind, assembly_points, error_points)
        self.tables = _build_tables(mesh, a_rule)
        self._error_tables = None
        self._pattern = None

    @property
    def error_tables(self) -> RuleTables:
        """Tables for the finer error-norm rule (built lazily)."""
        if self._error_tables is None:
            self._error_tables = _build_tables(self.mesh, self._error_rule)
        return self._error_tables

    @property
    def pattern(self) -> "SparsityPattern":
        """The CSR pattern of every assembled matrix (built lazily)."""
        if self._pattern is None:
            self._pattern = SparsityPattern(self)
        return self._pattern

    def values_at_quad(self, coeffs: np.ndarray, tables: RuleTables | None = None) -> np.ndarray:
        """Evaluate the FE function at quadrature points, shape ``(ne, nq)``."""
        tb = tables if tables is not None else self.tables
        nodal = coeffs[self.mesh.elements]  # (ne, ndof)
        return np.einsum("qi,ei->eq", tb.N, nodal)

    def gradients_at_quad(self, coeffs: np.ndarray, tables: RuleTables | None = None) -> np.ndarray:
        """Evaluate the FE gradient at quadrature points, shape ``(ne, nq, 2)``."""
        tb = tables if tables is not None else self.tables
        nodal = coeffs[self.mesh.elements]
        # g[e,q,a] = sum_i grad[e,q,i,a] * nodal[e,i], summed from zero in
        # node order like the einsum "eqia,ei->eqa", bit for bit; in blocks
        # of elements, so that the one temporary stays small.
        g = np.zeros(tb.grad.shape[:2] + (2,))
        for lo in range(0, g.shape[0], _CHUNK):
            block, grad = g[lo : lo + _CHUNK], tb.grad[lo : lo + _CHUNK]
            term = np.empty_like(block)
            for i in range(nodal.shape[1]):
                block += np.multiply(grad[:, :, i, :], nodal[lo : lo + _CHUNK, None, i, None], out=term)
        return g


class _Submatrix:
    """A CSR submatrix of the pattern: the pattern slot of each entry, in ``data`` order, and the index arrays."""

    def __init__(self, tagged: sp.csr_matrix):
        tagged.data -= 1  # the tags are slot + 1; in place, tagged is a temporary
        self.slots = tagged.data
        self.indices, self.indptr, self.shape = tagged.indices, tagged.indptr, tagged.shape

    def take(self, data: np.ndarray) -> sp.csr_matrix:
        """The submatrix of the pattern matrix with values ``data``."""
        return sp.csr_matrix((data[self.slots], self.indices.copy(), self.indptr.copy()), shape=self.shape)


class SparsityPattern:
    """The fixed CSR pattern of a space's matrices, with the maps that
    assemble and reduce on it.

    Assembly reproduces ``coo_matrix((entries, (rows, cols))).tocsr()`` bit
    for bit: the element entries of one CSR slot are summed from zero in the
    order in which scipy's conversion sums them.  That order is element order
    only in rows short enough to be sorted by insertion; longer rows (18
    entries on triangles) go through an unstable sort.  So the order is read
    from scipy's own kernel, by sorting a matrix whose values are the entry
    indices.  The two Dirichlet submatrices are read the same way: the fancy
    indexing ``A[I][:, I]`` and ``A[I][:, B]`` is applied once to a matrix
    whose values tag its slots.  `DirichletSystem` factors ``A_red.tocsc()``.

    Attributes
    ----------
    indptr, indices : int32 arrays
        The CSR pattern, sorted, without duplicates.
    perm, slot : int32 arrays
        Element entry ``perm[k]`` (an index into ``elem_mats.ravel()``) is
        the ``k``-th term summed, into CSR slot ``slot[k]``.
    interior, interior_boundary : `_Submatrix`
        The interior x interior and the interior x boundary blocks (CSR).
    """

    def __init__(self, space: FeSpace):
        # Each temporary is released as soon as it has been read, so the
        # build needs little more memory than the maps it keeps.
        elements = space.mesh.elements.astype(np.int32)
        n, ndof = space.n_dofs, elements.shape[1]
        self.shape = (n, n)
        # Element entry k = (e*ndof + i)*ndof + j lies in row elements[e, i]
        # and column elements[e, j].  coo_tocsr buckets the entries by row
        # in the order of k; sorting the rows then orders each one as the
        # conversion does before summing.  The sort moves the values with
        # the columns, so values k come out as the summation order.
        by_row = np.argsort(elements.ravel(), kind="stable").astype(np.int32)
        order = (by_row[:, None] * ndof + np.arange(ndof, dtype=np.int32)).ravel()
        row_ptr = np.concatenate([[0], np.cumsum(ndof * np.bincount(elements.ravel(), minlength=n))])
        cols = elements[by_row // ndof].ravel()
        del elements, by_row
        tag = sp.csr_matrix((order, cols, row_ptr.astype(np.int32)), shape=self.shape)
        del order, cols
        tag.sort_indices()
        self.perm = tag.data
        first = np.empty(self.perm.size, dtype=bool)  # the first entry of each slot
        np.not_equal(tag.indices[1:], tag.indices[:-1], out=first[1:])
        first[row_ptr[:-1]] = True
        self.indices = tag.indices[first]
        del tag
        self.slot = np.cumsum(first, dtype=np.int32)
        del first
        self.slot -= 1
        self.nnz = self.indices.size
        self.indptr = np.append(self.slot[row_ptr[:-1]], self.nnz).astype(np.int32)
        del row_ptr

        # This tag matrix shares the pattern's index arrays; indexing only reads them.
        tags = np.arange(1, self.nnz + 1, dtype=np.int32)
        slots = sp.csr_matrix((tags, self.indices, self.indptr), shape=self.shape)
        interior_rows = slots[space.interior_dofs]
        del tags, slots
        self.interior = _Submatrix(interior_rows[:, space.interior_dofs])
        self.interior_boundary = _Submatrix(interior_rows[:, space.boundary_dofs])

    def assemble(self, elem_mats: np.ndarray) -> sp.csr_matrix:
        """Sum ``(ne, ndof, ndof)`` element matrices into a CSR matrix."""
        return self.matrix(np.bincount(self.slot, elem_mats.ravel()[self.perm], minlength=self.nnz))

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix with values ``data`` on this pattern."""
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)

    def holds(self, A: sp.spmatrix) -> bool:
        """Whether ``A`` is a CSR matrix on exactly this pattern."""
        return (
            A.format == "csr"
            and A.shape == self.shape
            and np.array_equal(A.indptr, self.indptr)
            and np.array_equal(A.indices, self.indices)
        )


# ----------------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------------


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """Mass matrix ``A_ij = (phi_j, phi_i)``."""
    tb = space.tables
    elem = np.einsum("eq,qi,qj->eij", tb.wdet, tb.N, tb.N)
    return space.pattern.assemble(elem)


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    """Stiffness matrix ``A_ij = (grad phi_j, grad phi_i)``."""
    return space.pattern.assemble(_stiffness_kernel(space.tables.grad, space.tables.wdet))


def _stiffness_kernel(grad: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Element matrices ``sum_q s[e,q] grad[e,q,i,:] . grad[e,q,j,:]``.

    Bit for bit the einsum ``"eq,eqia,eqja->eij"`` of ``(s, grad, grad)``:
    for each quadrature point it forms ``(s g_i0) g_j0 + (s g_i1) g_j1`` and
    adds that to a sum started at zero, one point after another.  Each block
    of elements is laid out element-last, so every product is one long
    contiguous loop.
    """
    ne, nq, ndof, _ = grad.shape
    out = np.empty((ne, ndof, ndof))
    for lo in range(0, ne, _CHUNK):
        g = np.ascontiguousarray(grad[lo : lo + _CHUNK].transpose(1, 3, 2, 0))  # (nq, 2, ndof, ne)
        sg = s[lo : lo + _CHUNK].T[:, None, None, :] * g
        acc = np.zeros((ndof, ndof, g.shape[-1]))
        term = np.empty_like(acc)
        term1 = np.empty_like(acc)
        for q in range(nq):
            np.multiply(sg[q, 0, :, None], g[q, 0, None, :], out=term)
            term += np.multiply(sg[q, 1, :, None], g[q, 1, None, :], out=term1)
            acc += term
        out[lo : lo + _CHUNK] = acc.transpose(2, 0, 1)
    return out


def _scatter(space: FeSpace, contrib: np.ndarray) -> np.ndarray:
    """Sum ``(ne, ndof)`` element contributions into a nodal vector, in
    element order from zero (as ``np.add.at`` does)."""
    return np.bincount(space.mesh.elements.ravel(), contrib.ravel(), minlength=space.n_dofs)


def _check_coefficient(space: FeSpace, sigma_star: np.ndarray) -> np.ndarray:
    tb = space.tables
    sigma_star = np.asarray(sigma_star, dtype=float)
    if sigma_star.shape != tb.wdet.shape:
        raise ValueError(
            f"coefficient field must have shape {tb.wdet.shape} "
            f"(elements x assembly quadrature points), got {sigma_star.shape}"
        )
    return sigma_star


def assemble_weighted_stiffness(space: FeSpace, sigma_star: np.ndarray) -> sp.csr_matrix:
    """Weighted stiffness ``A_ij = (sigma* grad phi_j, grad phi_i)``.

    ``sigma_star`` holds coefficient values at the assembly quadrature points,
    shape ``(n_elements, n_qpoints)``.

    Raises
    ------
    ConductivityNotPositive
        If the coefficient's minimum is not above 1e-10 (NaN included): the
        resulting operator could not be guaranteed elliptic.
    """
    sigma_star = _check_coefficient(space, sigma_star)
    smin = sigma_star.min()
    if not smin > POSITIVITY_FLOOR:  # NaN fails too
        raise ConductivityNotPositive(
            f"coefficient field min {smin:.3e} is not above {POSITIVITY_FLOOR:.0e}; "
            "the weighted form is not uniformly elliptic"
        )
    tb = space.tables
    return space.pattern.assemble(_stiffness_kernel(tb.grad, sigma_star * tb.wdet))


def assemble_load(space: FeSpace, f) -> np.ndarray:
    """Load vector ``b_i = (f, phi_i)`` for a spatial function ``f(x, y)``."""
    tb = space.tables
    fq = f(tb.x[..., 0], tb.x[..., 1])
    fq = np.broadcast_to(np.asarray(fq, dtype=float), tb.wdet.shape)
    contrib = np.einsum("eq,qi->ei", fq * tb.wdet, tb.N)
    return _scatter(space, contrib)


def assemble_joule_load(space: FeSpace, sigma_star: np.ndarray, phi_coeffs: np.ndarray) -> np.ndarray:
    """Joule heating load ``b_i = (sigma* |grad Phi_h|^2, phi_i)``.

    The gradient of the FE potential ``Phi_h`` is evaluated exactly at the
    assembly quadrature points; ``sigma_star`` is a coefficient field there.
    """
    sigma_star = _check_coefficient(space, sigma_star)
    tb = space.tables
    g = space.gradients_at_quad(phi_coeffs)
    g2 = g[..., 0] ** 2 + g[..., 1] ** 2
    contrib = np.einsum("eq,qi->ei", sigma_star * g2 * tb.wdet, tb.N)
    return _scatter(space, contrib)


# ----------------------------------------------------------------------------
# Dirichlet boundary conditions and linear solves
# ----------------------------------------------------------------------------


def solve_spd(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite sparse system by preconditioned CG.

    ``scipy.sparse.linalg.cg`` with the Jacobi preconditioner, zero initial
    guess, relative residual tolerance `CG_RTOL` and at most ``50 * n``
    iterations.  A zero right-hand side returns a fresh zero vector.

    Raises
    ------
    NoConvergence
        If the matrix has a diagonal entry that is not positive, if a search
        direction ``p`` meets ``p . Ap`` that is not positive (an indefinite
        matrix, or NaN), or if the iteration cap is reached.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if np.linalg.norm(b) == 0.0:
        return np.zeros(n)
    diag = A.diagonal()
    if not np.all(diag > 0):
        raise NoConvergence("matrix has a non-positive diagonal entry; not SPD")

    def matvec(p):
        q = A @ p
        if not p @ q > 0.0:
            raise NoConvergence("conjugate gradients broke down; matrix not SPD")
        return q

    # Divide by the diagonal: the solutions are pinned bit for bit to the
    # reference Jacobi CG, and multiplying by the reciprocal rounds differently.
    op = spla.LinearOperator(A.shape, matvec=matvec, dtype=float)
    jacobi = spla.LinearOperator(A.shape, matvec=lambda r: r / diag, dtype=float)
    max_iter = 50 * n
    x, info = spla.cg(op, b, rtol=CG_RTOL, atol=0.0, maxiter=max_iter, M=jacobi)
    if info:
        raise NoConvergence(f"conjugate gradients did not converge in {max_iter} iterations")
    return x


class DirichletSystem:
    """A Dirichlet-reduced SPD system prepared for one or many solves.

    ``A`` must lie on the space's sparsity pattern, as every assembled
    matrix does (else ValueError).  The interior block ``A_red`` and the
    interior x boundary block ``A_ib`` are gathered through the pattern's
    slot maps; they equal ``A[I][:, I]`` and ``A[I][:, B]`` bit for bit.
    ``method="direct"`` factorizes the reduced matrix once (sparse LU, which
    is deterministic); ``method="cg"`` solves each right-hand side with
    `solve_spd`, scipy's CG with the Jacobi preconditioner.
    """

    def __init__(self, space: FeSpace, A: sp.spmatrix, method: str = "direct"):
        if method not in ("direct", "cg"):
            raise ValueError(f"method must be 'direct' or 'cg', got {method!r}")
        self.space = space
        self.method = method
        pattern = space.pattern
        A = A.tocsr()
        if not pattern.holds(A):
            raise ValueError("the matrix is not on the space's sparsity pattern")
        self.A_red = pattern.interior.take(A.data)
        self.A_ib = pattern.interior_boundary.take(A.data)
        if method == "direct":
            try:
                self._lu = spla.splu(self.A_red.tocsc())
            except RuntimeError as exc:  # singular factorization
                raise NoConvergence(f"sparse factorization failed: {exc}") from exc

    def solve(self, b: np.ndarray, boundary_values: np.ndarray) -> np.ndarray:
        """Solve for the full nodal vector given a full load vector and the
        values on ``space.boundary_dofs``, in that order."""
        g = np.asarray(boundary_values, dtype=float)
        if g.shape != (self.space.boundary_dofs.size,):
            raise ValueError(
                f"boundary_values must have shape ({self.space.boundary_dofs.size},), "
                f"got {g.shape}"
            )
        b_red = b[self.space.interior_dofs] - self.A_ib @ g
        if self.method == "direct":
            x_red = self._lu.solve(b_red)
            if not np.all(np.isfinite(x_red)):
                raise NoConvergence("sparse factorization produced non-finite values")
        else:
            x_red = solve_spd(self.A_red, b_red)
        full = np.zeros(self.space.n_dofs)
        full[self.space.boundary_dofs] = g
        full[self.space.interior_dofs] = x_red
        return full

    def residual(self, x_full: np.ndarray, b: np.ndarray) -> float:
        """Relative residual of the reduced system at a full-vector solution."""
        g = x_full[self.space.boundary_dofs]
        b_red = b[self.space.interior_dofs] - self.A_ib @ g
        r = b_red - self.A_red @ x_full[self.space.interior_dofs]
        denom = np.linalg.norm(b_red)
        return float(np.linalg.norm(r) / denom) if denom > 0 else float(np.linalg.norm(r))
