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
in the tests.  FE gradients have one kernel, `_gradients`, which reads a
table's gradient array: the Joule load takes it on the assembly rule, and
the error report's `analysis.FeEvaluation` one axis at a time on the error
rule.

Coefficient fields (e.g. the electric conductivity evaluated from a previous
time level) are represented as arrays of values at the quadrature points of
the assembly rule, shape ``(n_elements, n_qpoints)``.  The sources
``f(x, y)`` of `assemble_load` are evaluated by `RuleTables.evaluate`, one
block of `_CHUNK` elements at a time, like the blocked kernels.

Work over the elements in which each block writes only its own elements'
entries runs on two element ranges (`_blocks`, `_fill`): the blocks of the
first on the calling thread and, at the same time, those of the second on a
helper thread (`_beside`, which also runs a time step's loads beside the
step: `schemes.OperatorCache.loads`).  Every helper has ended when the call
that starts it returns or raises.  The quadrature tables are built so
(`_build_tables`), and the error report's exact fields and norm integrands
are filled so (`analysis`).  No sum spans two blocks, so the results have
the same bits at any split and block size.  A space of fewer than eight
blocks of `_CHUNK` elements is filled on the calling thread alone.

The quadrature tables store the physical shape-function gradients
element-last, ``(points, 2, ndof, elements)``, so that the blocked kernels
read contiguous runs of elements.  They hold one point when the shape
functions give their reference gradients at one point, as the linear ones
on triangles do; the kernels broadcast it over the points with the
arithmetic of the full table.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

__all__ = [
    "ConductivityNotPositive",
    "NoConvergence",
    "QuadRule",
    "quadrature_rules",
    "gauss_rule_square",
    "gauss_rule_triangle",
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

#: The methods of `DirichletSystem`: sparse LU, or `solve_spd`.
SOLVERS = ("direct", "cg")

#: Elements per block of the blocked kernels and of the source evaluations
#: in `assemble_load`: their temporaries stay small and in cache.
_CHUNK = 2048

#: Elements per block of a quadrature-table build.  A block costs 60 to 90
#: numpy calls whatever its size, and the threads of the two ranges take
#: turns at the interpreter between them.  On two ranges at M=256 (medians
#: of 9, 2-vCPU host), blocks of 4 `_CHUNK` built a table in 25-77 ms,
#: blocks of `_CHUNK` in 45-96 ms, and the serial build took 40-147 ms.
_TABLE_CHUNK = 4 * _CHUNK


class ConductivityNotPositive(ValueError):
    """Raised when a coefficient field is not strictly positive."""


class NoConvergence(RuntimeError):
    """Raised when an iterative or direct solve cannot produce a solution."""


# ----------------------------------------------------------------------------
# Helper threads, and element blocks on two ranges
# ----------------------------------------------------------------------------


@contextmanager
def _beside(name: str, job, *args):
    """Run ``job(*args)`` on a helper thread beside the ``with`` block, and
    yield its future.  Leaving the block, by returning or raising, waits for
    the job and ends the thread: the package's one way to start a thread."""
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix=name) as helper:
        yield helper.submit(job, *args)


def _blocks(n_elements: int, row: int = 1, size: int = _CHUNK) -> list:
    """The blocks ``(lo, hi)`` in which a fill runs over ``n_elements``
    elements, one list per element range.

    A block holds whole rows of ``row`` elements, as many as fit in ``size``
    elements and at least one.  The second range starts at the row
    boundary at or below the middle.  Elements that fit in one block make
    one range of one block.
    """
    if n_elements <= size:
        return [[(0, n_elements)]]
    step = max(size // row, 1) * row
    split = n_elements // row // 2 * row
    return [
        [(lo, min(lo + step, end)) for lo in range(start, end, step)]
        for start, end in ((0, split), (split, n_elements))
    ]


def _fill(ranges: list, fill) -> None:
    """Call ``fill(lo, hi)`` on every block of ``ranges``: those of the first
    range on the calling thread and, at the same time, those of the second
    on a helper thread, which has ended when this returns or raises.

    Fewer than eight blocks of `_CHUNK` elements are filled in order on the
    calling thread, for both users.  In the error report's norms and exact
    fields the helper saved at most a tenth of an M=64 report, and its wait
    for the second core spread the report's times.  A table build below that
    size is at most two blocks of `_TABLE_CHUNK`; at M=64 a helper over
    blocks of `_CHUNK` saved at most 2.7 of 11 ms (quad, error rule) and
    cost up to 1 ms on triangles, which one thread builds in 2 ms.
    """

    def run(blocks):
        for lo, hi in blocks:
            fill(lo, hi)

    if ranges[-1][-1][1] < 8 * _CHUNK:
        return run([block for blocks in ranges for block in blocks])
    with _beside("element-range", run, ranges[1]) as second:
        run(ranges[0])
        second.result()


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
    defaults = {"quad": (3, 4), "tri": (5, 6)}.get(elem_kind)
    if defaults is None:
        raise ValueError(f"elem_kind must be 'quad' or 'tri', got {elem_kind!r}")
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
    sx, sy = np.array([-1.0, 1.0, 1.0, -1.0]), np.array([-1.0, -1.0, 1.0, 1.0])  # the nodes' corners
    fx, fy = 1 + sx * points[:, :1], 1 + sy * points[:, 1:]  # 1 -+ xi, 1 -+ eta: (nq, 4)
    return 0.25 * (fx * fy), 0.25 * np.stack([sx * fy, sy * fx], axis=-1)


def _shape_tri(points):
    """Linear shape functions on the reference triangle.

    Returns values ``(nq, 3)`` and reference gradients at one point,
    ``(1, 3, 2)``: the gradients are constant, so that point stands for all.
    """
    xi, eta = points[:, 0], points[:, 1]
    return np.column_stack([1 - xi - eta, xi, eta]), np.array([[[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]])


@dataclass(frozen=True)
class RuleTables:
    """Per-rule evaluation tables over all elements.

    Attributes
    ----------
    N : (nq, ndof) array
        Shape function values at the reference quadrature points.
    grad : (nq or 1, 2, ndof, ne) array
        Physical gradients of the shape functions, element-last:
        ``grad[q, a, i, e]`` is the ``a``-th partial of shape function ``i``
        of element ``e`` at point ``q``, so the kernels read runs of
        elements that are contiguous.  The point axis has length 1 when the
        shape functions give one gradient point (linear triangles): that one
        value stands for every point.
    wdet : (ne, nq) array
        Quadrature weight times Jacobian determinant.
    x : (ne, nq, 2) array
        Physical coordinates of the quadrature points.
    """

    N: np.ndarray
    grad: np.ndarray
    wdet: np.ndarray
    x: np.ndarray

    def evaluate(self, f) -> np.ndarray:
        """``f(x, y)`` at the rule's points, ``(ne, nq)``.  ``f`` is called
        once per block of `_CHUNK` elements, in element order, on the
        ``(block, nq)`` coordinates of their points, and may return anything
        that broadcasts to that shape: its temporaries are as large as one
        block."""
        out = np.empty(self.wdet.shape)
        for lo in range(0, len(out), _CHUNK):
            x = self.x[lo : lo + _CHUNK]
            out[lo : lo + _CHUNK] = f(x[..., 0], x[..., 1])
        return out


def _build_tables(mesh: Mesh, rule: QuadRule) -> RuleTables:
    """The `RuleTables` of ``rule`` on ``mesh``, filled in blocks of
    `_TABLE_CHUNK` elements over two element ranges (`_fill`).  Each block
    writes only its own elements of ``grad``, ``wdet`` and ``x``, so the
    tables have the same bits at any split and any block size."""
    if not np.all(np.isfinite(mesh.nodes)):
        raise ValueError("mesh has non-finite node coordinates")
    shape = _shape_quad if mesh.elem_kind == "quad" else _shape_tri
    N, dN = shape(rule.points)  # dN holds one point or one per rule point
    (ne, ndof), nq, ng = mesh.elements.shape, rule.n_points, dN.shape[0]
    grad = np.empty((ng, 2, ndof, ne))
    wdet = np.empty((ne, nq))
    x = np.empty((ne, nq, 2))

    # The sums below run over the element nodes (or the reference axes) in
    # index order: that reproduces the einsum formulas in the comments bit
    # for bit, at a fraction of their cost.  Each block of elements is laid
    # out element-last, so that every operation is one long contiguous loop.
    def fill(lo: int, hi: int) -> None:
        c = np.ascontiguousarray(mesh.nodes[mesh.elements[lo:hi]].transpose(1, 2, 0))  # (ndof, 2, block)
        # Jacobian of the reference-to-physical map at each quadrature point:
        # J[e,q,a,b] = sum_i dN[q,i,b] * coords[e,i,a]; jab is (ng, block).
        (j00, j01), (j10, j11) = [
            [sum(dN[:, i, b, None] * c[i, a] for i in range(ndof)) for b in range(2)] for a in range(2)
        ]
        det = j00 * j11 - j01 * j10
        if not np.all(det > 0):  # NaN fails too
            raise ValueError("mesh contains degenerate or inverted elements")
        # The inverse [[j11, -j01], [-j10, j00]] / det, in J's own storage.
        for j in (j01, j10):
            np.negative(j, out=j)
        for j in (j00, j01, j10, j11):
            j /= det
        inv = [[j11, j01], [j10, j00]]
        # grad_x N = J^{-T} grad_ref N: grad[q,a,i,e] = sum_b inv[e,q,b,a] * dN[q,i,b]
        for i in range(ndof):
            for a in range(2):
                g = grad[:, a, i, lo:hi]
                np.multiply(inv[0][a], dN[:, i, 0, None], out=g)
                g += inv[1][a] * dN[:, i, 1, None]
        # wdet[e,q] = weights[q] * detJ[e,q]; the product commutes exactly.
        np.multiply(det.T, rule.weights, out=wdet[lo:hi])
        # x[e,q,a] = sum_i N[q,i] * coords[e,i,a]
        for a in range(2):
            x[lo:hi, :, a] = sum(N[:, i, None] * c[i, a] for i in range(ndof)).T

    _fill(_blocks(ne, size=_TABLE_CHUNK), fill)
    return RuleTables(N=N, grad=grad, wdet=wdet, x=x)


# ----------------------------------------------------------------------------
# Finite element space
# ----------------------------------------------------------------------------


def _check_vector(name: str, v, n: int) -> None:
    """Raise ValueError unless ``v`` is a vector of ``n`` entries."""
    if np.shape(v) != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {np.shape(v)}")


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

    @cached_property
    def error_tables(self) -> RuleTables:
        """Tables for the finer error-norm rule (built on first use)."""
        return _build_tables(self.mesh, self._error_rule)

    @cached_property
    def pattern(self) -> "SparsityPattern":
        """The CSR pattern of every assembled matrix (built on first use)."""
        return SparsityPattern(self)

    def values_at_quad(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate the FE function at the assembly points, shape ``(ne, nq)``."""
        _check_vector("coeffs", coeffs, self.n_dofs)
        return np.einsum("qi,ei->eq", self.tables.N, coeffs[self.mesh.elements])


def _gradients(grad: np.ndarray, nodal: np.ndarray, out: np.ndarray) -> np.ndarray:
    """FE gradients from a table's ``grad`` (`RuleTables`), or a slice of its
    axes, and the ``(ndof, ne)`` nodal values into ``out``, of shape ``(ne,
    nq, n_axes)`` or, when ``grad`` holds one point, ``(ne, 1, n_axes)``.

    ``g[e,q,a] = sum_i grad[q,a,i,e] * nodal[i,e]``, summed from zero in node
    order like the einsum ``"eqia,ei->eqa"``, bit for bit, once per point of
    ``grad`` and broadcast over ``out``; in blocks of elements, so that the
    temporaries stay small.
    """
    for lo in range(0, out.shape[0], _CHUNK):
        g = grad[..., lo : lo + _CHUNK]
        acc = np.zeros(g.shape[:2] + g.shape[3:])  # (nq or 1, n_axes, block)
        term = np.empty_like(acc)
        for i in range(nodal.shape[0]):
            acc += np.multiply(g[:, :, i], nodal[i, lo : lo + _CHUNK], out=term)
        out[lo : lo + _CHUNK] = acc.transpose(2, 0, 1)
    return out


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
    whose values tag its slots.  `factorize` turns an interior block into its LU solve.

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
        # The interior block's column order and a copy of its inverse
        # (``perm_c``), recorded by the first `factorize`.
        self._columns = None

    def assemble(self, elem_mats: np.ndarray) -> sp.csr_matrix:
        """Sum ``(ne, ndof, ndof)`` element matrices into a CSR matrix."""
        return self.matrix(np.bincount(self.slot, elem_mats.ravel()[self.perm], minlength=self.nnz))

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix with values ``data`` on this pattern."""
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)

    def factorize(self, A_red: sp.csr_matrix):
        """Sparse LU of an interior block ``A_red``, as `interior` takes it:
        the function ``b_red -> x_red`` that solves with it, ``x_red`` in
        interior-dof order.  NoConvergence is raised for a singular factor,
        and by the function for a solution that is not finite.

        SuperLU's fill-reducing column order (``argsort(lu.perm_c)``) depends
        on the structure alone, which every interior block shares: the first
        call factors ``A_red.tocsc()`` with COLAMD and records that order,
        later ones factor ``A_red.tocsc()[:, order]`` in natural order
        (SuperLU's ``SamePattern``); their solutions are read back through a
        copy of the first ``perm_c`` (``perm_c`` itself keeps its factor
        alive).  Pivoting prefers the diagonal only on a tie with the column
        maximum; away from ties, as on these SPD systems, L, U and the row
        pivots are COLAMD's.
        """
        try:
            if self._columns is None:
                lu, unknowns = spla.splu(A_red.tocsc()), slice(None)
                self._columns = (np.argsort(lu.perm_c), lu.perm_c.copy())
            else:
                order, unknowns = self._columns
                lu = spla.splu(A_red.tocsc()[:, order], permc_spec="NATURAL")
        except RuntimeError as exc:  # a singular factor
            raise NoConvergence(f"sparse factorization failed: {exc}") from exc

        def solve(b_red):
            x_red = lu.solve(b_red)[unknowns]
            if not np.all(np.isfinite(x_red)):
                raise NoConvergence("sparse factorization produced non-finite values")
            return x_red

        return solve

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
    """Element matrices ``sum_q s[e,q] grad[q,:,i,e] . grad[q,:,j,e]``.

    Bit for bit the einsum ``"eq,eqia,eqja->eij"`` of ``s`` and the table in
    element-first order, with a one-point ``grad`` standing for every point
    of ``s``: for each quadrature point it forms ``(s g_i0) g_j0 + (s g_i1)
    g_j1`` and adds that to a sum started at zero, one point after another.
    The table is element-last, so every product is one long contiguous loop.
    """
    (ne, nq), ndof = s.shape, grad.shape[2]
    out = np.empty((ne, ndof, ndof))
    for lo in range(0, ne, _CHUNK):
        g = grad[..., lo : lo + _CHUNK].copy()  # (nq or 1, 2, ndof, block); a copy reads faster
        sg = s[lo : lo + _CHUNK].T[:, None, None, :] * g
        g = np.broadcast_to(g, sg.shape)
        acc = np.zeros((ndof, ndof, g.shape[-1]))
        term = np.empty_like(acc)
        term1 = np.empty_like(acc)
        for q in range(nq):
            np.multiply(sg[q, 0, :, None], g[q, 0, None, :], out=term)
            term += np.multiply(sg[q, 1, :, None], g[q, 1, None, :], out=term1)
            acc += term
        out[lo : lo + _CHUNK] = acc.transpose(2, 0, 1)
    return out


def _scatter(space: FeSpace, values: np.ndarray) -> np.ndarray:
    """Load vector ``b_i = sum_e sum_q values[e,q] wdet[e,q] N[q,i]`` of
    ``(ne, nq)`` values at the assembly points: the element contributions
    are summed into the nodes in element order from zero (as ``np.add.at``
    does).  ``values`` is a temporary of the caller's: it is weighted in
    place, which saves one array of its size at the peak of a load."""
    tb = space.tables
    contrib = np.einsum("eq,qi->ei", np.multiply(values, tb.wdet, out=values), tb.N)
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
    """Load vector ``b_i = (f, phi_i)`` for a spatial function ``f(x, y)``,
    evaluated block by block at the assembly points by `RuleTables.evaluate`."""
    return _scatter(space, space.tables.evaluate(f))


def assemble_joule_load(space: FeSpace, sigma_star: np.ndarray, phi_coeffs: np.ndarray) -> np.ndarray:
    """Joule heating load ``b_i = (sigma* |grad Phi_h|^2, phi_i)``.

    The gradient of the FE potential ``Phi_h`` is evaluated exactly at the
    assembly quadrature points; ``sigma_star`` is a coefficient field there.
    """
    sigma_star = _check_coefficient(space, sigma_star)
    _check_vector("phi_coeffs", phi_coeffs, space.n_dofs)
    tb = space.tables
    g = _gradients(tb.grad, phi_coeffs[space.mesh.elements.T], np.empty((tb.grad.shape[-1], tb.grad.shape[0], 2)))
    g2 = g[..., 0] ** 2 + g[..., 1] ** 2  # once per element where tb.grad holds one point
    return _scatter(space, sigma_star * g2)


# ----------------------------------------------------------------------------
# Dirichlet boundary conditions and linear solves
# ----------------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` summed by numpy's own loop, not by BLAS: BLAS splits a long
    sum across its threads, so its bits would depend on the thread count.
    Every inner product and norm of the solves goes through here."""
    return np.einsum("i,i->", a, b)


def solve_spd(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite sparse system by preconditioned CG.

    Jacobi-preconditioned conjugate gradients from a zero initial guess, to
    relative residual `CG_RTOL` in at most ``min(50 * n, 200 * isqrt(n))``
    iterations: a cap that grows like the mesh parameter ``M`` on an
    ``M x M`` grid, 51,000 at ``M = 256`` where CG converges in under 1,000,
    so a solve that cannot converge stops after about a minute there, not
    an hour.  The sums go through `_dot`: the same bits at any BLAS thread
    count.  The loop runs on the load scaled by the power of two that puts
    its largest entry in ``[1/2, 1)``, and the answer is scaled back: every
    quantity of the loop scales exactly with it, so the bits are those of
    the unscaled loop wherever that stays clear of underflow, and the inner
    products of a tiny load do not underflow to zero.

    Raises
    ------
    NoConvergence
        If the load is not finite, if the matrix has a diagonal entry that
        is not positive, if a search direction ``p`` meets ``p . Ap`` that
        is not positive (an indefinite matrix, or NaN), or if the iteration
        cap is reached.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise NoConvergence("the reduced load has non-finite values")
    diag = A.diagonal()
    if not np.all(diag > 0):
        raise NoConvergence("matrix has a non-positive diagonal entry; not SPD")
    e = int(np.frexp(np.abs(b).max(initial=0.0))[1])
    b = np.ldexp(b, -e)
    # Divide by the diagonal: the solutions are pinned bit for bit to the
    # reference Jacobi CG, and multiplying by the reciprocal rounds differently.
    x = np.zeros_like(b)
    r = b.copy()
    p = z = r / diag
    rz = _dot(r, z)
    stop = CG_RTOL * math.sqrt(_dot(b, b))
    max_iter = min(50 * b.size, 200 * math.isqrt(b.size))
    for _ in range(max_iter):
        if math.sqrt(_dot(r, r)) <= stop:
            return np.ldexp(x, e)
        q = A @ p
        pq = _dot(p, q)
        if not pq > 0.0:
            raise NoConvergence("conjugate gradients broke down; matrix not SPD")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = r / diag
        rz, rz_old = _dot(r, z), rz
        p = z + (rz / rz_old) * p
    raise NoConvergence(f"conjugate gradients did not converge in {max_iter} iterations")


class DirichletSystem:
    """A Dirichlet-reduced SPD system prepared for one or many solves.

    ``A`` must lie on the space's sparsity pattern, as every assembled
    matrix does (else ValueError).  The interior block ``A_red`` and the
    interior x boundary block ``A_ib`` are gathered through the pattern's
    slot maps; they equal ``A[I][:, I]`` and ``A[I][:, B]`` bit for bit.
    One function, chosen here, solves with ``A_red``: ``method="direct"``
    factorizes it once (sparse LU, deterministic, in the column order of the
    space's first factorization: `SparsityPattern.factorize`), and
    ``method="cg"`` calls `solve_spd` (Jacobi CG) per right-hand side.
    """

    def __init__(self, space: FeSpace, A: sp.spmatrix, method: str = "direct"):
        if method not in SOLVERS:
            raise ValueError(f"method must be one of {SOLVERS}, got {method!r}")
        self.space = space
        pattern = space.pattern
        A = A.tocsr()
        if not pattern.holds(A):
            raise ValueError("the matrix is not on the space's sparsity pattern")
        self.A_red = A_red = pattern.interior.take(A.data)
        self.A_ib = pattern.interior_boundary.take(A.data)
        # `solve_spd` is looked up at each call: a wrapper installed later sees it.
        self._solve = pattern.factorize(A_red) if method == "direct" else lambda b_red: solve_spd(A_red, b_red)

    def solve(self, b: np.ndarray, boundary_values: np.ndarray) -> tuple[np.ndarray, float]:
        """Solve for the full nodal vector given a full load vector and the
        values on ``space.boundary_dofs``, in that order.  Returns it with the
        `residual` of the reduced system at its interior values.  A reduced
        load that is not finite raises NoConvergence before either solver."""
        g = np.asarray(boundary_values, dtype=float)
        _check_vector("boundary_values", g, self.space.boundary_dofs.size)
        _check_vector("b", b, self.space.n_dofs)
        b_red = b[self.space.interior_dofs] - self.A_ib @ g
        if not np.all(np.isfinite(b_red)):
            raise NoConvergence("the reduced load has non-finite values")
        # The result outlives the solve's temporaries: allocated after them,
        # it would sit above their freed space in the heap, which raised the
        # peak RSS of a quad M=256 CG run by 8 MB, one error-rule array.
        full = np.zeros(self.space.n_dofs)
        full[self.space.boundary_dofs] = g
        full[self.space.interior_dofs] = x_red = self._solve(b_red)
        return full, self.residual(x_red, b_red)

    def residual(self, x_red: np.ndarray, b_red: np.ndarray) -> float:
        """Relative residual ``|b_red - A_red x_red| / |b_red|`` of the reduced
        system (absolute for a zero load)."""
        r = b_red - self.A_red @ x_red
        norm_r, norm_b = math.sqrt(_dot(r, r)), math.sqrt(_dot(b_red, b_red))
        return norm_r / norm_b if norm_b > 0 else norm_r
