"""Finite element core: quadrature, assembly, boundary conditions, solvers.

Everything here is for continuous piecewise-bilinear elements on squares or
piecewise-linear elements on triangles, with one degree of freedom per mesh
node.  Assembly is vectorized over elements and returns ``scipy.sparse.csr``
matrices.

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
    "FeSpace",
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
    coords = mesh.nodes[mesh.elements]  # (ne, ndof, 2)

    # The sums below run over the element nodes (or the reference axes) in
    # index order: that reproduces the einsum formulas in the comments bit
    # for bit, at about half their cost.
    # Jacobian of the reference-to-physical map at each quadrature point:
    # J[e,q,a,b] = sum_i dN[q,i,b] * coords[e,i,a]
    J = sum(dN[None, :, i, None, :] * coords[:, None, i, :, None] for i in range(N.shape[1]))
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    if np.any(detJ <= 0):
        raise ValueError("mesh contains degenerate or inverted elements")
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 0, 1]
    inv[..., 1, 0] = -J[..., 1, 0]
    inv[..., 1, 1] = J[..., 0, 0]
    inv /= detJ[..., None, None]

    # grad_x N = J^{-T} grad_ref N: grad[e,q,i,a] = sum_b inv[e,q,b,a] * dN[q,i,b]
    grad = (
        inv[:, :, None, 0, :] * dN[None, :, :, 0, None]
        + inv[:, :, None, 1, :] * dN[None, :, :, 1, None]
    )
    wdet = rule.weights[None, :] * detJ
    # x[e,q,a] = sum_i N[q,i] * coords[e,i,a]
    x = sum(N[None, :, i, None] * coords[:, None, i, :] for i in range(N.shape[1]))
    return RuleTables(rule=rule, N=N, grad=grad, wdet=wdet, x=x)


# ----------------------------------------------------------------------------
# Finite element space
# ----------------------------------------------------------------------------


class FeSpace:
    """Nodal finite element space on a structured mesh.

    Parameters
    ----------
    mesh : Mesh
    assembly_points : int, optional
        Assembly quadrature: Gauss points per direction for quads (default 3)
        or polynomial degree for triangles (default 5).
    error_points : int, optional
        Error-norm quadrature: Gauss points per direction for quads (default
        4) or polynomial degree for triangles (default 6).  Quad rules need
        at least 3 points (exact to degree 5, like the coarsest triangle rule).
    """

    def __init__(self, mesh: Mesh, assembly_points: int | None = None, error_points: int | None = None):
        self.mesh = mesh
        self.n_dofs = mesh.n_nodes
        self.boundary_dofs = mesh.boundary_nodes
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        self.interior_dofs = np.nonzero(mask)[0]

        if mesh.elem_kind == "quad":
            if min(assembly_points or 3, error_points or 4) < 3:
                raise ValueError(
                    "quads need Gauss rules of at least 3 points per direction, got "
                    f"assembly_points={assembly_points}, error_points={error_points}"
                )
            a_rule = gauss_rule_square(assembly_points or 3)
            e_rule = gauss_rule_square(error_points or 4)
        else:
            a_rule = gauss_rule_triangle(assembly_points or 5)
            e_rule = gauss_rule_triangle(error_points or 6)
        self.tables = _build_tables(mesh, a_rule)
        self._error_rule = e_rule
        self._error_tables = None

        ndof = mesh.elements.shape[1]
        self._rows = np.broadcast_to(
            mesh.elements[:, :, None], (mesh.n_elements, ndof, ndof)
        ).ravel()
        self._cols = np.broadcast_to(
            mesh.elements[:, None, :], (mesh.n_elements, ndof, ndof)
        ).ravel()

    @property
    def error_tables(self) -> RuleTables:
        """Tables for the finer error-norm rule (built lazily)."""
        if self._error_tables is None:
            self._error_tables = _build_tables(self.mesh, self._error_rule)
        return self._error_tables

    def values_at_quad(self, coeffs: np.ndarray, tables: RuleTables | None = None) -> np.ndarray:
        """Evaluate the FE function at quadrature points, shape ``(ne, nq)``."""
        tb = tables if tables is not None else self.tables
        nodal = coeffs[self.mesh.elements]  # (ne, ndof)
        return np.einsum("qi,ei->eq", tb.N, nodal)

    def gradients_at_quad(self, coeffs: np.ndarray, tables: RuleTables | None = None) -> np.ndarray:
        """Evaluate the FE gradient at quadrature points, shape ``(ne, nq, 2)``."""
        tb = tables if tables is not None else self.tables
        nodal = coeffs[self.mesh.elements]
        return np.einsum("eqia,ei->eqa", tb.grad, nodal)

    def _to_csr(self, elem_mats: np.ndarray) -> sp.csr_matrix:
        A = sp.coo_matrix(
            (elem_mats.ravel(), (self._rows, self._cols)), shape=(self.n_dofs, self.n_dofs)
        )
        return A.tocsr()


# ----------------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------------


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """Mass matrix ``A_ij = (phi_j, phi_i)``."""
    tb = space.tables
    elem = np.einsum("eq,qi,qj->eij", tb.wdet, tb.N, tb.N)
    return space._to_csr(elem)


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    """Stiffness matrix ``A_ij = (grad phi_j, grad phi_i)``."""
    tb = space.tables
    elem = np.einsum("eq,eqia,eqja->eij", tb.wdet, tb.grad, tb.grad)
    return space._to_csr(elem)


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
        If the coefficient is not strictly positive (min <= 1e-10): the
        resulting operator could not be guaranteed elliptic.
    """
    sigma_star = _check_coefficient(space, sigma_star)
    smin = sigma_star.min()
    if smin <= POSITIVITY_FLOOR:
        raise ConductivityNotPositive(
            f"coefficient field min {smin:.3e} <= {POSITIVITY_FLOOR:.0e}; "
            "the weighted form is not uniformly elliptic"
        )
    tb = space.tables
    elem = np.einsum("eq,eqia,eqja->eij", sigma_star * tb.wdet, tb.grad, tb.grad)
    return space._to_csr(elem)


def assemble_load(space: FeSpace, f) -> np.ndarray:
    """Load vector ``b_i = (f, phi_i)`` for a spatial function ``f(x, y)``."""
    tb = space.tables
    fq = f(tb.x[..., 0], tb.x[..., 1])
    fq = np.broadcast_to(np.asarray(fq, dtype=float), tb.wdet.shape)
    contrib = np.einsum("eq,qi->ei", fq * tb.wdet, tb.N)
    b = np.zeros(space.n_dofs)
    np.add.at(b, space.mesh.elements, contrib)
    return b


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
    b = np.zeros(space.n_dofs)
    np.add.at(b, space.mesh.elements, contrib)
    return b


# ----------------------------------------------------------------------------
# Dirichlet boundary conditions and linear solves
# ----------------------------------------------------------------------------


def solve_spd(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Solve a symmetric positive definite sparse system by preconditioned CG.

    Deterministic conjugate gradients with a Jacobi preconditioner, relative
    residual tolerance ``tol``, zero initial guess.

    Raises
    ------
    NoConvergence
        If the iteration hits ``50 * n`` iterations, or the matrix reveals
        itself as not positive definite.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n)
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise NoConvergence("matrix has a non-positive diagonal entry; not SPD")

    x = np.zeros(n)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = r @ z
    max_iter = 50 * n
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * norm_b:
            return x
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise NoConvergence("conjugate gradients broke down; matrix not SPD")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = r / diag
        rz_next = r @ z
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
    if np.linalg.norm(r) <= tol * norm_b:
        return x
    raise NoConvergence(f"conjugate gradients did not converge in {max_iter} iterations")


class DirichletSystem:
    """A Dirichlet-reduced SPD system prepared for one or many solves.

    ``method="direct"`` factorizes the reduced matrix once (sparse LU, which
    is deterministic); ``method="cg"`` uses `solve_spd` per right-hand side,
    at its default tolerance.
    """

    def __init__(self, space: FeSpace, A: sp.spmatrix, method: str = "direct"):
        if method not in ("direct", "cg"):
            raise ValueError(f"method must be 'direct' or 'cg', got {method!r}")
        self.space = space
        self.method = method
        A = A.tocsr()
        I = space.interior_dofs
        B = space.boundary_dofs
        rows = A[I]
        self.A_red = rows[:, I].tocsr()
        self.A_ib = rows[:, B].tocsr()
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
