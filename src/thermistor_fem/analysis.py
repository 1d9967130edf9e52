"""Interpolation, error norms, post-processing, and convergence orders.

The macroelement post-processing operator takes the nodal values of a finite
element function and replaces them, block by block, with the unique
biquadratic (quad blocks) or quadratic (triangle blocks) polynomial that
interpolates the values at the block anchors.  Because adjacent blocks share
their edge anchors, the result is a continuous piecewise polynomial whose
gradient converges one order faster than the FE gradient for supercloseness
reasons; it only ever sees nodal values, so applying it to the nodal
interpolant of a smooth function gives the same result as applying it to the
function itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import FeSpace, RuleTables
from .mesh import MacroBlock, Mesh

__all__ = [
    "interpolate_nodal",
    "PostProcessedField",
    "i2h_postprocess",
    "l2_error",
    "h1_error",
    "h1_error_postprocessed",
    "l2_error_postprocessed",
    "fe_l2_norm",
    "fe_h1_norm",
    "convergence_order",
    "eoc",
]


def interpolate_nodal(space: FeSpace, field, t: float) -> np.ndarray:
    """Nodal interpolant: evaluate ``field(x, y, t)`` at every mesh node."""
    x = space.mesh.nodes[:, 0]
    y = space.mesh.nodes[:, 1]
    return np.asarray(field(x, y, t), dtype=float)


# ----------------------------------------------------------------------------
# Macroelement post-processing
# ----------------------------------------------------------------------------

# Monomial exponent tables for the block polynomial spaces.
_POWERS = {
    "Q2": np.array([(i, j) for j in range(3) for i in range(3)]),
    "P2": np.array([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
}


@dataclass(frozen=True)
class PostProcessedField:
    """Piecewise polynomial produced by macroelement post-processing.

    The polynomial on block ``b`` is ``sum_k coeffs[b, k] *
    (x - center[b,0])**powers[k,0] * (y - center[b,1])**powers[k,1]``.

    ``block_of_element`` maps each fine element to its block, which is how the
    field is evaluated on quadrature tables for norm computations.
    """

    mesh: Mesh
    poly: str
    powers: np.ndarray
    coeffs: np.ndarray
    centers: np.ndarray
    block_of_element: np.ndarray

    def _local(self, block_ids, points):
        return points - self.centers[block_ids]

    def values_in_blocks(self, block_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate at ``points`` (..., 2) lying in the given blocks (...,)."""
        d = self._local(block_ids, points)
        mono = d[..., None, 0] ** self.powers[:, 0] * d[..., None, 1] ** self.powers[:, 1]
        return np.einsum("...k,...k->...", mono, self.coeffs[block_ids])

    def gradients_in_blocks(self, block_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
        d = self._local(block_ids, points)
        px = self.powers[:, 0]
        py = self.powers[:, 1]
        # d/dx of x^p y^q is p x^(p-1) y^q; clip keeps 0^negative out.
        gx = (
            px
            * d[..., None, 0] ** np.maximum(px - 1, 0)
            * d[..., None, 1] ** py
        )
        gy = (
            py
            * d[..., None, 0] ** px
            * d[..., None, 1] ** np.maximum(py - 1, 0)
        )
        c = self.coeffs[block_ids]
        return np.stack(
            [np.einsum("...k,...k->...", gx, c), np.einsum("...k,...k->...", gy, c)],
            axis=-1,
        )

    def values_on_tables(self, tables: RuleTables) -> np.ndarray:
        ids = self.block_of_element[:, None]
        return self.values_in_blocks(np.broadcast_to(ids, tables.x.shape[:2]), tables.x)

    def gradients_on_tables(self, tables: RuleTables) -> np.ndarray:
        ids = self.block_of_element[:, None]
        return self.gradients_in_blocks(np.broadcast_to(ids, tables.x.shape[:2]), tables.x)

    def locate_blocks(self, points: np.ndarray) -> np.ndarray:
        """Map physical points to block indices (structured-layout lookup)."""
        M = self.mesh.M
        nb = M // 2
        pts = np.atleast_2d(points)
        I = np.clip((pts[:, 0] * nb).astype(int), 0, nb - 1)
        J = np.clip((pts[:, 1] * nb).astype(int), 0, nb - 1)
        if self.poly == "Q2":
            return J * nb + I
        # Triangle blocks come in (lower, upper) pairs per coarse cell, cut
        # along the lower-right to upper-left diagonal.
        xi = pts[:, 0] * nb - I
        eta = pts[:, 1] * nb - J
        upper = xi + eta > 1.0
        return 2 * (J * nb + I) + upper.astype(int)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at arbitrary points of the unit square."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = self.values_in_blocks(self.locate_blocks(pts), pts)
        return vals if np.asarray(points).ndim > 1 else vals[0]


def i2h_postprocess(space: FeSpace, blocks: list[MacroBlock], coeffs: np.ndarray) -> PostProcessedField:
    """Apply the macroelement post-processing operator to nodal values.

    Solves, for every block, the small interpolation system that matches the
    block polynomial to ``coeffs`` at the anchor nodes.  All block systems are
    solved in one batched call.
    """
    if not blocks:
        raise ValueError("no macroelement blocks given")
    poly = blocks[0].poly
    powers = _POWERS[poly]
    mesh = space.mesh

    anchors = np.array([b.anchor_nodes for b in blocks])  # (nb, na)
    fine = np.array([b.fine_elements for b in blocks])  # (nb, 4)
    pts = mesh.nodes[anchors]  # (nb, na, 2)
    centers = pts.mean(axis=1)  # (nb, 2)
    d = pts - centers[:, None, :]
    # Vandermonde in centered monomials: (nb, na, nterms)
    V = d[:, :, None, 0] ** powers[:, 0] * d[:, :, None, 1] ** powers[:, 1]
    if V.shape[1] != V.shape[2]:
        raise ValueError(
            f"block anchors ({V.shape[1]}) do not match the {poly} space ({V.shape[2]} terms)"
        )
    rhs = np.asarray(coeffs, dtype=float)[anchors]
    block_coeffs = np.linalg.solve(V, rhs[..., None])[..., 0]

    block_of_element = np.full(mesh.n_elements, -1, dtype=int)
    block_of_element[fine.ravel()] = np.repeat(np.arange(len(blocks)), fine.shape[1])
    if np.any(block_of_element < 0):
        raise ValueError("macroelement blocks do not cover the mesh")

    return PostProcessedField(
        mesh=mesh,
        poly=poly,
        powers=powers,
        coeffs=block_coeffs,
        centers=centers,
        block_of_element=block_of_element,
    )


# ----------------------------------------------------------------------------
# Error norms (quadrature of degree >= 6 via the space's error rule)
# ----------------------------------------------------------------------------


def l2_error(space: FeSpace, coeffs: np.ndarray, exact, t: float) -> float:
    """``||u_h - u(t)||_0`` with the FE function given by nodal values."""
    tb = space.error_tables
    diff = space.values_at_quad(coeffs, tb) - exact(tb.x[..., 0], tb.x[..., 1], t)
    return float(np.sqrt(np.sum(tb.wdet * diff**2)))


def h1_error(space: FeSpace, coeffs: np.ndarray, exact, exact_grad, t: float) -> float:
    """Full H1 error ``sqrt(||u_h - u||_0^2 + ||grad(u_h - u)||_0^2)``.

    ``exact_grad(x, y, t)`` returns the pair of partial derivatives.
    """
    tb = space.error_tables
    diff = space.values_at_quad(coeffs, tb) - exact(tb.x[..., 0], tb.x[..., 1], t)
    gx, gy = exact_grad(tb.x[..., 0], tb.x[..., 1], t)
    g = space.gradients_at_quad(coeffs, tb)
    dgx = g[..., 0] - gx
    dgy = g[..., 1] - gy
    return float(np.sqrt(np.sum(tb.wdet * (diff**2 + dgx**2 + dgy**2))))


def fe_l2_norm(space: FeSpace, coeffs: np.ndarray) -> float:
    """L2 norm of an FE function (exact up to the error rule's degree)."""
    tb = space.error_tables
    v = space.values_at_quad(coeffs, tb)
    return float(np.sqrt(np.sum(tb.wdet * v**2)))


def fe_h1_norm(space: FeSpace, coeffs: np.ndarray) -> float:
    """Full H1 norm of an FE function."""
    tb = space.error_tables
    v = space.values_at_quad(coeffs, tb)
    g = space.gradients_at_quad(coeffs, tb)
    return float(np.sqrt(np.sum(tb.wdet * (v**2 + g[..., 0] ** 2 + g[..., 1] ** 2))))


def l2_error_postprocessed(field: PostProcessedField, space: FeSpace, exact, t: float) -> float:
    """``||I_2h u_h - u(t)||_0`` for a post-processed field."""
    tb = space.error_tables
    diff = field.values_on_tables(tb) - exact(tb.x[..., 0], tb.x[..., 1], t)
    return float(np.sqrt(np.sum(tb.wdet * diff**2)))


def h1_error_postprocessed(
    field: PostProcessedField, space: FeSpace, exact, exact_grad, t: float
) -> float:
    """Full H1 error of a post-processed field against a smooth function."""
    tb = space.error_tables
    diff = field.values_on_tables(tb) - exact(tb.x[..., 0], tb.x[..., 1], t)
    gx, gy = exact_grad(tb.x[..., 0], tb.x[..., 1], t)
    g = field.gradients_on_tables(tb)
    dgx = g[..., 0] - gx
    dgy = g[..., 1] - gy
    return float(np.sqrt(np.sum(tb.wdet * (diff**2 + dgx**2 + dgy**2))))


def fe_h1_norm_postprocessed(field: PostProcessedField, space: FeSpace) -> float:
    """Full H1 norm of a post-processed field."""
    tb = space.error_tables
    v = field.values_on_tables(tb)
    g = field.gradients_on_tables(tb)
    return float(np.sqrt(np.sum(tb.wdet * (v**2 + g[..., 0] ** 2 + g[..., 1] ** 2))))


def convergence_order(e_coarse: float, e_fine: float, ratio: float) -> float:
    """Experimental order ``log(e_coarse / e_fine) / log(ratio)`` between two
    runs whose mesh size or time step differ by the factor ``ratio``; NaN
    unless both errors are positive."""
    if e_coarse > 0 and e_fine > 0:
        return float(np.log(e_coarse / e_fine) / np.log(ratio))
    return float("nan")


def eoc(pairs) -> list[float]:
    """Experimental orders of convergence from ``(h, error)`` pairs.

    ``order_k = log(e_{k-1}/e_k) / log(h_{k-1}/h_k)`` for consecutive pairs.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("need at least two (h, error) pairs")
    orders = []
    for (h0, e0), (h1, e1) in zip(pairs[:-1], pairs[1:]):
        if e0 <= 0 or e1 <= 0:
            raise ValueError(f"errors must be positive to compute orders, got {e0!r}, {e1!r}")
        if h0 <= h1:
            raise ValueError(f"h must decrease monotonically, got {h0!r} -> {h1!r}")
        orders.append(convergence_order(e0, e1, h0 / h1))
    return orders
