"""Interpolation, error norms, post-processing, and convergence orders.

The macroelement post-processing operator takes the nodal values of a finite
element function and replaces them, block by block, with the unique
biquadratic (quad blocks) or quadratic (triangle blocks) polynomial that
interpolates the values at the block anchors.  Because adjacent blocks share
their edge anchors, the result is a continuous piecewise polynomial whose
gradient converges one order faster than the FE gradient for supercloseness
reasons; it only ever sees nodal values, so applying it to the nodal
interpolant of a smooth function gives the same result as applying it to the
function itself.  The blocks are the index arrays of `mesh.macroelements`.

On the uniform mesh every block is a translate of the blocks of its shape
(one shape for quads, two for triangles: below and above the block
diagonal), as `mesh.macroelements` lists them.  `i2h_postprocess` solves
one Vandermonde system per shape, built from its first block, with all
blocks of the shape as right-hand sides.  The field is only ever evaluated on
quadrature tables, as one monomial table per shape and fine-element slot,
taken from the first block of the shape, times the block coefficients; the
point-by-point reference evaluation lives in the tests' dense oracle.

Every norm here is `quadrature_norm` on the space's error rule and takes
evaluated fields, not nodal coefficients and callables: the exact values and
partials at the rule's points, an `FeEvaluation` of an FE function, or the
post-processed field.  The error report thus evaluates each quantity once
per field and hands it to every norm that reads it.  The subtractions are
those of evaluating per norm, so the numbers equal that formulation's (kept
in the tests' dense oracle) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .fem import FeSpace, RuleTables

__all__ = [
    "interpolate_nodal",
    "PostProcessedField",
    "FeEvaluation",
    "i2h_postprocess",
    "l2_error",
    "h1_error",
    "h1_error_postprocessed",
    "fe_l2_norm",
    "fe_h1_norm",
    "quadrature_norm",
    "convergence_order",
    "eoc",
]


def nodal_values(field, nodes: np.ndarray, t: float) -> np.ndarray:
    """``field(x, y, t)`` at each row ``(x, y)`` of ``nodes``; a field that
    returns a scalar is broadcast to the nodes."""
    values = np.asarray(field(nodes[:, 0], nodes[:, 1], t), dtype=float)
    return values if values.shape == nodes.shape[:1] else np.broadcast_to(values, nodes.shape[:1]).copy()


def interpolate_nodal(space: FeSpace, field, t: float) -> np.ndarray:
    """Nodal interpolant: evaluate ``field(x, y, t)`` at every mesh node."""
    return nodal_values(field, space.mesh.nodes, t)


# ----------------------------------------------------------------------------
# Macroelement post-processing
# ----------------------------------------------------------------------------

# Monomial exponents of the block polynomial spaces: Q2 on quad blocks, P2 on
# triangle blocks.
_POWERS = {
    "quad": np.array([(i, j) for j in range(3) for i in range(3)]),
    "tri": np.array([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
}


def _monomials(d: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """``dx**p * dy**q`` for each row ``(p, q)`` of ``powers``: (..., 2) -> (..., n_terms)."""
    return d[..., None, 0] ** powers[:, 0] * d[..., None, 1] ** powers[:, 1]


def _derivative_monomials(d: np.ndarray, powers: np.ndarray, axis: int) -> np.ndarray:
    """Partial derivative along ``axis`` of each monomial: (..., 2) -> (..., n_terms)."""
    # d/dx of x^p y^q is p x^(p-1) y^q; clip keeps 0^negative out.
    lowered = np.maximum(powers - np.eye(2, dtype=int)[axis], 0)
    return powers[:, axis] * _monomials(d, lowered)


@dataclass(frozen=True)
class PostProcessedField:
    """Piecewise polynomial produced by macroelement post-processing.

    The polynomial on block ``b`` is ``sum_k coeffs[b, k] *
    (x - center[b,0])**powers[k,0] * (y - center[b,1])**powers[k,1]``.

    ``fine`` holds the fine elements of each block and ``shapes`` the block
    indices of each block shape, as `mesh.macroelements` returns them.  The
    field is evaluated on quadrature tables, per shape: the blocks of one
    shape are translates of each other, so the monomials at the points of
    fine slot ``k`` are the same for all of them and are taken from the
    shape's first block.
    """

    powers: np.ndarray
    coeffs: np.ndarray
    centers: np.ndarray
    fine: np.ndarray
    shapes: tuple

    def _fill_on_tables(self, out: np.ndarray, tables: RuleTables, monomials) -> None:
        """Write ``sum_k coeffs[b, k] * monomials(x - center[b])[k]`` at the
        points of ``tables`` into ``out`` (``(ne, nq)``), one product per shape."""
        for blocks in self.shapes:
            first = blocks[0]
            mono = monomials(tables.x[self.fine[first]] - self.centers[first])  # (4, nq, n_terms)
            vals = self.coeffs[blocks] @ mono.reshape(-1, mono.shape[-1]).T
            out[self.fine[blocks]] = vals.reshape(len(blocks), *mono.shape[:-1])

    def values_on_tables(self, tables: RuleTables) -> np.ndarray:
        out = np.empty(tables.wdet.shape)
        self._fill_on_tables(out, tables, partial(_monomials, powers=self.powers))
        return out

    def gradients_on_tables(self, tables: RuleTables) -> np.ndarray:
        out = np.empty(tables.x.shape)
        for axis in (0, 1):
            monomials = partial(_derivative_monomials, powers=self.powers, axis=axis)
            self._fill_on_tables(out[..., axis], tables, monomials)
        return out


def i2h_postprocess(
    space: FeSpace, blocks: tuple[np.ndarray, np.ndarray, tuple], coeffs: np.ndarray
) -> PostProcessedField:
    """Apply the macroelement post-processing operator to nodal values.

    ``blocks`` is the ``(anchors, fine, shapes)`` triple of
    `mesh.macroelements`.  Solves, for every block, the small interpolation
    system that matches the block polynomial to ``coeffs`` at the anchor
    nodes.  The blocks of one shape share one system, built from its first
    block and solved once with all of their anchor values as right-hand sides.
    """
    anchors, fine, shapes = blocks  # (nb, na), (nb, 4), per-shape block ids
    mesh = space.mesh
    if np.bincount(fine.ravel(), minlength=mesh.n_elements).min() == 0:
        raise ValueError("macroelement blocks do not cover the mesh")
    powers = _POWERS[mesh.elem_kind]
    centers = mesh.nodes[anchors].mean(axis=1)  # (nb, 2)
    # One matrix serves all blocks of a shape, so its rounding errors do not
    # average out over the blocks.  Solving for the anchor values less the
    # block's first one (the constant monomial, column 0, is exactly 1) makes
    # those errors scale with the field's variation over the block, not with
    # the field itself divided by h in the gradient coefficients.
    values = np.asarray(coeffs, dtype=float)[anchors]
    base = values[:, 0]
    rhs = values - base[:, None]
    block_coeffs = np.empty((len(anchors), len(powers)))
    for ids in shapes:
        # Vandermonde in centered monomials, (na, nterms); anchors of the other
        # element kind make it non-square, which solve rejects (LinAlgError).
        V = _monomials(mesh.nodes[anchors[ids[0]]] - centers[ids[0]], powers)
        block_coeffs[ids] = np.linalg.solve(V, rhs[ids].T).T
    block_coeffs[:, 0] += base
    return PostProcessedField(powers, block_coeffs, centers, fine, shapes)


# ----------------------------------------------------------------------------
# Error norms (quadrature of degree >= 6 via the space's error rule)
# ----------------------------------------------------------------------------


def quadrature_norm(tables: RuleTables, values: np.ndarray, grads: np.ndarray | None = None) -> float:
    """``sqrt(sum(wdet * (values**2 + |grads|**2)))`` over the points of
    ``tables``: the L2 norm of ``values`` (``(ne, nq)``), or the full H1 norm
    when the gradients (``(ne, nq, 2)``) are given."""
    # In place, in the order written above: one array and one temporary.
    s = values**2
    if grads is not None:
        s += grads[..., 0] ** 2
        s += grads[..., 1] ** 2
    s *= tables.wdet
    return float(np.sqrt(np.sum(s)))


class FeEvaluation:
    """An FE function on its space's error rule: ``values`` ``(ne, nq)`` and
    ``grads`` ``(ne, nq, 2)`` at the rule's points.

    Each is evaluated once, on first read, and kept for the next norm that
    reads it: the evaluation is part of the first norm that needs it, so a
    traced benchmark run counts it in that norm's layer.  `h1_error` takes
    the gradients over: it subtracts the exact gradient from them in place
    and drops them, so a later read evaluates them again.
    """

    def __init__(self, space: FeSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    @cached_property
    def values(self) -> np.ndarray:
        return self.space.values_at_quad(self.coeffs, self.space.error_tables)

    @cached_property
    def grads(self) -> np.ndarray:
        return self.space.gradients_at_quad(self.coeffs, self.space.error_tables)


def l2_error(fe: FeEvaluation, exact_values: np.ndarray) -> float:
    """``||u_h - u||_0`` from the exact values at the error-rule points."""
    return quadrature_norm(fe.space.error_tables, fe.values - exact_values)


def h1_error(fe: FeEvaluation, exact_values: np.ndarray, exact_grads) -> float:
    """Full H1 error ``sqrt(||u_h - u||_0^2 + ||grad(u_h - u)||_0^2)``.

    ``exact_grads`` is the pair of partial derivatives at the error-rule
    points; they are subtracted from ``fe.grads`` in place, which ``fe``
    then drops.
    """
    grads = fe.grads
    del fe.grads
    grads[..., 0] -= exact_grads[0]
    grads[..., 1] -= exact_grads[1]
    return quadrature_norm(fe.space.error_tables, fe.values - exact_values, grads)


def fe_l2_norm(fe: FeEvaluation) -> float:
    """L2 norm of an FE function (exact up to the error rule's degree)."""
    return quadrature_norm(fe.space.error_tables, fe.values)


def fe_h1_norm(fe: FeEvaluation) -> float:
    """Full H1 norm of an FE function."""
    return quadrature_norm(fe.space.error_tables, fe.values, fe.grads)


def h1_error_postprocessed(
    field: PostProcessedField, space: FeSpace, exact_values: np.ndarray, exact_grads
) -> float:
    """Full H1 error of a post-processed field, from the exact values and the
    pair of exact partial derivatives at the points of ``space``'s error rule."""
    tb = space.error_tables
    grads = field.gradients_on_tables(tb)
    grads[..., 0] -= exact_grads[0]
    grads[..., 1] -= exact_grads[1]
    return quadrature_norm(tb, field.values_on_tables(tb) - exact_values, grads)


def convergence_order(e_coarse: float, e_fine: float, ratio: float) -> float:
    """Experimental order ``log(e_coarse / e_fine) / log(ratio)`` between two
    runs whose mesh size or time step differ by the factor ``ratio``; NaN
    unless both errors are positive and finite."""
    if 0 < e_coarse < np.inf and 0 < e_fine < np.inf:
        return float(np.log(e_coarse / e_fine) / np.log(ratio))
    return float("nan")


def eoc(pairs) -> list[float]:
    """Experimental orders of convergence from ``(h, error)`` pairs.

    ``order_k = log(e_{k-1}/e_k) / log(h_{k-1}/h_k)`` for consecutive pairs.
    Raises ValueError unless every error and every ``h`` is positive and
    finite and ``h`` strictly decreases (NaN fails both checks).
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("need at least two (h, error) pairs")
    orders = []
    for (h0, e0), (h1, e1) in zip(pairs[:-1], pairs[1:]):
        if not (0 < e0 < np.inf and 0 < e1 < np.inf):  # NaN fails too
            raise ValueError(f"errors must be positive and finite to compute orders, got {e0!r}, {e1!r}")
        if not np.inf > h0 > h1 > 0:  # NaN fails too
            raise ValueError(f"h must be positive, finite and decreasing, got {h0!r} -> {h1!r}")
        orders.append(convergence_order(e0, e1, h0 / h1))
    return orders
