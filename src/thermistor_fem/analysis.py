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
blocks of the shape as right-hand sides, and returns the lift as a
`PostProcessedField` on its space.  The lift is only ever evaluated on that
space's error rule, as one monomial table per shape and fine-element slot,
tabulated once from the first block of the shape, times the block
coefficients; the point-by-point reference evaluation lives in the tests'
dense oracle.

A field here, an `FeEvaluation` or a `PostProcessedField`, knows its space
and answers ``values(lo, hi)`` and ``derivative(lo, hi, axis)`` on a block
of elements.  Every norm is `_norm` of one field, L2 or H1, on its space's
error rule, the one path that evaluates there: over the exact values and
partials at the rule's points (`exact_fields`, once per field, refused
unless they have the rule's shape), and the field, evaluated block by block
inside each norm and never whole.  `_norm` subtracts the exact arrays in
place; the subtractions are those of the per-norm, whole-array formulation
kept in the tests' dense oracle, whose numbers they equal bit for bit.  An
integrand is written one block of elements at a time into one array, which
one whole-array `np.sum` sums; on a space of eight blocks of `fem._CHUNK`
elements or more, the blocks of a second range are written at the same time
on a helper thread (`fem._fill`).
"""

from __future__ import annotations

import numpy as np

from .fem import FeSpace, _blocks, _check_vector, _fill, _gradients

__all__ = [
    "interpolate_nodal",
    "PostProcessedField",
    "FeEvaluation",
    "i2h_postprocess",
    "l2_error",
    "h1_error",
    "h1_error_postprocessed",
    "exact_fields",
    "fe_l2_norm",
    "fe_h1_norm",
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


class PostProcessedField:
    """Piecewise polynomial produced by macroelement post-processing, on the
    error rule of its space: ``values(lo, hi)`` and ``derivative(lo, hi,
    axis)``, the partial derivative along ``axis``, each ``(hi - lo, nq)``,
    at the rule's points of the elements ``lo:hi``, as `FeEvaluation` gives
    them.  ``lo:hi`` must hold whole blocks in the order of
    `mesh.macroelements` (whole rows of ``2 x 2`` patches, `_patch_blocks`).

    The polynomial on block ``b`` is ``sum_k coeffs[b, k] *
    (x - centers[b,0])**powers[k,0] * (y - centers[b,1])**powers[k,1]``.
    ``fine`` holds the fine elements of each block and ``shapes`` the block
    indices of each block shape, as `mesh.macroelements` returns them.  The
    blocks of one shape are translates of each other, so the monomials at
    the points of fine slot ``k`` are the same for all of them: they and
    their partials are tabulated when the field is made, once per shape, at
    the points of the shape's first block.  A call takes one matrix product
    per shape, with the coefficients of the shape's blocks in ``lo:hi``.
    """

    def __init__(self, space: FeSpace, powers, coeffs, centers, fine, shapes):
        self.space = space
        self.powers, self.coeffs, self.centers, self.fine, self.shapes = powers, coeffs, centers, fine, shapes
        x = space.error_tables.x
        self._tables = []
        for blocks in shapes:
            d = x[fine[blocks[0]]] - centers[blocks[0]]  # (4, nq, 2)
            tabs = (_monomials(d, powers), *(_derivative_monomials(d, powers, axis) for axis in (0, 1)))
            self._tables.append((blocks, fine[blocks, 0], [t.reshape(-1, len(powers)).T for t in tabs]))

    def _table(self, lo: int, hi: int, k: int) -> np.ndarray:
        nq = self.space.error_tables.wdet.shape[1]
        out = np.empty((hi - lo, nq))
        for blocks, starts, tabs in self._tables:
            ids = blocks[slice(*np.searchsorted(starts, (lo, hi)))]
            out[self.fine[ids] - lo] = (self.coeffs[ids] @ tabs[k]).reshape(len(ids), 4, nq)
        return out

    def values(self, lo: int, hi: int) -> np.ndarray:
        return self._table(lo, hi, 0)

    def derivative(self, lo: int, hi: int, axis: int) -> np.ndarray:
        return self._table(lo, hi, 1 + axis)


def i2h_postprocess(
    space: FeSpace, blocks: tuple[np.ndarray, np.ndarray, tuple], coeffs: np.ndarray
) -> PostProcessedField:
    """Apply the macroelement post-processing operator to nodal values: the
    lift of ``coeffs``, a `PostProcessedField` on ``space``.

    ``blocks`` is the ``(anchors, fine, shapes)`` triple of
    `mesh.macroelements`; blocks whose fine elements are not the space's
    elements, each once, raise ValueError.  Solves, for every block, the
    small interpolation system that matches the block polynomial to
    ``coeffs`` at the anchor nodes.  The blocks of one shape share one
    system, built from its first block and solved once with all of their
    anchor values as right-hand sides.
    """
    anchors, fine, shapes = blocks  # (nb, na), (nb, 4), per-shape block ids
    mesh = space.mesh
    _check_vector("coeffs", coeffs, space.n_dofs)
    counts = np.bincount(fine.ravel(), minlength=mesh.n_elements)
    if len(counts) != mesh.n_elements or np.any(counts != 1):
        raise ValueError(f"macroelement blocks do not cover the mesh's {mesh.n_elements} elements once each")
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
        # Vandermonde in centered monomials, (na, nterms).
        V = _monomials(mesh.nodes[anchors[ids[0]]] - centers[ids[0]], powers)
        block_coeffs[ids] = np.linalg.solve(V, rhs[ids].T).T
    block_coeffs[:, 0] += base
    return PostProcessedField(space, powers, block_coeffs, centers, fine, shapes)


# ----------------------------------------------------------------------------
# Error norms (quadrature of degree >= 6 via the space's error rule)
# ----------------------------------------------------------------------------


def _patch_blocks(space: FeSpace) -> list:
    """`_blocks` of the space's elements in whole rows of ``2 x 2`` patches,
    so that every block holds whole blocks of `mesh.macroelements`."""
    mesh = space.mesh
    return _blocks(mesh.n_elements, 2 * mesh.n_elements // mesh.M)


def _norm(field, h1: bool, exact=()) -> float:
    """``sqrt(sum(wdet * (values**2 + |grad|**2)))`` over the points of the
    error rule of ``field.space``, where ``field`` is an `FeEvaluation` or a
    `PostProcessedField`: its ``values(lo, hi)`` gives new arrays of the
    values ``(hi - lo, nq)`` on the elements ``lo:hi`` and, with ``h1``,
    its ``derivative(lo, hi, axis)`` those of the partial derivative along
    ``axis`` there (else the L2 norm).  ``exact`` holds nothing (a norm), or
    the exact values and, with ``h1``, the two exact partials (an error):
    each is subtracted in place from what the field gives.  Each must have
    the rule's shape ``(ne, nq)``, else ValueError.  The integrand is
    written in place, in the order written above, block by block over
    `_patch_blocks` (`fem._fill`) into one array, which is summed once."""
    tb = field.space.error_tables
    for a in exact:
        if np.shape(a) != tb.wdet.shape:
            raise ValueError(f"exact fields must have the error rule's shape {tb.wdet.shape}, got {np.shape(a)}")
    s = np.empty(tb.wdet.shape)

    def fill(lo: int, hi: int) -> None:
        block = s[lo:hi]
        v = field.values(lo, hi)
        if exact:
            v -= exact[0][lo:hi]
        np.square(v, out=block)
        if h1:
            for axis in (0, 1):
                d = field.derivative(lo, hi, axis)
                if exact:
                    d -= exact[1 + axis][lo:hi]
                block += d**2
        block *= tb.wdet[lo:hi]

    _fill(_patch_blocks(field.space), fill)
    return float(np.sqrt(np.sum(s)))


def exact_fields(space: FeSpace, exact, grad, t: float) -> tuple[np.ndarray, tuple]:
    """``exact(x, y, t)`` and the pair ``grad(x, y, t)`` at the points of the
    space's error rule: the values ``(ne, nq)`` and the pair of partials.

    Each callable is called once per block of elements (`_patch_blocks`),
    on the ``(block, nq)`` coordinates of their points, and may return
    anything that broadcasts to that shape; on a large space the blocks of
    the two element ranges are evaluated at the same time (`fem._fill`).
    """
    tb = space.error_tables
    values, gx, gy = (np.empty(tb.wdet.shape) for _ in range(3))

    def fill(lo: int, hi: int) -> None:
        x, y = tb.x[lo:hi, :, 0], tb.x[lo:hi, :, 1]
        values[lo:hi] = exact(x, y, t)
        gx[lo:hi], gy[lo:hi] = grad(x, y, t)

    _fill(_patch_blocks(space), fill)
    return values, (gx, gy)


class FeEvaluation:
    """An FE function on its space's error rule, one block of elements at a
    time: ``values(lo, hi)`` and ``derivative(lo, hi, axis)``, the partial
    derivative along ``axis``, each ``(hi - lo, nq)``, at the rule's points
    of the elements ``lo:hi``, from the nodal values of those elements.

    Nothing is kept between calls: each norm evaluates what it reads, block
    by block.  The values are the einsum of `FeSpace.values_at_quad` on the
    error rule, and each partial is `fem._gradients` on that axis of the
    rule's gradient table, so that its temporaries are one partial large.
    """

    def __init__(self, space: FeSpace, coeffs: np.ndarray):
        _check_vector("coeffs", coeffs, space.n_dofs)
        self.space = space
        self.coeffs = coeffs

    def values(self, lo: int, hi: int) -> np.ndarray:
        tb = self.space.error_tables
        return np.einsum("qi,ei->eq", tb.N, self.coeffs[self.space.mesh.elements[lo:hi]])

    def derivative(self, lo: int, hi: int, axis: int) -> np.ndarray:
        tb = self.space.error_tables
        nodal = self.coeffs[self.space.mesh.elements[lo:hi].T]
        out = np.empty(tb.wdet[lo:hi].shape + (1,))
        return _gradients(tb.grad[:, axis : axis + 1, :, lo:hi], nodal, out)[..., 0]


def l2_error(fe: FeEvaluation, exact_values: np.ndarray) -> float:
    """``||u_h - u||_0`` from the exact values at the error-rule points."""
    return _norm(fe, False, (exact_values,))


def h1_error(fe: FeEvaluation, exact_values: np.ndarray, exact_grads) -> float:
    """Full H1 error ``sqrt(||u_h - u||_0^2 + ||grad(u_h - u)||_0^2)``;
    ``exact_grads`` is the pair of partial derivatives at the error-rule
    points."""
    return _norm(fe, True, (exact_values, *exact_grads))


def fe_l2_norm(fe: FeEvaluation) -> float:
    """L2 norm of an FE function (exact up to the error rule's degree)."""
    return _norm(fe, False)


def fe_h1_norm(fe: FeEvaluation) -> float:
    """Full H1 norm of an FE function."""
    return _norm(fe, True)


def h1_error_postprocessed(field: PostProcessedField, exact_values: np.ndarray, exact_grads) -> float:
    """Full H1 error of a post-processed field, from the exact values and the
    pair of exact partial derivatives at the points of its space's error
    rule."""
    return _norm(field, True, (exact_values, *exact_grads))


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
