"""Independent dense reference implementation used as a test oracle.

Everything here is deliberately written from scratch — closed-form element
matrices, hand-coded quadrature tables, per-element Python loops, dense numpy
solves — so that agreement with the package is evidence of correctness rather
than shared code.  The dense paths take only the raw mesh arrays (node
coordinates, connectivity, boundary node list) from the package, and those
are pinned by their own hand-checked tests.  The post-processing evaluators
at the end take a post-processed field's block polynomials and evaluate
them at arbitrary points, block by block, as the reference for the
package's table path.

The sparse reference paths (`coo_assemble`, `add_at_scatter`,
`fancy_reduction`, `jacobi_cg`, with `materialized_grad` for the einsums
that feed them), the one-expression potential source
(`source_f2_formula`), the post-processing with block shapes found from the
anchor offsets (`offset_shapes`, `offset_grouped_postprocess`) and the
per-norm error report (`per_norm_field_errors`) are of a different kind:
they are the straightforward formulations whose arithmetic the package's
fixed-pattern assembly, load scatter, slot-mapped Dirichlet reduction,
einsum-reduced conjugate gradients, potential source, per-shape
post-processing and once-per-field error report must reproduce bit for
bit.  These take the package's raw arrays too, and no more: the quadrature
tables (``N``, ``grad``, ``wdet``, ``x``) and, for the per-norm report,
the nodal interpolant and the post-processing coefficients, each checked on
its own.  The report evaluates the FE values and gradients as the einsums
of their definitions over those tables (`fe_values`, `fe_gradients`), the
lift (`whole_table_lift`) and every norm (`whole_array_norm`) over whole
arrays; it calls none of the package's evaluation kernels.
The pairwise report writers (`pairwise_reports_to_csv`,
`pairwise_order_table`, with `refinement_ratio` and `eoc_rows`) apply the
order rule pair by pair, once for the CSV and once for the table: the
package's single walk over neighbouring runs must give the same text.
The preset builders (`PRESET_BUILDERS`) and the tau-rule reader
(`parse_tau_rule`, `resolve_tau`) state each configuration rule per kind of
study and per branch: the package's preset table and its one tau-rule
function must give equal plans, equal steps and the same refusals.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from thermistor_fem.analysis import convergence_order, i2h_postprocess, interpolate_nodal
from thermistor_fem.harness import _TABLE_ROWS, ExperimentPlan, _fmt
from thermistor_fem.mesh import macroelements
from thermistor_fem.schemes import MAX_STEPS, SchemeConfig

# 3-point Gauss-Legendre rule on [-1, 1] (classical closed form).
_G3_NODES = (-np.sqrt(0.6), 0.0, np.sqrt(0.6))
_G3_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)

# Classical symmetric 7-point rule on the unit triangle, exact to degree 5.
# Entries are (barycentric coordinates, weight); weights sum to 1 and are
# scaled by the reference area 1/2 when used.
_A1 = 0.059715871789770
_B1 = 0.470142064105115
_A2 = 0.797426985353087
_B2 = 0.101286507323456
_W0 = 0.225
_W1 = 0.132394152788506
_W2 = 0.125939180544827
TRI7 = [
    ((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), _W0),
    ((_A1, _B1, _B1), _W1),
    ((_B1, _A1, _B1), _W1),
    ((_B1, _B1, _A1), _W1),
    ((_A2, _B2, _B2), _W2),
    ((_B2, _A2, _B2), _W2),
    ((_B2, _B2, _A2), _W2),
]


def quad_points_weights_square(x0, y0, a):
    """3x3 Gauss points and weights on the axis-aligned square of side ``a``."""
    pts, wts = [], []
    for gy, wy in zip(_G3_NODES, _G3_WEIGHTS):
        for gx, wx in zip(_G3_NODES, _G3_WEIGHTS):
            pts.append((x0 + a * (gx + 1.0) / 2.0, y0 + a * (gy + 1.0) / 2.0))
            wts.append(wx * wy * a * a / 4.0)
    return pts, wts


def tri_points_weights(v):
    """7-point rule mapped onto the physical triangle with vertices ``v``."""
    area = 0.5 * abs(
        (v[1][0] - v[0][0]) * (v[2][1] - v[0][1])
        - (v[2][0] - v[0][0]) * (v[1][1] - v[0][1])
    )
    pts, wts = [], []
    for bary, w in TRI7:
        x = bary[0] * v[0][0] + bary[1] * v[1][0] + bary[2] * v[2][0]
        y = bary[0] * v[0][1] + bary[1] * v[1][1] + bary[2] * v[2][1]
        pts.append((x, y))
        wts.append(w * area)
    return pts, wts


def p1_gradients(v):
    """Constant P1 basis gradients on a triangle: rows are grad lambda_i."""
    x = [p[0] for p in v]
    y = [p[1] for p in v]
    det = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    g = np.array(
        [
            [y[1] - y[2], x[2] - x[1]],
            [y[2] - y[0], x[0] - x[2]],
            [y[0] - y[1], x[1] - x[0]],
        ]
    )
    return g / det


def p1_values_at(v, x, y):
    """P1 basis values (barycentric coordinates) of point (x, y) in triangle v."""
    g = p1_gradients(v)
    d = np.array([x - v[0][0], y - v[0][1]])
    lam1 = float(g[1] @ d)
    lam2 = float(g[2] @ d)
    return np.array([1.0 - lam1 - lam2, lam1, lam2])


def q1_values_at(x0, y0, a, x, y):
    """Q1 basis values on a square of side ``a``; nodes bl, br, tr, tl."""
    s = (x - x0) / a
    t = (y - y0) / a
    return np.array([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t])


def q1_gradients_at(x0, y0, a, x, y):
    s = (x - x0) / a
    t = (y - y0) / a
    return (
        np.array(
            [
                [-(1 - t), -(1 - s)],
                [(1 - t), -s],
                [t, s],
                [-t, 1 - s],
            ]
        )
        / a
    )


def _element_quadrature(nodes, elem):
    """Quadrature points/weights plus basis evaluators for one element."""
    v = [tuple(nodes[i]) for i in elem]
    if len(elem) == 3:
        pts, wts = tri_points_weights(v)
        grads = p1_gradients(v)

        def values(x, y):
            return p1_values_at(v, x, y)

        def gradients(x, y):
            return grads

    else:
        x0, y0 = v[0]
        a = v[1][0] - v[0][0]
        pts, wts = quad_points_weights_square(x0, y0, a)

        def values(x, y):
            return q1_values_at(x0, y0, a, x, y)

        def gradients(x, y):
            return q1_gradients_at(x0, y0, a, x, y)

    return pts, wts, values, gradients


def dense_mass(nodes, elements):
    n = len(nodes)
    A = np.zeros((n, n))
    for elem in elements:
        pts, wts, values, _ = _element_quadrature(nodes, elem)
        for (x, y), w in zip(pts, wts):
            N = values(x, y)
            A[np.ix_(elem, elem)] += w * np.outer(N, N)
    return A


def dense_stiffness(nodes, elements, weight=None):
    """Dense (weighted) stiffness; ``weight(x, y)`` defaults to one."""
    n = len(nodes)
    A = np.zeros((n, n))
    for elem in elements:
        pts, wts, _, gradients = _element_quadrature(nodes, elem)
        for (x, y), w in zip(pts, wts):
            G = gradients(x, y)
            c = 1.0 if weight is None else float(weight(x, y))
            A[np.ix_(elem, elem)] += w * c * (G @ G.T)
    return A


def dense_load(nodes, elements, f):
    n = len(nodes)
    b = np.zeros(n)
    for elem in elements:
        pts, wts, values, _ = _element_quadrature(nodes, elem)
        for (x, y), w in zip(pts, wts):
            b[list(elem)] += w * float(f(x, y)) * values(x, y)
    return b


def fe_eval(nodes, elem, coeffs, x, y):
    """Evaluate the FE function on one element at a point."""
    if len(elem) == 3:
        v = [tuple(nodes[i]) for i in elem]
        N = p1_values_at(v, x, y)
    else:
        x0, y0 = nodes[elem[0]]
        a = nodes[elem[1]][0] - x0
        N = q1_values_at(x0, y0, a, x, y)
    return float(N @ coeffs[list(elem)])


def fe_grad(nodes, elem, coeffs, x, y):
    if len(elem) == 3:
        G = p1_gradients([tuple(nodes[i]) for i in elem])
    else:
        x0, y0 = nodes[elem[0]]
        a = nodes[elem[1]][0] - x0
        G = q1_gradients_at(x0, y0, a, x, y)
    return coeffs[list(elem)] @ G


def dense_dirichlet_solve(A, b, boundary, values, n):
    """Eliminate the boundary dofs and solve the dense reduced system."""
    mask = np.ones(n, dtype=bool)
    mask[boundary] = False
    interior = np.nonzero(mask)[0]
    x = np.zeros(n)
    x[boundary] = values
    rhs = b[interior] - A[np.ix_(interior, boundary)] @ values
    x[interior] = np.linalg.solve(A[np.ix_(interior, interior)], rhs)
    return x


def _at_points(mesh, levels):
    """Per element and quadrature point: ``(elem, w, N, G, values)``, the
    weight, the shape-function values and gradients there, and the FE value
    of each nodal vector of ``levels`` there."""
    nodes = mesh.nodes
    for elem in (list(e) for e in mesh.elements):
        pts, wts, values, gradients = _element_quadrature(nodes, elem)
        for (x, y), w in zip(pts, wts):
            N = values(x, y)
            yield elem, w, N, gradients(x, y), [float(N @ u[elem]) for u in levels]


def _sigma_star(problem, extrap, values):
    """``sum_k extrap[k] sigma(values[k])``: the extrapolated conductivity at
    a point, from the temperature levels' values there, newest first."""
    return sum(c * float(problem.sigma(v)) for c, v in zip(extrap, values))


def _grad_sq(phi, elem, G):
    """``|grad Phi|^2`` at a point of ``elem`` with shape-function gradients ``G``."""
    g = phi[elem] @ G
    return float(g @ g)


def oracle_potential(mesh, problem, extrap, us, t):
    """The potential at ``t``: ``(sigma* grad Phi, grad xi) = (f2(t), xi)``
    for the interior test functions, with ``Phi`` the exact potential at the
    boundary nodes and ``sigma* = sum_k extrap[k] sigma(us[k])`` pointwise."""
    nodes, boundary, n = mesh.nodes, list(mesh.boundary_nodes), len(mesh.nodes)
    A = np.zeros((n, n))
    for elem, w, _, G, values in _at_points(mesh, us):
        A[np.ix_(elem, elem)] += w * _sigma_star(problem, extrap, values) * (G @ G.T)
    b = dense_load(nodes, [list(e) for e in mesh.elements], lambda x, y: problem.f2(x, y, t))
    g = np.array([problem.exact_phi(nodes[i][0], nodes[i][1], t) for i in boundary])
    return dense_dirichlet_solve(A, b, boundary, g, n)


def oracle_temperature(mesh, problem, table, us, tau, joule, t):
    """The temperature at ``t``: ``(a/(d tau)) M U + K U = M sum_k
    history[k] us[k] / (d tau) + (joule, xi) + (f1(t), xi)``, with ``U = 0``
    on the boundary, ``table = (a, history, d)`` and ``joule(elem, G,
    values)`` the Joule density at a point, from the values of ``us``
    there."""
    a, history, d = table
    nodes, elements, n = mesh.nodes, [list(e) for e in mesh.elements], len(mesh.nodes)
    M = dense_mass(nodes, elements)
    A = (a / (d * tau)) * M + dense_stiffness(nodes, elements)
    b = M @ (sum(h * u for h, u in zip(history, us)) / (d * tau))
    for elem, w, N, G, values in _at_points(mesh, us):
        b[elem] += w * joule(elem, G, values) * N
    b += dense_load(nodes, elements, lambda x, y: problem.f1(x, y, t))
    boundary = list(mesh.boundary_nodes)
    return dense_dirichlet_solve(A, b, boundary, np.zeros(len(boundary)), n)


def oracle_imex_step(mesh, problem, extrap, table, us, tau, t_new):
    """Reference computation of one decoupled potential-first step.

    Solves the potential equation with the extrapolated conductivity
    ``sigma* = sum_k extrap[k] sigma(U^{n-k})`` (each sigma evaluated
    pointwise from the FE value at the quadrature point), then the
    temperature equation with the backward difference ``table = (a,
    history, d)`` and the fresh Joule density ``sigma* |grad Phi|^2``.
    ``us`` are the temperature levels, newest first.  Returns ``(u_new,
    phi_new)``.
    """
    phi = oracle_potential(mesh, problem, extrap, us, t_new)

    def joule(elem, G, values):
        return _sigma_star(problem, extrap, values) * _grad_sq(phi, elem, G)

    return oracle_temperature(mesh, problem, table, us, tau, joule, t_new), phi


def oracle_bdf2_step(mesh, problem, u_n, u_nm1, tau, t_new):
    """One step of ``bdf2``: extrapolation ``2 sigma(U^n) - sigma(U^{n-1})``
    and the BDF2 difference."""
    return oracle_imex_step(mesh, problem, (2, -1), (3, (4, -1), 2), (u_n, u_nm1), tau, t_new)


def oracle_gao_run(mesh, problem, tau, N):
    """The final ``(u, phi)`` of ``gao`` after ``N >= 2`` steps from ``t = 0``.

    The start-up solves the potential at ``t = 0`` with ``sigma(U^0)`` and
    takes one implicit Euler step (potential first, ``sigma(U^0)``).  Each
    later step is temperature first: BDF2 with the Joule density ``2
    sigma(U^n) |grad Phi^n|^2 - sigma(U^{n-1}) |grad Phi^{n-1}|^2``, then
    the potential at the new time with ``sigma(U^{n+1})``.
    """
    us = [np.array([problem.exact_u(x, y, 0.0) for x, y in mesh.nodes])]
    phis = [oracle_potential(mesh, problem, (1,), us, 0.0)]
    u, phi = oracle_imex_step(mesh, problem, (1,), (1, (1,), 1), us, tau, tau)
    us.insert(0, u)
    phis.insert(0, phi)
    for n in range(2, N + 1):
        old_phis = phis[:2]

        def joule(elem, G, values, old_phis=old_phis):
            return sum(
                c * float(problem.sigma(v)) * _grad_sq(p, elem, G) for c, v, p in zip((2, -1), values, old_phis)
            )

        u = oracle_temperature(mesh, problem, (3, (4, -1), 2), us[:2], tau, joule, n * tau)
        phi = oracle_potential(mesh, problem, (1,), [u], n * tau)
        us.insert(0, u)
        phis.insert(0, phi)
    return us[0], phis[0]


def source_f2_formula(x, y, t):
    """The potential source as one expression of `exact_u`'s and
    `grad_u`'s closed forms, every intermediate a new array:
    `manufactured.source_f2` must equal it bit for bit."""
    pi = np.pi
    sx, sy = np.sin(pi * x), np.sin(pi * y)
    u = np.exp(-2.0 * t) * sx * sy
    common = pi * np.exp(-2.0 * t)
    ux = common * np.cos(pi * x) * sy
    uy = common * sx * np.cos(pi * y)
    s = np.sin(x + y + t)
    c = np.cos(x + y + t)
    sigma_prime = -2.0 * u / (1.0 + u * u) ** 2
    sigma = 1.0 / (1.0 + u * u) + 1.0
    return -sigma_prime * (ux + uy) * c + 2.0 * sigma * s


# ----------------------------------------------------------------------------
# Sparse reference paths: COO summation and fancy-index Dirichlet reduction
# ----------------------------------------------------------------------------


def materialized_grad(tables):
    """``tables.grad`` element-first, ``(ne, nq, ndof, 2)``, with its point
    axis at full length, contiguous.

    A P1 table holds one point per element; the einsum references must run
    on the full copy, because ``np.einsum`` over a broadcast (stride-0) axis
    sums in another order than over a contiguous one.
    """
    nq = tables.wdet.shape[1]
    full = np.broadcast_to(tables.grad, (nq,) + tables.grad.shape[1:])  # (nq, 2, ndof, ne)
    return np.ascontiguousarray(full.transpose(3, 0, 2, 1))


def coo_assemble(elements, elem_mats, n):
    """Element matrices ``(ne, ndof, ndof)`` summed by scipy's COO to CSR
    conversion."""
    ne, ndof = elements.shape
    rows = np.broadcast_to(elements[:, :, None], (ne, ndof, ndof)).ravel()
    cols = np.broadcast_to(elements[:, None, :], (ne, ndof, ndof)).ravel()
    return sp.coo_matrix((elem_mats.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def add_at_scatter(elements, contrib, n):
    """Element contributions ``(ne, ndof)`` summed into a nodal vector."""
    b = np.zeros(n)
    np.add.at(b, elements, contrib)
    return b


def fancy_reduction(A, interior, boundary):
    """``(A_red, A_ib, A_red as CSC)`` by fancy indexing of the full matrix."""
    rows = A.tocsr()[interior]
    A_red = rows[:, interior].tocsr()
    return A_red, rows[:, boundary].tocsr(), A_red.tocsc()


def jacobi_cg(A, b, tol=1e-12):
    """Jacobi-preconditioned conjugate gradients from a zero initial guess,
    stopping at relative residual ``tol`` or after ``50 * n`` iterations
    (then RuntimeError, as for a curvature ``p . Ap <= 0``)."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    norm_b = np.sqrt(np.einsum("i,i->", b, b))
    if norm_b == 0.0:
        return np.zeros(n)
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise RuntimeError("matrix has a non-positive diagonal entry; not SPD")

    x = np.zeros(n)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = np.einsum("i,i->", r, z)
    max_iter = 50 * n
    for _ in range(max_iter):
        if np.sqrt(np.einsum("i,i->", r, r)) <= tol * norm_b:
            return x
        Ap = A @ p
        pAp = np.einsum("i,i->", p, Ap)
        if pAp <= 0.0:
            raise RuntimeError("conjugate gradients broke down; matrix not SPD")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = r / diag
        rz_next = np.einsum("i,i->", r, z)
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
    if np.sqrt(np.einsum("i,i->", r, r)) <= tol * norm_b:
        return x
    raise RuntimeError(f"conjugate gradients did not converge in {max_iter} iterations")


# ----------------------------------------------------------------------------
# Point-by-point evaluation of a macroelement post-processed field
# ----------------------------------------------------------------------------


def block_of_element(fine, n_elements):
    """Block index of every fine element (-1 where no block holds it), from
    the ``(n_blocks, 4)`` fine-element array of the blocks."""
    out = np.full(n_elements, -1)
    for b, elems in enumerate(fine):
        out[elems] = b
    return out


def locate_blocks(mesh, points):
    """Block index of each physical point, from the structured layout.

    Blocks run row-major over the 2x2 patches of the mesh; triangle blocks
    come in (lower, upper) pairs per patch, cut along the lower-right to
    upper-left diagonal.
    """
    nb = mesh.M // 2
    pts = np.atleast_2d(points)
    I = np.clip((pts[:, 0] * nb).astype(int), 0, nb - 1)
    J = np.clip((pts[:, 1] * nb).astype(int), 0, nb - 1)
    if mesh.elem_kind == "quad":
        return J * nb + I
    upper = pts[:, 0] * nb - I + pts[:, 1] * nb - J > 1.0
    return 2 * (J * nb + I) + upper.astype(int)


def block_values(field, block_ids, points):
    """Evaluate the block polynomials of a post-processed field at ``points``
    (..., 2) lying in the blocks ``block_ids`` (broadcast), term by term from
    the field's ``powers``, ``coeffs`` and ``centers``."""
    d = points - field.centers[block_ids]
    c = field.coeffs[block_ids]
    return sum(c[..., k] * d[..., 0] ** p * d[..., 1] ** q for k, (p, q) in enumerate(field.powers))


def block_gradients(field, block_ids, points):
    """Gradients of the block polynomials, like `block_values`; shape (..., 2)."""
    d = points - field.centers[block_ids]
    dx, dy = d[..., 0], d[..., 1]
    c = field.coeffs[block_ids]
    terms = list(enumerate(field.powers))
    gx = sum(c[..., k] * p * dx ** max(p - 1, 0) * dy**q for k, (p, q) in terms)
    gy = sum(c[..., k] * q * dx**p * dy ** max(q - 1, 0) for k, (p, q) in terms)
    return np.stack([gx, gy], axis=-1)


# ----------------------------------------------------------------------------
# Macroelement post-processing with the block shapes found from the geometry
# ----------------------------------------------------------------------------

# Monomial exponents of the block spaces, in the order of the package's
# coefficients: Q2 on quad blocks, P2 on triangle blocks.
_BLOCK_POWERS = {
    "quad": np.array([(i, j) for j in range(3) for i in range(3)]),
    "tri": np.array([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
}


def offset_shapes(mesh, anchors):
    """Group blocks by their centred anchor offsets, in cell units rounded to
    1e-9: the grouping `macroelements` gives by construction, found from the
    geometry.  One array of block indices per shape, in the order of each
    shape's first block."""
    pts = mesh.nodes[anchors]
    d = pts - pts.mean(axis=1)[:, None, :]
    # Adding 0.0 turns -0.0 into 0.0 so equal offsets compare equal.
    key = np.round(d * mesh.M, 9) + 0.0
    _, first, shape_of_block = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return [np.flatnonzero(shape_of_block == s) for s in np.argsort(first)]


def offset_grouped_postprocess(space, anchors, fine, coeffs):
    """The post-processed field with the blocks grouped by `offset_shapes`:
    every block's centred anchor offsets are formed, and each shape's
    Vandermonde matrix is built from those of its first block.  The solve
    is the package's: anchor values less the block's first one, all blocks
    of a shape as right-hand sides.  Returns the block polynomials
    (``powers``, ``coeffs``, ``centers``) with ``fine`` and ``shapes``, the
    attributes `whole_table_lift` and `block_values` read."""
    mesh = space.mesh
    powers = _BLOCK_POWERS[mesh.elem_kind]
    pts = mesh.nodes[anchors]
    centers = pts.mean(axis=1)
    d = pts - centers[:, None, :]
    shapes = offset_shapes(mesh, anchors)
    values = np.asarray(coeffs, dtype=float)[anchors]
    base = values[:, 0]
    rhs = values - base[:, None]
    block_coeffs = np.empty((len(anchors), len(powers)))
    for ids in shapes:
        V = d[ids[0], :, None, 0] ** powers[:, 0] * d[ids[0], :, None, 1] ** powers[:, 1]
        block_coeffs[ids] = np.linalg.solve(V, rhs[ids].T).T
    block_coeffs[:, 0] += base
    return SimpleNamespace(powers=powers, coeffs=block_coeffs, centers=centers, fine=fine, shapes=tuple(shapes))


# ----------------------------------------------------------------------------
# The error report, one evaluation per norm
# ----------------------------------------------------------------------------
#
# Each norm evaluates what it needs from nodal coefficients and callables on
# the space's error rule, over whole arrays, as the package did before it
# evaluated each quantity once per field and then block by block on two
# element ranges: the report must equal this one bit for bit.  The FE values
# and gradients are the einsums of their definitions, over the tables' raw
# arrays, not the package's kernels.


def whole_array_norm(tb, values, grads=None):
    """``sqrt(sum(wdet * (values**2 + |grads|**2)))`` as one expression over
    whole arrays, summed once; the package's blocked norms must equal it bit
    for bit."""
    integrand = values**2 if grads is None else values**2 + grads[..., 0] ** 2 + grads[..., 1] ** 2
    return float(np.sqrt(np.sum(tb.wdet * integrand)))


def whole_table_lift(field, tb):
    """A post-processed field's values ``(ne, nq)`` and gradients
    ``(ne, nq, 2)`` at the points of ``tb``, written over the whole table in
    one matrix product per shape and monomial table, the shape's monomials
    taken at the points of its first block."""
    values, grads = np.empty(tb.wdet.shape), np.empty(tb.x.shape)
    outs = (values, grads[..., 0], grads[..., 1])
    d_axis = [np.maximum(field.powers - np.eye(2, dtype=int)[a], 0) for a in (0, 1)]
    for blocks in field.shapes:
        first = blocks[0]
        d = tb.x[field.fine[first]] - field.centers[first]  # (4, nq, 2)
        tables = [
            d[..., None, 0] ** field.powers[:, 0] * d[..., None, 1] ** field.powers[:, 1],
            *(
                field.powers[:, a] * (d[..., None, 0] ** low[:, 0] * d[..., None, 1] ** low[:, 1])
                for a, low in enumerate(d_axis)
            ),
        ]
        for out, mono in zip(outs, tables):
            vals = field.coeffs[blocks] @ mono.reshape(-1, mono.shape[-1]).T
            out[field.fine[blocks]] = vals.reshape(len(blocks), *mono.shape[:-1])
    return values, grads


def _h1_error(tb, values, grads, exact, exact_grad, t):
    x, y = tb.x[..., 0], tb.x[..., 1]
    gx, gy = exact_grad(x, y, t)
    grads[..., 0] -= gx
    grads[..., 1] -= gy
    return whole_array_norm(tb, values - exact(x, y, t), grads)


def fe_values(space, coeffs):
    """An FE function's values ``(ne, nq)`` at the error rule's points."""
    return np.einsum("qi,ei->eq", space.error_tables.N, coeffs[space.mesh.elements])


def fe_gradients(space, coeffs):
    """An FE function's gradients ``(ne, nq, 2)`` at the error rule's points."""
    return np.einsum("eqia,ei->eqa", materialized_grad(space.error_tables), coeffs[space.mesh.elements])


def l2_error(space, coeffs, exact, t):
    tb = space.error_tables
    diff = fe_values(space, coeffs) - exact(tb.x[..., 0], tb.x[..., 1], t)
    return whole_array_norm(tb, diff)


def h1_error(space, coeffs, exact, exact_grad, t):
    return _h1_error(space.error_tables, fe_values(space, coeffs), fe_gradients(space, coeffs), exact, exact_grad, t)


def fe_l2_norm(space, coeffs):
    return whole_array_norm(space.error_tables, fe_values(space, coeffs))


def fe_h1_norm(space, coeffs):
    return whole_array_norm(space.error_tables, fe_values(space, coeffs), fe_gradients(space, coeffs))


def h1_error_postprocessed(field, exact, exact_grad, t):
    tb = field.space.error_tables
    v, g = whole_table_lift(field, tb)
    return _h1_error(tb, v, g, exact, exact_grad, t)


def per_norm_field_errors(space, coeffs, exact, grad, t, name):
    """The error measures of one field, keyed by their `ErrorReport` names."""
    interp = interpolate_nodal(space, exact, t)
    post = i2h_postprocess(space, macroelements(space.mesh), coeffs)
    return {
        f"err_{name}_l2": l2_error(space, coeffs, exact, t),
        f"err_{name}_h1": h1_error(space, coeffs, exact, grad, t),
        f"superclose_{name}_h1": fe_h1_norm(space, coeffs - interp),
        f"superclose_{name}_l2": fe_l2_norm(space, coeffs - interp),
        f"superconv_{name}_h1": h1_error_postprocessed(post, exact, grad, t),
    }


# ----------------------------------------------------------------------------
# The report text, with the order rule applied pair by pair
# ----------------------------------------------------------------------------
#
# The CSV writer and the order table as they were when each took its own walk
# over neighbouring runs and its own refinement ratio: the package's one walk
# must give the same text, character for character.

_CSV_COLUMNS = [
    "scheme", "elem", "M", "h", "tau", "N",
    "err_u_l2", "err_u_h1", "superclose_u_h1", "superconv_u_h1",
    "err_phi_l2", "err_phi_h1", "superclose_phi_h1", "superconv_phi_h1", "combined_l2",
]


def refinement_ratio(a, b):
    """Refinement ratio between consecutive runs: against ``h`` whenever the
    mesh changes (even if the time step is tied to it), else against ``tau``.
    Returns ``None`` unless the pair refines (ratio above 1)."""
    if a.M != b.M:
        ratio = a.h / b.h
    elif not np.isclose(a.tau, b.tau, rtol=1e-12, atol=0):
        ratio = a.tau / b.tau
    else:
        return None
    return ratio if ratio > 1 else None


def _stretches(reports):
    return [list(rs) for _, rs in itertools.groupby(reports, key=lambda r: (r.scheme, r.elem))]


def eoc_rows(reports):
    """Order rows for consecutive runs of the same scheme and element kind."""
    rows = []
    for rs in _stretches(reports):
        for a, b in zip(rs[:-1], rs[1:]):
            ratio = refinement_ratio(a, b)
            if ratio is None:
                continue
            row = {"scheme": f"eoc:{b.scheme}", "elem": b.elem, "M": b.M, "h": b.h, "tau": b.tau, "N": b.N}
            for name in _CSV_COLUMNS[6:]:
                row[name] = convergence_order(getattr(a, name), getattr(b, name), ratio)
            rows.append(row)
    return rows


def pairwise_reports_to_csv(reports, failures=()):
    """CSV text with order rows from `eoc_rows` and the failure comment line
    of single-line messages."""
    lines = [",".join(_CSV_COLUMNS)]
    for r in reports:
        lines.append(",".join(_fmt(getattr(r, name)) for name in _CSV_COLUMNS))
    for row in eoc_rows(reports):
        lines.append(",".join(_fmt(row[name]) for name in _CSV_COLUMNS))
    for failure in failures:
        config = failure.config
        lines.append(
            f"# run failed: scheme={config.scheme} elem={config.elem_kind} M={config.M} "
            f"tau_rule={config.tau_rule}: {failure.message}"
        )
    return "\n".join(lines) + "\n"


def pairwise_order_table(reports):
    """The order table with each order row's cells from `refinement_ratio`."""
    if not reports:
        return "(no runs)\n"
    out = []
    label_w = max(len(lbl) for lbl, _ in _TABLE_ROWS) + 2
    for rs in _stretches(reports):
        headers = [f"M={r.M},tau={r.tau:.4g}" for r in rs]
        col_w = max(11, max(len(head) for head in headers) + 2)
        out.append(f"scheme={rs[0].scheme} elem={rs[0].elem}")
        out.append(" " * label_w + "".join(head.rjust(col_w) for head in headers))
        for label, name in _TABLE_ROWS:
            vals = [getattr(r, name) for r in rs]
            out.append(label.ljust(label_w) + "".join(f"{v:.3e}".rjust(col_w) for v in vals))
            if len(rs) > 1:
                cells = ["--".rjust(col_w)]
                for a, b, ea, eb in zip(rs[:-1], rs[1:], vals[:-1], vals[1:]):
                    ratio = refinement_ratio(a, b)
                    order = float("nan") if ratio is None else convergence_order(ea, eb, ratio)
                    cells.append(("--" if math.isnan(order) else f"{order:.2f}").rjust(col_w))
                out.append("  order".ljust(label_w) + "".join(cells))
        out.append("")
    return "\n".join(out)


# ----------------------------------------------------------------------------
# The configuration rules, one builder per kind of study
# ----------------------------------------------------------------------------
#
# The preset builders and the tau-rule parser as they were before the presets
# became one table and one function read a tau rule: the package's table and
# `resolve_tau` must give equal plans, equal steps and the same refusals.

_SPATIAL_MS = (8, 16, 32, 64)


def _spatial(scheme, study):
    runs = tuple(
        SchemeConfig(scheme=scheme, M=M, elem_kind="tri", tau_rule=f"fixed:{math.sqrt(2.0) / (2.0 * M)}")
        for M in _SPATIAL_MS
    )
    return ExperimentPlan(study=study, runs=runs)


def _comparison_table(scheme, study):
    runs = tuple(SchemeConfig(scheme=scheme, M=M, elem_kind="tri", tau_rule="sqrt-h") for M in _SPATIAL_MS)
    return ExperimentPlan(study=study, runs=runs)


def _fixed_tau():
    runs = tuple(
        SchemeConfig(scheme="bdf2", M=M, elem_kind="tri", tau_rule=f"fixed:{tau}")
        for tau in (0.1, 0.05, 0.025, 0.0125)
        for M in (8, 16, 32, 64, 128, 256)
    )
    return ExperimentPlan(study="fig-fixed-tau", runs=runs)


def _temporal(scheme, study, Ms, n_taus):
    taus = tuple(0.1 / 2**k for k in range(n_taus))
    runs = tuple(SchemeConfig(scheme=scheme, M=M, elem_kind="tri", tau_rule=f"fixed:{tau}") for M in Ms for tau in taus)
    return ExperimentPlan(study=study, runs=runs)


PRESET_BUILDERS = {
    "fig-u": lambda: _spatial("bdf2", "fig-u"),
    "fig-phi": lambda: _spatial("bdf2", "fig-phi"),
    "fig-fixed-tau": _fixed_tau,
    "fig-temporal": lambda: _temporal("bdf2", "fig-temporal", (64, 256), 4),
    "fig-bdf3": lambda: _temporal("bdf3", "fig-bdf3", (256,), 3),
    "table-gao": lambda: _comparison_table("gao", "table-gao"),
    "table-ext1": lambda: _comparison_table("ext1", "table-ext1"),
}


def parse_tau_rule(rule):
    """Return the fixed step if the rule is ``fixed:<v>``, else None."""
    if not isinstance(rule, str):
        raise ValueError(f"tau rule must be a string, got {rule!r}")
    if rule in ("sqrt-h", "equal-h"):
        return None
    if rule.startswith("fixed:"):
        try:
            v = float(rule.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed step in tau rule {rule!r}") from None
        if not (v > 0):
            raise ValueError(f"fixed time step must be positive, got {v}")
        return v
    raise ValueError(f"unknown tau rule {rule!r}; use 'sqrt-h', 'equal-h' or 'fixed:<v>'")


def resolve_tau(config, h):
    """``(tau, N)`` with ``N = ceil(T / target)``, the rule parsed by
    `parse_tau_rule` and the mesh-coupled target chosen by a second branch;
    a horizon that is not positive and finite is refused first."""
    if not 0 < config.T < math.inf:  # NaN fails too
        raise ValueError(f"T must be a positive finite number, got {config.T!r}")
    fixed = parse_tau_rule(config.tau_rule)
    if fixed is not None:
        target = fixed
    elif config.tau_rule == "sqrt-h":
        target = math.sqrt(h)
    else:  # equal-h
        target = h
    steps = config.T / target * (1 - 1e-12)
    if not steps <= MAX_STEPS:
        raise ValueError(
            f"T={config.T!r} with tau rule {config.tau_rule!r} needs more than "
            f"MAX_STEPS={MAX_STEPS} time steps"
        )
    N = max(1, math.ceil(steps))
    return config.T / N, N
