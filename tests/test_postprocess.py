"""Macroelement post-processing: polynomial reproduction, interpolation
identities, stability, and the superconvergent lift it provides."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense_oracle as oracle
from thermistor_fem import (
    FeEvaluation,
    FeSpace,
    build_mesh,
    eoc,
    fe_h1_norm,
    fe_l2_norm,
    h1_error,
    h1_error_postprocessed,
    i2h_postprocess,
    interpolate_nodal,
    l2_error,
    macroelements,
)
from thermistor_fem.manufactured import exact_u, grad_u


def setup(M, kind):
    space = FeSpace(build_mesh(M, kind))
    return space, macroelements(space.mesh)


def at_error_points(space, f, t):
    """``f(x, y, t)`` at the points of the space's error rule."""
    tb = space.error_tables
    return f(tb.x[..., 0], tb.x[..., 1], t)


def whole_lift(field):
    """The lift's values ``(ne, nq)`` and gradients ``(ne, nq, 2)`` at the
    points of its space's error rule, each in one call over all rows."""
    ne = field.space.mesh.n_elements
    return field.values(0, ne), np.stack([field.derivative(0, ne, axis) for axis in (0, 1)], axis=-1)


def block_polynomial(kind):
    """A polynomial inside the block space (full biquadratic for quads)."""
    if kind == "quad":
        p = lambda x, y, t: (  # noqa: E731
            1.0 + 2 * x - y + x * x - 3 * x * y + 2 * y * y + x * x * y - 0.5 * x * y * y + 0.25 * x * x * y * y
        )
        grad = lambda x, y, t: (  # noqa: E731
            2 + 2 * x - 3 * y + 2 * x * y - 0.5 * y * y + 0.5 * x * y * y,
            -1 - 3 * x + 4 * y + x * x - x * y + 0.5 * x * x * y,
        )
    else:
        p = lambda x, y, t: 1.0 + 2 * x - y + x * x - 3 * x * y + 2 * y * y  # noqa: E731
        grad = lambda x, y, t: (2 + 2 * x - 3 * y, -1 - 3 * x + 4 * y)  # noqa: E731
    return p, grad


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_block_polynomials_are_reproduced_exactly(kind):
    # Post-processing the nodal interpolant of a polynomial from the block
    # space must return that polynomial, values and gradients alike.
    space, blocks = setup(8, kind)
    p, grad = block_polynomial(kind)
    field = i2h_postprocess(space, blocks, interpolate_nodal(space, p, 0.0))

    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    ids = oracle.locate_blocks(space.mesh, pts)
    assert np.abs(oracle.block_values(field, ids, pts) - p(pts[:, 0], pts[:, 1], 0.0)).max() < 1e-12

    g = oracle.block_gradients(field, ids, pts)
    gx, gy = grad(pts[:, 0], pts[:, 1], 0.0)
    assert np.abs(g[:, 0] - gx).max() < 1e-11
    assert np.abs(g[:, 1] - gy).max() < 1e-11

    tb = space.error_tables
    diff = whole_lift(field)[0] - p(tb.x[..., 0], tb.x[..., 1], 0.0)
    assert oracle.whole_array_norm(tb, diff) < 1e-12
    exact = at_error_points(space, p, 0.0), at_error_points(space, grad, 0.0)
    assert h1_error_postprocessed(field, *exact) < 1e-11


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_postprocessed_field_interpolates_at_the_anchors(kind):
    space, blocks = setup(8, kind)
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(space.n_dofs)
    field = i2h_postprocess(space, blocks, coeffs)
    for b, anchors in enumerate(blocks[0]):
        pts = space.mesh.nodes[anchors]
        got = oracle.block_values(field, np.full(len(anchors), b), pts)
        assert np.abs(got - coeffs[anchors]).max() < 1e-11


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_locate_blocks_agrees_with_the_element_partition(kind):
    # The oracle's two ways of finding a block must agree: strictly interior
    # quadrature points of every element locate to the block that owns the
    # element.
    space, (_, fine, _) = setup(8, kind)
    tb = space.tables
    ids = oracle.locate_blocks(space.mesh, tb.x.reshape(-1, 2)).reshape(tb.x.shape[:2])
    want = np.broadcast_to(oracle.block_of_element(fine, space.mesh.n_elements)[:, None], ids.shape)
    assert np.array_equal(ids, want)


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_postprocessing_is_h1_stable(kind):
    # The lift cannot amplify discrete fields: on random (rough) nodal data
    # the H1 norm grows by a bounded, mesh-independent factor.
    rng = np.random.default_rng(5)
    for M in (8, 16):
        space, blocks = setup(M, kind)
        for _ in range(10):
            c = rng.standard_normal(space.n_dofs)
            field = i2h_postprocess(space, blocks, c)
            zero = np.zeros(space.error_tables.wdet.shape)
            lifted = h1_error_postprocessed(field, zero, (zero, zero))
            assert lifted <= 2.0 * fe_h1_norm(FeEvaluation(space, c))


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_postprocessing_lifts_the_interpolant_gradient_order(kind):
    # ||I_h u - u||_H1 converges at first order only; the macroelement lift
    # recovers second order from the very same nodal values.
    t = 0.3
    plain, lifted = [], []
    for M in (8, 16, 32):
        space, blocks = setup(M, kind)
        coeffs = interpolate_nodal(space, exact_u, t)
        field = i2h_postprocess(space, blocks, coeffs)
        exact = at_error_points(space, exact_u, t), at_error_points(space, grad_u, t)
        plain.append((space.mesh.h, h1_error(FeEvaluation(space, coeffs), *exact)))
        lifted.append((space.mesh.h, h1_error_postprocessed(field, *exact)))
    for order in eoc(plain):
        assert order == pytest.approx(1.0, abs=0.05)
    for order in eoc(lifted):
        assert order == pytest.approx(2.0, abs=0.1)


def test_postprocess_rejects_empty_block_list():
    space = FeSpace(build_mesh(4, "quad"))
    empty = (np.empty((0, 9), dtype=int), np.empty((0, 4), dtype=int), ())
    with pytest.raises(ValueError, match="do not cover the mesh"):
        i2h_postprocess(space, empty, np.zeros(space.n_dofs))


def fields(space, seed):
    """Random exact values and partials at the error rule's points, as the
    norms take them and as the oracle's callables of ``(x, y, t)``."""
    rng = np.random.default_rng(seed)
    values, gx, gy = (rng.standard_normal(space.error_tables.wdet.shape) for _ in range(3))
    return (values, (gx, gy)), (lambda x, y, t: values, lambda x, y, t: (gx, gy))


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_quadrature_norm_is_the_fe_norms_bit_for_bit(kind):
    # The five norms equal the oracle's whole-array ones, which evaluate the
    # FE function with their own einsums; zero exact fields add nothing, and
    # the unit function has norm one on the unit square.
    space = FeSpace(build_mesh(4, kind))
    c = np.random.default_rng(6).standard_normal(space.n_dofs)
    fe = FeEvaluation(space, c)
    h1 = fe_h1_norm(fe)
    assert fe_l2_norm(fe) == oracle.fe_l2_norm(space, c)
    assert h1 == oracle.fe_h1_norm(space, c)
    (values, grads), (exact, grad) = fields(space, 7)
    assert l2_error(fe, values) == oracle.l2_error(space, c, exact, 0.0)
    assert h1_error(fe, values, grads) == oracle.h1_error(space, c, exact, grad, 0.0)
    field = i2h_postprocess(space, macroelements(space.mesh), c)
    assert h1_error_postprocessed(field, values, grads) == oracle.h1_error_postprocessed(field, exact, grad, 0.0)
    zero = np.zeros(space.error_tables.wdet.shape)
    assert l2_error(fe, zero) == fe_l2_norm(fe)
    assert h1_error(fe, zero, (zero, zero)) == h1
    # Nothing is kept between norms: the next one evaluates afresh.
    assert fe_h1_norm(fe) == h1
    assert fe_l2_norm(FeEvaluation(space, np.ones(space.n_dofs))) == pytest.approx(1.0, abs=1e-14)


def near_fields(space, c, seed):
    """Exact fields within about 1e-6 of the FE function of ``c``: the
    oracle's own FE values and gradients at the error rule's points, plus
    noise.  As `fields` returns them."""
    rng = np.random.default_rng(seed)
    values = oracle.fe_values(space, c) + 1e-6 * rng.standard_normal(space.error_tables.wdet.shape)
    grads = oracle.fe_gradients(space, c) + 1e-6 * rng.standard_normal(space.error_tables.x.shape)
    gx, gy = grads[..., 0].copy(), grads[..., 1].copy()
    return (values, (gx, gy)), (lambda x, y, t: values, lambda x, y, t: (gx, gy))


@pytest.mark.parametrize(
    ("kind", "M"), [(kind, M) for kind in ("tri", "quad") for M in (4, 34, 50, 64)] + [("tri", 92), ("quad", 128)]
)
def test_quadrature_norm_equals_the_whole_array_formula_bit_for_bit(kind, M):
    # From M=34 on, the integrand is filled in blocks over two element
    # ranges; from tri M=92 and quad M=128 on (eight blocks of `fem._CHUNK`
    # elements), the second range on a helper thread.  Rough nodal data, and
    # exact fields within 1e-6 of its FE function: the errors measure small
    # differences, in which the last bits of single values and partials show.
    space = FeSpace(build_mesh(M, kind))
    c = np.random.default_rng(M).standard_normal(space.n_dofs)
    fe = FeEvaluation(space, c)
    (values, grads), (exact, grad) = near_fields(space, c, M + 1)
    field = i2h_postprocess(space, macroelements(space.mesh), c)
    assert fe_l2_norm(fe) == oracle.fe_l2_norm(space, c)
    assert fe_h1_norm(fe) == oracle.fe_h1_norm(space, c)
    assert l2_error(fe, values) == oracle.l2_error(space, c, exact, 0.0)
    assert h1_error(fe, values, grads) == oracle.h1_error(space, c, exact, grad, 0.0)
    want = oracle.h1_error_postprocessed(field, exact, grad, 0.0)
    assert h1_error_postprocessed(field, values, grads) == want


@pytest.mark.parametrize("M", [8, 34, 50, 64])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_lift_on_tables_equals_the_whole_table_fill_bit_for_bit(kind, M):
    # Over the whole error rule and block by block in whole patch rows, as
    # the error report evaluates it, the lift has the whole-table fill's bits.
    space, blocks = setup(M, kind)
    field = i2h_postprocess(space, blocks, np.random.default_rng(M).standard_normal(space.n_dofs))
    want_v, want_g = oracle.whole_table_lift(field, space.error_tables)
    got_v, got_g = whole_lift(field)
    assert np.array_equal(got_v, want_v)
    assert np.array_equal(got_g, want_g)
    row = 2 * space.mesh.n_elements // M
    for lo in range(0, space.mesh.n_elements, 3 * row):
        hi = min(lo + 3 * row, space.mesh.n_elements)
        assert np.array_equal(field.values(lo, hi), want_v[lo:hi])
        for axis in (0, 1):
            assert np.array_equal(field.derivative(lo, hi, axis), want_g[lo:hi, :, axis])


@st.composite
def block_polynomials(draw):
    """A mesh and a random polynomial of its block space, with the gradient."""
    M = 2 * draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["quad", "tri"]))
    powers = (
        [(i, j) for j in range(3) for i in range(3)]
        if kind == "quad"
        else [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    )
    c = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(powers), max_size=len(powers)))

    def p(x, y, t):
        return sum(ck * x**i * y**j for ck, (i, j) in zip(c, powers))

    def grad(x, y, t):
        return (
            sum(ck * i * x ** max(i - 1, 0) * y**j for ck, (i, j) in zip(c, powers)),
            sum(ck * j * x**i * y ** max(j - 1, 0) for ck, (i, j) in zip(c, powers)),
        )

    return M, kind, p, grad


@settings(max_examples=25, deadline=None, derandomize=True)
@given(block_polynomials())
def test_lift_of_the_interpolant_of_a_block_polynomial_is_the_polynomial(case):
    M, kind, p, grad = case
    space = FeSpace(build_mesh(M, kind))
    field = i2h_postprocess(space, macroelements(space.mesh), interpolate_nodal(space, p, 0.0))
    tb = space.error_tables
    x, y = tb.x[..., 0], tb.x[..., 1]
    v, g = whole_lift(field)
    assert np.abs(v - p(x, y, 0.0)).max() <= 1e-11
    gx, gy = grad(x, y, 0.0)
    assert np.abs(g[..., 0] - gx).max() <= 1e-11
    assert np.abs(g[..., 1] - gy).max() <= 1e-11


@pytest.mark.parametrize("kind,other", [("tri", "quad"), ("quad", "tri")], ids=["tri-quad", "quad-tri"])
def test_postprocess_rejects_blocks_of_the_other_element_kind(kind, other):
    # Quad blocks leave half the triangles uncovered; triangle blocks name
    # every square twice over (their six anchors would not fit the nine-term
    # block space either).
    space = FeSpace(build_mesh(4, kind))
    with pytest.raises(ValueError, match=f"do not cover the mesh's {space.mesh.n_elements} elements once each"):
        i2h_postprocess(space, macroelements(build_mesh(4, other)), np.zeros(space.n_dofs))


@pytest.mark.parametrize("space_M,blocks_M", [(8, 16), (16, 8)])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_postprocess_refuses_blocks_of_another_mesh(kind, space_M, blocks_M):
    # The blocks of a finer mesh name elements the space does not have (this
    # ended in an IndexError on the anchors); those of a coarser one leave
    # elements uncovered.
    space = FeSpace(build_mesh(space_M, kind))
    with pytest.raises(ValueError, match=f"do not cover the mesh's {space.mesh.n_elements} elements once each"):
        i2h_postprocess(space, macroelements(build_mesh(blocks_M, kind)), np.zeros(space.n_dofs))


@pytest.mark.parametrize("M", [2, 4, 6, 34, 256])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_macroelement_shapes_are_the_blocks_of_equal_anchor_offsets(kind, M):
    # The shapes macroelements states by construction are the groups of
    # blocks whose centred anchor offsets agree, block for block and in order.
    mesh = build_mesh(M, kind)
    anchors, _, shapes = macroelements(mesh)
    want = oracle.offset_shapes(mesh, anchors)
    assert len(shapes) == len(want)
    for got, ids in zip(shapes, want):
        assert np.array_equal(got, ids)


@pytest.mark.parametrize("M", [2, 4, 6, 34, 256])
@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_postprocess_equals_the_offset_grouped_formulation_bit_for_bit(kind, M):
    space = FeSpace(build_mesh(M, kind))
    blocks = macroelements(space.mesh)
    coeffs = np.random.default_rng(M).standard_normal(space.n_dofs)
    got = i2h_postprocess(space, blocks, coeffs)
    want = oracle.offset_grouped_postprocess(space, blocks[0], blocks[1], coeffs)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert np.array_equal(got.centers, want.centers)
    for a, b in zip(whole_lift(got), oracle.whole_table_lift(want, space.error_tables)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["tri", "quad"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(half_M=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_table_evaluation_equals_the_block_by_block_evaluation(kind, half_M, seed):
    # The per-shape tables must give what evaluating each element's points
    # of the error rule in its own block gives, for rough nodal data too.
    space = FeSpace(build_mesh(2 * half_M, kind))
    coeffs = np.random.default_rng(seed).standard_normal(space.n_dofs)
    blocks = macroelements(space.mesh)
    field = i2h_postprocess(space, blocks, coeffs)
    tb = space.error_tables
    ids = oracle.block_of_element(blocks[1], space.mesh.n_elements)[:, None]
    want_v = oracle.block_values(field, ids, tb.x)
    want_g = oracle.block_gradients(field, ids, tb.x)
    got_v, got_g = whole_lift(field)
    assert np.abs(got_v - want_v).max() <= 1e-13 * np.abs(want_v).max()
    assert np.abs(got_g - want_g).max() <= 1e-13 * np.abs(want_g).max()
