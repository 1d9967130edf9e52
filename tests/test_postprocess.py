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
    quadrature_norm,
)
from thermistor_fem.manufactured import exact_u, grad_u


def setup(M, kind):
    space = FeSpace(build_mesh(M, kind))
    return space, macroelements(space.mesh)


def at_error_points(space, f, t):
    """``f(x, y, t)`` at the points of the space's error rule."""
    tb = space.error_tables
    return f(tb.x[..., 0], tb.x[..., 1], t)


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
    diff = field.values_on_tables(tb) - p(tb.x[..., 0], tb.x[..., 1], 0.0)
    assert quadrature_norm(tb, diff) < 1e-12
    exact = at_error_points(space, p, 0.0), at_error_points(space, grad, 0.0)
    assert h1_error_postprocessed(field, space, *exact) < 1e-11


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
    space, (_, fine) = setup(8, kind)
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
            tb = space.error_tables
            lifted = quadrature_norm(tb, field.values_on_tables(tb), field.gradients_on_tables(tb))
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
        lifted.append((space.mesh.h, h1_error_postprocessed(field, space, *exact)))
    for order in eoc(plain):
        assert order == pytest.approx(1.0, abs=0.05)
    for order in eoc(lifted):
        assert order == pytest.approx(2.0, abs=0.1)


def test_postprocess_rejects_empty_block_list():
    space = FeSpace(build_mesh(4, "quad"))
    empty = (np.empty((0, 9), dtype=int), np.empty((0, 4), dtype=int))
    with pytest.raises(ValueError, match="do not cover the mesh"):
        i2h_postprocess(space, empty, np.zeros(space.n_dofs))


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_quadrature_norm_is_the_fe_norms_bit_for_bit(kind):
    # The FE norms and errors are quadrature_norm on the error rule; zero
    # gradients add nothing to the L2 part.
    space = FeSpace(build_mesh(4, kind))
    c = np.random.default_rng(6).standard_normal(space.n_dofs)
    tb = space.error_tables
    v, g = space.values_at_quad(c, tb), space.gradients_at_quad(c, tb)
    fe = FeEvaluation(space, c)
    h1 = fe_h1_norm(fe)
    assert quadrature_norm(tb, v) == fe_l2_norm(fe)
    assert quadrature_norm(tb, v, g) == h1
    assert quadrature_norm(tb, v, np.zeros_like(g)) == fe_l2_norm(fe)
    zero = lambda x, y, t: 0.0 * x  # noqa: E731
    zero_grad = lambda x, y, t: (0.0 * x, 0.0 * y)  # noqa: E731
    values, grads = at_error_points(space, zero, 0.0), at_error_points(space, zero_grad, 0.0)
    assert l2_error(fe, values) == fe_l2_norm(fe)
    assert h1_error(fe, values, grads) == h1
    # h1_error took the gradients over; the next read evaluates them afresh.
    assert fe_h1_norm(fe) == h1
    assert quadrature_norm(tb, np.ones_like(v)) == pytest.approx(1.0, abs=1e-14)


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
    assert np.abs(field.values_on_tables(tb) - p(x, y, 0.0)).max() <= 1e-11
    gx, gy = grad(x, y, 0.0)
    g = field.gradients_on_tables(tb)
    assert np.abs(g[..., 0] - gx).max() <= 1e-11
    assert np.abs(g[..., 1] - gy).max() <= 1e-11


@pytest.mark.parametrize("kind,other", [("tri", "quad"), ("quad", "tri")])
def test_postprocess_rejects_blocks_of_the_other_element_kind(kind, other):
    # The anchors of the other block shape do not fit this block space.
    space = FeSpace(build_mesh(4, kind))
    with pytest.raises(ValueError):
        i2h_postprocess(space, macroelements(build_mesh(4, other)), np.zeros(space.n_dofs))


@pytest.mark.parametrize("rule", ["tables", "error_tables"])
@pytest.mark.parametrize("kind", ["tri", "quad"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(half_M=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_table_evaluation_equals_the_block_by_block_evaluation(kind, rule, half_M, seed):
    # The per-shape tables must give what evaluating each element's points
    # in its own block gives, for rough nodal data too.
    space = FeSpace(build_mesh(2 * half_M, kind))
    coeffs = np.random.default_rng(seed).standard_normal(space.n_dofs)
    blocks = macroelements(space.mesh)
    field = i2h_postprocess(space, blocks, coeffs)
    tb = getattr(space, rule)
    ids = oracle.block_of_element(blocks[1], space.mesh.n_elements)[:, None]
    want_v = oracle.block_values(field, ids, tb.x)
    want_g = oracle.block_gradients(field, ids, tb.x)
    assert np.abs(field.values_on_tables(tb) - want_v).max() <= 1e-13 * np.abs(want_v).max()
    assert np.abs(field.gradients_on_tables(tb) - want_g).max() <= 1e-13 * np.abs(want_g).max()
