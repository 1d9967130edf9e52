"""Structured mesh construction and macroelement grouping."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermistor_fem import build_mesh, macroelements


def signed_double_areas(mesh):
    tri = mesh.nodes[mesh.elements[:, :3]]
    d1 = tri[:, 1] - tri[:, 0]
    d2 = tri[:, 2] - tri[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


@pytest.mark.parametrize("M", [2, 4, 10])
def test_node_layout_is_lexicographic(M):
    mesh = build_mesh(M, "quad")
    assert mesh.n_nodes == (M + 1) ** 2
    for j in range(M + 1):
        for i in range(M + 1):
            node = j * (M + 1) + i
            assert mesh.nodes[node] == pytest.approx([i / M, j / M])


@pytest.mark.parametrize("kind,count", [("quad", 16), ("tri", 32)])
def test_element_counts(kind, count):
    mesh = build_mesh(4, kind)
    assert mesh.n_elements == count
    assert mesh.elements.shape[1] == (4 if kind == "quad" else 3)


@pytest.mark.parametrize("kind", ["quad", "tri"])
def test_elements_are_counter_clockwise_and_tile_the_square(kind):
    mesh = build_mesh(6, kind)
    if kind == "tri":
        a2 = signed_double_areas(mesh)
        assert np.all(a2 > 0)
        assert a2.sum() / 2.0 == pytest.approx(1.0, abs=1e-14)
    else:
        quads = mesh.nodes[mesh.elements]
        # shoelace formula per quad
        x, y = quads[..., 0], quads[..., 1]
        area = 0.5 * (
            np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
        )
        assert np.all(area > 0)
        assert area.sum() == pytest.approx(1.0, abs=1e-14)


def test_triangles_split_along_lower_right_to_upper_left_diagonal():
    mesh = build_mesh(2, "tri")
    # Cell (0, 0) has corners bl=0, br=1, tl=3, tr=4 and is split along the
    # br-tl diagonal: lower triangle (bl, br, tl), upper triangle (br, tr, tl).
    assert mesh.elements[0].tolist() == [0, 1, 3]
    assert mesh.elements[1].tolist() == [1, 4, 3]


def test_boundary_nodes():
    M = 4
    mesh = build_mesh(M, "tri")
    assert mesh.boundary_nodes.size == 4 * M
    coords = mesh.nodes[mesh.boundary_nodes]
    on_edge = (
        (coords[:, 0] == 0.0)
        | (coords[:, 0] == 1.0)
        | (coords[:, 1] == 0.0)
        | (coords[:, 1] == 1.0)
    )
    assert np.all(on_edge)
    # and no interior node is flagged
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    coords_in = mesh.nodes[interior]
    assert np.all((coords_in > 0) & (coords_in < 1))


def test_mesh_size_is_element_diameter():
    mesh = build_mesh(8, "tri")
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 8)


@pytest.mark.parametrize("bad", [3, 0, -2, 2.0, "4"])
def test_build_mesh_rejects_bad_m(bad):
    with pytest.raises(ValueError):
        build_mesh(bad, "quad")


def test_build_mesh_rejects_bad_kind():
    with pytest.raises(ValueError):
        build_mesh(4, "hex")


@pytest.mark.parametrize("kind", ["quad", "tri"])
def test_macroelements_partition_the_fine_mesh(kind):
    mesh = build_mesh(8, kind)
    anchors, fine, _ = macroelements(mesh)
    expected_blocks = (8 * 8 // 4) if kind == "quad" else (8 * 8 // 2)
    assert anchors.shape == (expected_blocks, 9 if kind == "quad" else 6)
    assert fine.shape == (expected_blocks, 4)
    assert sorted(fine.ravel().tolist()) == list(range(mesh.n_elements))
    for row in anchors:
        assert len(set(row.tolist())) == row.size


def test_quad_block_anchors_form_the_nine_node_patch():
    mesh = build_mesh(4, "quad")
    anchors, _, _ = macroelements(mesh)
    for row in anchors:
        pts = mesh.nodes[row]
        # corners, then edge midpoints, then the center
        corners = pts[:4]
        center = corners.mean(axis=0)
        assert pts[8] == pytest.approx(center)
        mids = np.array(
            [
                (corners[0] + corners[1]) / 2,
                (corners[1] + corners[2]) / 2,
                (corners[2] + corners[3]) / 2,
                (corners[3] + corners[0]) / 2,
            ]
        )
        assert pts[4:8] == pytest.approx(mids)


def test_triangle_block_anchors_are_vertices_plus_edge_midpoints():
    mesh = build_mesh(4, "tri")
    a2 = signed_double_areas(mesh)
    anchors, fine_blocks, _ = macroelements(mesh)
    for row, fine in zip(anchors, fine_blocks):
        pts = mesh.nodes[row]
        v = pts[:3]
        mids = np.array([(v[0] + v[1]) / 2, (v[1] + v[2]) / 2, (v[2] + v[0]) / 2])
        assert pts[3:] == pytest.approx(mids)
        # the four fine triangles tile the doubled triangle exactly
        block_area2 = abs(
            (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
            - (v[2, 0] - v[0, 0]) * (v[1, 1] - v[0, 1])
        )
        assert a2[fine].sum() == pytest.approx(block_area2, abs=1e-15)
        # every fine-element vertex lies inside the doubled triangle
        fine_nodes = np.unique(mesh.elements[fine])
        assert set(row.tolist()) == set(fine_nodes.tolist())


def test_macroelement_blocks_run_row_major_over_the_patches():
    # Block b of the quad grouping, and blocks 2b and 2b + 1 of the triangle
    # grouping, sit on patch b: the order the oracle's `locate_blocks`
    # assumes.
    M = 6
    for kind, per_patch in (("quad", 1), ("tri", 2)):
        mesh = build_mesh(M, kind)
        anchors, _, _ = macroelements(mesh)
        lower_left = mesh.nodes[anchors].min(axis=1)
        patch = np.repeat(np.arange((M // 2) ** 2), per_patch)
        want = 2 * np.column_stack([patch % (M // 2), patch // (M // 2)]) / M
        assert lower_left == pytest.approx(want)


def loop_macroelements(mesh):
    """The block-by-block grouping that `macroelements` vectorizes, kept as
    its reference: anchors and fine elements of each block, in block order."""
    M = mesh.M
    node = lambda i, j: j * (M + 1) + i  # noqa: E731
    anchors, fine = [], []
    for J in range(M // 2):
        for I in range(M // 2):
            i, j = 2 * I, 2 * J
            if mesh.elem_kind == "quad":
                cell = lambda a, b: b * M + a  # noqa: E731
                fine.append([cell(i, j), cell(i + 1, j), cell(i, j + 1), cell(i + 1, j + 1)])
                anchors.append([
                    node(i, j), node(i + 2, j), node(i + 2, j + 2), node(i, j + 2),
                    node(i + 1, j), node(i + 2, j + 1), node(i + 1, j + 2), node(i, j + 1),
                    node(i + 1, j + 1),
                ])
                continue
            lower = lambda a, b: 2 * (b * M + a)  # noqa: E731
            upper = lambda a, b: 2 * (b * M + a) + 1  # noqa: E731
            fine.append([lower(i, j), upper(i, j), lower(i + 1, j), lower(i, j + 1)])
            anchors.append([
                node(i, j), node(i + 2, j), node(i, j + 2),
                node(i + 1, j), node(i + 1, j + 1), node(i, j + 1),
            ])
            fine.append([upper(i + 1, j), lower(i + 1, j + 1), upper(i + 1, j + 1), upper(i, j + 1)])
            anchors.append([
                node(i + 2, j), node(i + 2, j + 2), node(i, j + 2),
                node(i + 2, j + 1), node(i + 1, j + 2), node(i + 1, j + 1),
            ])
    return np.array(anchors), np.array(fine)


@pytest.mark.parametrize("kind", ["quad", "tri"])
@pytest.mark.parametrize("M", [2, 4, 8, 10])
def test_macroelements_equal_the_block_by_block_loop(kind, M):
    mesh = build_mesh(M, kind)
    anchors, fine, _ = macroelements(mesh)
    want_anchors, want_fine = loop_macroelements(mesh)
    assert np.array_equal(anchors, want_anchors)
    assert np.array_equal(fine, want_fine)


even_M = st.integers(1, 20).map(lambda k: 2 * k)
kinds = st.sampled_from(["quad", "tri"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(M=even_M, kind=kinds)
def test_fine_blocks_partition_the_elements(M, kind):
    mesh = build_mesh(M, kind)
    _, fine, _ = macroelements(mesh)
    assert np.array_equal(np.sort(fine.ravel()), np.arange(mesh.n_elements))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(M=even_M, kind=kinds)
def test_anchor_rows_are_the_nodes_of_their_fine_elements(M, kind):
    mesh = build_mesh(M, kind)
    anchors, fine, _ = macroelements(mesh)
    for row, elems in zip(anchors, fine):
        assert len(set(row.tolist())) == row.size
        assert set(row.tolist()) == set(mesh.elements[elems].ravel().tolist())


def test_macroelements_rejects_foreign_mesh():
    # An unknown kind used to escape as KeyError, a float M as TypeError.
    mesh = build_mesh(4, "tri")
    for foreign in (
        replace(mesh, elements=build_mesh(2, "tri").elements),
        replace(mesh, elem_kind="hex"),
        replace(mesh, elem_kind="Tri"),
        replace(mesh, M=4.0),
    ):
        with pytest.raises(ValueError):
            macroelements(foreign)

