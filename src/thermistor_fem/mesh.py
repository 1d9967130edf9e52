"""Structured meshes of the unit square and their macroelement grouping.

The solver works on uniform partitions of ``(0, 1) x (0, 1)`` into ``M x M``
axis-aligned squares (``elem_kind="quad"``) or into ``2 M^2`` right triangles
obtained by cutting every square along its lower-right to upper-left diagonal
(``elem_kind="tri"``).  Nodes are the lattice points ``(i/M, j/M)`` numbered
lexicographically (row-major in ``y``, then ``x``), so node ``j*(M+1) + i``
sits at ``(i/M, j/M)``.

``M`` must be even so the fine mesh can be grouped into macroelements: blocks
of ``2 x 2`` fine squares (on which a biquadratic polynomial is anchored at
the nine block nodes) or blocks of four fine triangles forming one triangle
of the doubled mesh (anchored at its three vertices and three edge
midpoints).  The macroelement grouping is what the superconvergent
post-processing operator is built on; `macroelements` returns it as index
arrays, the anchor nodes and the fine elements of each block, computed from
one offset table per block shape, and the blocks of each shape: blocks run
patch by patch and, within a patch, shape by shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Mesh", "build_mesh", "check_mesh_args", "mesh_size", "macroelements"]


@dataclass(frozen=True)
class Mesh:
    """Immutable container for a structured mesh of the unit square.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
        Vertex coordinates, lexicographic ordering.
    elements : (n_elements, 4) or (n_elements, 3) int array
        Vertex indices of each element, counter-clockwise.
    elem_kind : str
        Either ``"quad"`` or ``"tri"``.
    M : int
        Number of cells per side (even, at least 2).
    boundary_nodes : int array
        Sorted indices of nodes on the boundary of the unit square.
    """

    nodes: np.ndarray
    elements: np.ndarray
    elem_kind: str
    M: int
    boundary_nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def h(self) -> float:
        """Mesh size: the element diameter ``sqrt(2)/M``."""
        return mesh_size(self.M)


def mesh_size(M: int) -> float:
    """The element diameter ``sqrt(2)/M`` of the ``M x M`` mesh."""
    return np.sqrt(2.0) / M


def check_mesh_args(M, elem_kind) -> None:
    """Raise ValueError unless ``M`` is an even integer >= 2 and ``elem_kind``
    is ``"quad"`` or ``"tri"``."""
    if not isinstance(M, (int, np.integer)) or M < 2 or M % 2:
        raise ValueError(f"M must be an even integer >= 2, got {M!r}")
    if elem_kind not in ("quad", "tri"):
        raise ValueError(f"elem_kind must be 'quad' or 'tri', got {elem_kind!r}")


def build_mesh(M: int, elem_kind: str = "quad") -> Mesh:
    """Build a uniform mesh of the unit square with ``M`` cells per side.

    Parameters
    ----------
    M : int
        Number of cells per side.  Must be an even integer >= 2 so the mesh
        supports macroelement grouping.
    elem_kind : str
        ``"quad"`` for bilinear squares, ``"tri"`` for linear triangles (each
        square is split along the diagonal from its lower-right corner to its
        upper-left corner).

    Returns
    -------
    Mesh
    """
    check_mesh_args(M, elem_kind)
    side = np.linspace(0.0, 1.0, M + 1)
    X, Y = np.meshgrid(side, side, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # Corner node indices of each cell, row by row: lower-left, lower-right,
    # upper-right, upper-left.
    bl = (np.arange(M)[:, None] * (M + 1) + np.arange(M)).ravel()
    br, tr, tl = bl + 1, bl + M + 2, bl + M + 1
    if elem_kind == "quad":
        elements = np.column_stack([bl, br, tr, tl])
    else:
        # Per cell, the lower triangle (below the diagonal), then the upper.
        elements = np.column_stack([bl, br, tl, br, tr, tl]).reshape(-1, 3)

    jj, ii = np.divmod(np.arange((M + 1) ** 2), M + 1)
    boundary_nodes = np.nonzero((ii == 0) | (ii == M) | (jj == 0) | (jj == M))[0]
    return Mesh(nodes=nodes, elements=elements, elem_kind=elem_kind, M=M, boundary_nodes=boundary_nodes)


# Block shapes, as offsets from the block's lower-left node (2I, 2J): anchors
# (di, dj) and fine elements (di, dj, k), k indexing the element within fine
# cell (2I + di, 2J + dj).  One quad shape; two triangle shapes, below and
# above the block diagonal.  Edge midpoints follow the corners or vertices.
_BLOCK_SHAPES = {
    "quad": [
        ([(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (2, 1), (1, 2), (0, 1), (1, 1)],
         [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    ],
    "tri": [
        ([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1), (0, 1)], [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0)]),
        ([(2, 0), (2, 2), (0, 2), (2, 1), (1, 2), (1, 1)], [(1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1)]),
    ],
}


def macroelements(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Group the fine mesh into macroelements for post-processing.

    For quads, each block is a ``2 x 2`` patch of fine squares and the anchors
    are its nine nodes (corners, edge midpoints, center), supporting a unique
    biquadratic interpolant.  For triangles, each block is one triangle of the
    doubled (``M/2``) mesh, made of four fine triangles, and the anchors are
    its three vertices and three edge midpoints, supporting a unique quadratic
    interpolant.

    Returns ``(anchors, fine, shapes)``: int arrays of shape ``(n_blocks, 9)``
    (quads) or ``(n_blocks, 6)`` (triangles) holding the anchor nodes and
    ``(n_blocks, 4)`` holding the fine elements of each block, and one array
    of block indices per block shape, whose blocks are translates of each
    other.  There are ``M^2/4`` quad blocks, row-major over the ``2 x 2``
    patches, and ``M^2/2`` triangle blocks, the lower and then the upper
    triangle of each patch: shape ``s`` of ``n`` holds blocks ``s::n``.

    Raises
    ------
    ValueError
        If the mesh is not one `build_mesh` makes: its M, kind or layout.
    """
    M = mesh.M
    check_mesh_args(M, mesh.elem_kind)
    expected = M * M if mesh.elem_kind == "quad" else 2 * M * M
    if mesh.n_elements != expected or mesh.n_nodes != (M + 1) ** 2:
        raise ValueError("mesh does not match the structured layout of build_mesh")

    table = _BLOCK_SHAPES[mesh.elem_kind]
    a = np.array([anchor for anchor, _ in table])  # (n_shapes, n_anchors, 2)
    f = np.array([fine for _, fine in table])  # (n_shapes, 4, 3)
    j0, i0 = 2 * np.indices((M // 2, M // 2)).reshape(2, -1, 1, 1)
    anchors = (j0 + a[..., 1]) * (M + 1) + i0 + a[..., 0]
    per_cell = mesh.n_elements // (M * M)
    fine = ((j0 + f[..., 1]) * M + i0 + f[..., 0]) * per_cell + f[..., 2]
    shapes = tuple(np.arange(s, len(table) * (M // 2) ** 2, len(table)) for s in range(len(table)))
    return anchors.reshape(-1, a.shape[1]), fine.reshape(-1, 4), shapes
