"""Triangulated unit two-sphere with a linear-FEM mass/stiffness pencil.

The mesh is a loop-subdivided icosahedron with vertices projected to the
unit sphere, oriented outward, and rotated once so that vertex 0 sits at
the north pole and its antipode at the south pole (branch points of the
standard power maps then coincide with mesh vertices).

Two area conventions are supported.  ``UNIT_ROUND`` is the round sphere of
total area 4*pi used for all internal geometry.  ``AREA_ONE`` is a view of
the same mesh in which consumers rescale dA by 1/(4*pi) and the energy
density |df|^2 by 4*pi, leaving the conformally invariant Dirichlet energy
unchanged.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .errors import MeshAssemblyError, PreconditionError, ResourceLimitError

FOUR_PI = 4.0 * math.pi
# P1 consistent mass matrix of a face of unit area
MASS_LOCAL = (np.ones((3, 3)) + np.eye(3)) / 12.0


def worker_count() -> int:
    """Thread count for spatial queries (SPHERELAB_THREADS, default 1)."""
    try:
        return max(1, int(os.environ.get("SPHERELAB_THREADS", "1")))
    except ValueError:
        return 1


class AreaConvention(enum.Enum):
    UNIT_ROUND = "unit_round"
    AREA_ONE = "area_one"


def _icosahedron():
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    # Rotate vertex 0 onto the north pole; the icosahedron is centrally
    # symmetric so its antipode lands on the south pole.
    b3 = verts[0]
    b1 = verts[1] - np.dot(verts[1], b3) * b3
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(b3, b1)
    rot = np.stack([b1, b2, b3])
    verts = verts @ rot.T
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return verts, faces


def _edge_table(faces, v, return_inverse=False):
    """Unique edges (i < j) of faces on v vertices, sorted, as a read-only array.

    Returns (edges, [inverse,] counts) as np.unique does: edges[inverse] lists
    each face's edges 01, 12, 20 in face order, counts the faces on each edge.
    The int64 dedup key i*v + j sorts in the lexicographic order of (i, j).
    """
    nxt = np.roll(faces, -1, axis=1)
    key = np.minimum(faces, nxt).astype(np.int64) * v + np.maximum(faces, nxt)
    uniq, *rest = np.unique(key.reshape(-1), return_inverse=return_inverse,
                            return_counts=True)
    edges = np.stack(np.divmod(uniq, v), axis=1)
    edges.flags.writeable = False
    return (edges, *rest)


def _subdivide(verts, faces):
    """One loop-subdivision round with midpoints projected to the sphere."""
    uniq, inv, _ = _edge_table(faces, len(verts), return_inverse=True)
    mid = verts[uniq[:, 0]] + verts[uniq[:, 1]]
    mid /= np.linalg.norm(mid, axis=1)[:, None]
    m = len(verts) + inv.reshape(-1, 3)  # columns: m01, m12, m20
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    new_faces = np.stack(
        [
            np.stack([a, m[:, 0], m[:, 2]], axis=1),
            np.stack([b, m[:, 1], m[:, 0]], axis=1),
            np.stack([c, m[:, 2], m[:, 1]], axis=1),
            np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1),
        ],
        axis=1,
    ).reshape(-1, 3)
    return np.vstack([verts, mid]), new_faces


@dataclass(eq=False)
class SphereMesh:
    """Closed oriented triangulation of the unit sphere."""

    vertices: np.ndarray
    faces: np.ndarray
    subdivision_level: int
    area_convention: AreaConvention = AreaConvention.UNIT_ROUND
    scale_factor: float = 1.0
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def face_count(self):
        return len(self.faces)

    def _cached(self, key, build):
        """The cache entry for key, made by build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def edges(self):
        """Unique vertex pairs (i < j) in lexicographic order; cached, read-only."""
        return self._cached("edges",
                            lambda: _edge_table(self.faces, self.vertex_count)[0])

    def max_edge_length(self):
        e = self.edges()
        d = self.vertices[e[:, 0]] - self.vertices[e[:, 1]]
        return float(np.max(np.linalg.norm(d, axis=1)))

    # -- per-element geometry -------------------------------------------------

    def _geometry(self):
        return self._cached("geom", self._build_geometry)

    def _build_geometry(self):
        p = self.vertices[self.faces]  # (F, 3, 3)
        # edge i is opposite vertex i
        e = np.empty_like(p)
        np.subtract(p[:, 2], p[:, 1], out=e[:, 0])
        np.subtract(p[:, 0], p[:, 2], out=e[:, 1])
        np.subtract(p[:, 1], p[:, 0], out=e[:, 2])
        # e1 x e2 is (p1 - p0) x (p2 - p0) up to sign, bit for bit
        flat_area = 0.5 * np.linalg.norm(np.cross(e[:, 1], e[:, 2]), axis=1)
        if np.any(flat_area <= 0) or not np.all(np.isfinite(flat_area)):
            bad = int(np.argmin(flat_area))
            raise MeshAssemblyError(
                f"degenerate face {bad} with area {flat_area[bad]!r}", face_index=bad
            )
        # k_local[f, i, j] = e_i . e_j: six two-index einsums give the bits of
        # the one three-index einsum in less time
        k_local = np.empty_like(p)
        for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)):
            dot = np.einsum("fc,fc->f", e[:, i], e[:, j])
            k_local[:, i, j] = k_local[:, j, i] = dot
        k_local /= (4.0 * flat_area)[:, None, None]
        # Quadrature weights use exact geodesic triangle areas; these tile
        # the sphere, so the total mass is 4*pi to rounding.  The stiffness
        # keeps flat-triangle cotangents (conformally immaterial in 2d).
        a, b, c = p[:, 0], p[:, 1], p[:, 2]
        num = np.abs(np.einsum("fc,fc->f", a, np.cross(b, c)))
        den = (
            1.0
            + np.einsum("fc,fc->f", a, b)
            + np.einsum("fc,fc->f", b, c)
            + np.einsum("fc,fc->f", c, a)
        )
        area = 2.0 * np.arctan2(num, den)
        return area, k_local, flat_area

    @property
    def face_areas(self):
        """Geodesic triangle areas (they sum to the exact sphere area)."""
        return self._geometry()[0]

    @property
    def face_flat_areas(self):
        return self._geometry()[2]

    @property
    def face_stiffness(self):
        """Local 3x3 stiffness blocks (cotangent weights) per face."""
        return self._geometry()[1]

    @property
    def face_centroids(self):
        def build():
            c = self.vertices[self.faces].mean(axis=1)
            return c / np.linalg.norm(c, axis=1)[:, None]

        return self._cached("centroids", build)

    @property
    def centroid_tree(self):
        """kd-tree over the face centroids (cached)."""
        return self._cached("centroid_tree", lambda: cKDTree(self.face_centroids))

    @property
    def vertex_tree(self):
        """kd-tree over the vertices (cached)."""
        return self._cached("vertex_tree", lambda: cKDTree(self.vertices))

    def total_area(self):
        return float(self.face_areas.sum())

    def solve_mass(self, rhs):
        """Solve M x = rhs columnwise (M is the consistent mass matrix)."""
        lu = self._cached("mass_lu", lambda: splu(assemble_pencil(self).M.tocsc()))
        return _solve_columns(lu, rhs)

    def solve_stiff_plus_mass(self, rhs):
        """Solve (K + M) x = rhs columnwise; factorization is cached."""
        def factor():
            pencil = assemble_pencil(self)
            return splu((pencil.K + pencil.M).tocsc())

        return _solve_columns(self._cached("km_lu", factor), rhs)


def _solve_columns(lu, rhs):
    """One SuperLU solve for all columns of rhs, as a C-ordered array.

    With a vendor BLAS, blocks of four or more columns go through other
    dtrsm / dgemm kernels than single columns do, so columns can differ from
    one-column solves in the last bits.
    """
    return np.ascontiguousarray(lu.solve(np.asarray(rhs, dtype=float)))


@dataclass(frozen=True)
class FemPencil:
    """Consistent mass matrix M and stiffness matrix K (both CSR)."""

    M: sp.csr_matrix
    K: sp.csr_matrix


def build_icosphere(subdivision_level: int) -> SphereMesh:
    """Loop-subdivided icosahedron projected to the unit sphere.

    Level 0 is the icosahedron itself (12 vertices, 20 faces); every level
    quadruples the face count.  Levels above 8 are refused as a memory guard.
    """
    if subdivision_level < 0:
        raise PreconditionError("subdivision_level must be nonnegative")
    if subdivision_level > 8:
        raise ResourceLimitError(
            f"subdivision_level {subdivision_level} exceeds the guard (8)"
        )
    verts, faces = _icosahedron()
    for _ in range(subdivision_level):
        verts, faces = _subdivide(verts, faces)
    mesh = SphereMesh(
        vertices=verts,
        faces=faces,
        subdivision_level=subdivision_level,
        area_convention=AreaConvention.UNIT_ROUND,
        scale_factor=1.0,
    )
    validate_mesh(mesh)
    return mesh


def validate_mesh(mesh: SphereMesh) -> None:
    """Check unit vertices, topology and closedness; cache the edge table on success."""
    norms = np.linalg.norm(mesh.vertices, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise PreconditionError("vertices are not on the unit sphere")
    v = mesh.vertex_count
    f = mesh.face_count
    edges, counts = _edge_table(mesh.faces, v)
    e = len(edges)
    if v - e + f != 2:
        raise PreconditionError(f"Euler characteristic {v - e + f} != 2")
    if not np.all(counts == 2):
        raise PreconditionError("mesh is not closed: an edge is not shared by 2 faces")
    mesh._geometry()  # raises MeshAssemblyError on degenerate faces
    mesh._cache["edges"] = edges


def assemble_faces(mesh: SphereMesh, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum per-face blocks into a CSR matrix, in ascending face order.

    blocks is (F, 3, 3) for a scalar form or (F, 3, 3, C, C) for a form on C
    coordinates: blocks[f, i, j, c, d] is added at row faces[f, i] * C + c and
    column faces[f, j] * C + d.  For a scalar form an off-diagonal entry sums
    the two faces on its edge, and a + b == b + a in floating point, so
    symmetric blocks give an exactly symmetric matrix.
    """
    F = mesh.face_count
    C = blocks.shape[3] if blocks.ndim == 5 else 1
    blocks = blocks.reshape(F, 3, 3, C, C)
    idx = mesh.faces[:, :, None] * C + np.arange(C)                  # (F, 3, C)
    rows = np.broadcast_to(idx[:, :, None, :, None], blocks.shape).reshape(-1)
    cols = np.broadcast_to(idx[:, None, :, None, :], blocks.shape).reshape(-1)
    dim = mesh.vertex_count * C
    return sp.coo_matrix((blocks.reshape(-1), (rows, cols)), shape=(dim, dim)).tocsr()


def assemble_pencil(mesh: SphereMesh) -> FemPencil:
    """Piecewise-linear FEM mass and stiffness matrices of the mesh.

    Assembly runs in ascending face order so matrices are reproducible and
    exactly symmetric.  The sum of all mass entries equals the mesh area; K
    annihilates constants at assembly precision.
    """
    def build():
        area, k_local, _ = mesh._geometry()
        return FemPencil(M=assemble_faces(mesh, area[:, None, None] * MASS_LOCAL),
                         K=assemble_faces(mesh, k_local))

    return mesh._cached("pencil", build)


def to_area_one(mesh: SphereMesh) -> SphereMesh:
    """View of the mesh under the total-area-one convention.

    Combinatorics and vertex positions are shared; only the convention tag
    and scale factor change.  Consumers rescale dA by the scale factor and
    |df|^2 by its inverse, so the Dirichlet energy is unchanged.
    """
    if mesh.area_convention is not AreaConvention.UNIT_ROUND:
        raise PreconditionError("to_area_one expects a unit-round mesh")
    return SphereMesh(
        vertices=mesh.vertices,
        faces=mesh.faces,
        subdivision_level=mesh.subdivision_level,
        area_convention=AreaConvention.AREA_ONE,
        scale_factor=1.0 / FOUR_PI,
        _cache=mesh._cache,  # geometry identical, reuse factorizations
    )


def rotate_mesh(mesh: SphereMesh, rotation: np.ndarray) -> SphereMesh:
    """Same combinatorics with vertices rotated by the given 3x3 matrix."""
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (3, 3) or np.max(np.abs(rotation @ rotation.T - np.eye(3))) > 1e-10:
        raise PreconditionError("rotation must be a 3x3 orthogonal matrix")
    verts = mesh.vertices @ rotation.T
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return SphereMesh(
        vertices=verts,
        faces=mesh.faces.copy(),
        subdivision_level=mesh.subdivision_level,
        area_convention=mesh.area_convention,
        scale_factor=mesh.scale_factor,
    )


def geodesic_distance(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    dots = np.clip(np.sum(points_a * points_b, axis=-1), -1.0, 1.0)
    return np.arccos(dots)


def mesh_to_obj(mesh: SphereMesh, path) -> None:
    """Write the mesh as ASCII OBJ (1-based face indices)."""
    with open(path, "w") as fh:
        fh.write("# spherelab icosphere level %d\n" % mesh.subdivision_level)
        for v in mesh.vertices:
            fh.write("v %.17g %.17g %.17g\n" % (v[0], v[1], v[2]))
        for f in mesh.faces:
            fh.write("f %d %d %d\n" % (f[0] + 1, f[1] + 1, f[2] + 1))


def mesh_json_doc(mesh: SphereMesh) -> str:
    return json.dumps(
        {
            "level": mesh.subdivision_level,
            "convention": mesh.area_convention.value,
            "vertex_count": mesh.vertex_count,
            "face_count": mesh.face_count,
        },
        sort_keys=True,
    )
