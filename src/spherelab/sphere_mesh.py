"""Triangulated unit two-sphere with a linear-FEM mass/stiffness pencil.

The mesh is a loop-subdivided icosahedron with vertices projected to the
unit sphere, oriented outward, and rotated once so that vertex 0 sits at
the north pole and its antipode at the south pole (branch points of the
standard power maps then coincide with mesh vertices).

Every mesh is the round sphere of total area 4*pi.  The energy applies the
area-one convention of the alpha-energy on read
(energy.element_density_area_one).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import MeshAssemblyError, PreconditionError, ResourceLimitError

if TYPE_CHECKING:
    import scipy.sparse as sp

FOUR_PI = 4.0 * math.pi
# build_icosphere's memory guard: level 8 has 1.3 M faces
MAX_LEVEL = 8
# P1 consistent mass matrix of a face of unit area
MASS_LOCAL = (np.ones((3, 3)) + np.eye(3)) / 12.0
# faces per block of every face walk (corner_blocks): a block's (C, 3, B)
# corner array and its (C, B) temporaries stay in cache, and no walk makes a
# per-face (C, 3, F) array
FACE_BLOCK = 1 << 12
# largest part the nested dissection leaves undivided
DISSECTION_LEAF = 64
# the eigenvalues of diag(M)^-1 M lie in [1/2, 2] for the P1 mass matrix M of
# any triangle mesh (Wathen 1987), and k Chebyshev steps on that interval cut
# the error by 2 * 3^-k at least: 1.5e-18 at 38
MASS_SPECTRUM = (0.5, 2.0)
MASS_CHEBYSHEV_STEPS = 38


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
        dtype=np.int32,
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


# Three-component arithmetic on (3, B) coordinate rows, in the summation order
# of np.einsum("fc,fc->f"), np.cross and np.linalg.norm over (F, 3) arrays,
# so that blockwise results keep their bits.

def _dot(x, y):
    return (x[0] * y[0] + x[2] * y[2]) + x[1] * y[1]


def _cross(x, y):
    return (x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def _norm_sq(x):
    return (x[0] * x[0] + x[1] * x[1]) + x[2] * x[2]


def _row_dots(x, y):
    """Per-row dot products of (R, C) arrays, summed column by column in
    column order: numpy's reduction over rows of a few entries is several
    times slower than its work on whole columns.

    Below 8 columns numpy's pairwise sum adds a row in the same order, so
    the result is np.sum(x * y, axis=1) bit for bit.  Trailing columns of
    zeros add nothing to a nonzero sum, so a caller may leave them out.
    """
    total = x[:, 0] * y[:, 0]
    for j in range(1, x.shape[1]):
        total += x[:, j] * y[:, j]
    return total


def _row_norms(x):
    """Per-row norms of an (R, C) array, the square roots of _row_dots(x, x)."""
    return np.sqrt(_row_dots(x, x))


def _edges(a, b, c):
    """Edges c - b, a - c, b - a of a triangle: edge i is opposite corner i."""
    return c - b, a - c, b - a


def _flat_areas(e):
    """Flat-triangle areas from the edges of _edges."""
    return 0.5 * np.sqrt(_norm_sq(_cross(e[1], e[2])))


def _centroids(corners):
    """Flat-triangle centroids projected to the sphere, as C-ordered (B, 3)
    rows, from the corners (a, b, c), each a (3, B) array of coordinate rows.
    A product with a 3-vector then has the bits it has on the (F, 3) array."""
    a, b, c = corners
    mean = (a + b + c) / 3.0
    return np.ascontiguousarray((mean / np.sqrt(_norm_sq(mean))).T)


# the (i, j) of the cotangent rows -k_01, -k_12, -k_02
_OFF_DIAGONAL = ((0, 1), (1, 2), (0, 2))


def _edge_keys(faces, v):
    """(F, 3) int64 keys min(i, j) * v + max(i, j) of each face's edges 01, 12, 20.

    On v vertices the key sorts in the lexicographic order of (i, j)."""
    nxt = faces[:, [1, 2, 0]]
    key = np.minimum(faces, nxt).astype(np.int64, copy=False)
    key *= v
    key += np.maximum(faces, nxt, out=nxt)
    return key


def _edge_count(faces, v):
    """(number of distinct edges, whether every edge lies on exactly 2 faces).

    Sorts the 3F edge keys once; the edges are the runs of equal keys, and no
    (E, 2) edge table is made."""
    keys = _edge_keys(faces, v).reshape(-1)
    keys.sort()
    starts = np.ones(len(keys), dtype=bool)  # a run of equal keys starts here
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    e = int(np.count_nonzero(starts))
    # if no run starts at an odd position, every run has even length, and
    # 2E keys in E such runs make every run of length 2
    closed = 2 * e == len(keys) and not starts[1::2].any()
    return e, closed


def _edge_table(faces, v, return_inverse=False):
    """Unique edges (i < j) of faces on v vertices, sorted, as a read-only array.

    Returns (edges, [inverse,] counts) as np.unique does: edges[inverse] lists
    each face's edges 01, 12, 20 in face order, counts the faces on each edge.
    """
    key = _edge_keys(faces, v).reshape(-1)
    uniq, *rest = np.unique(key, return_inverse=return_inverse, return_counts=True)
    edges = np.stack(np.divmod(uniq, v), axis=1)
    edges.flags.writeable = False
    return (edges, *rest)


def _subdivide(verts, faces):
    """One loop-subdivision round with midpoints projected to the sphere.

    Invariant: face f = (a, b, c) has the children 4f .. 4f+3, (a, m01, m20),
    (b, m12, m01), (c, m20, m12) and the centre child (m01, m12, m20) last;
    the midpoints are numbered in the sorted order of their edge keys."""
    uniq, inv, _ = _edge_table(faces, len(verts), return_inverse=True)
    mid = verts[uniq[:, 0]] + verts[uniq[:, 1]]
    mid /= _row_norms(mid)[:, None]
    new_verts = np.vstack([verts, mid])
    # children[f, i] = (corner i, m_i, m_(i-1)) for the corner children, with
    # m_0, m_1, m_2 = m01, m12, m20, then the centre child (m01, m12, m20)
    children = np.empty((len(faces), 4, 3), dtype=np.int32)
    m = np.add(inv.reshape(-1, 3), len(verts), out=children[:, 3])
    children[:, :3, 0] = faces
    children[:, :3, 1] = m
    children[:, :3, 2] = m[:, [2, 0, 1]]
    return new_verts, children.reshape(-1, 3)


@dataclass(eq=False)
class SphereMesh:
    """Closed oriented triangulation of the unit sphere.  Meshes from
    build_icosphere keep _subdivide's layout: the children of face f of the
    level before are faces 4f .. 4f+3, the centre child last.  Their (F, 3)
    face table is int32, which holds every vertex index up to MAX_LEVEL;
    _edge_keys widens to int64 where indices are multiplied."""

    vertices: np.ndarray
    faces: np.ndarray
    subdivision_level: int
    _cache: dict = field(default_factory=dict, init=False, repr=False)

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

    def max_edge_length(self):
        """Longest edge chord; computed by the geometry pass and cached."""
        return self._geometry()[2]

    # -- per-element geometry -------------------------------------------------

    def _geometry(self):
        return self._cached("geom", self._build_geometry)

    def corner_blocks(self, columns):
        """The one face walk: the faces FACE_BLOCK at a time, gathering
        per-vertex columns.

        columns is a (C, V) array.  Yields (faces, corners) per block of B
        faces: the block's slice and the (C, 3, B) array with
        corners[c, i, b] = columns[c, faces[start + b, i]], so that each
        (c, i) row holds B contiguous values.
        """
        for start in range(0, self.face_count, FACE_BLOCK):
            faces = slice(start, start + FACE_BLOCK)
            yield faces, np.take(columns, self.faces[faces].T, axis=1)

    def scatter_corners(self, out, faces, values):
        """Add values[d, b, i] into out[d, faces[start + b, i]] in place, face
        by face as np.add.at does, so consecutive slices of faces give the bits
        of one scatter over all faces.  out is (D, V) and values (D, B, 3), or
        (D, B, 1) for one value per face of the slice."""
        idx = self.faces[faces].reshape(-1)
        for row, corner_values in zip(out, np.broadcast_to(values, (len(out), len(idx) // 3, 3))):
            np.add.at(row, idx, corner_values.reshape(-1))

    def _corner_blocks(self):
        """The blocks of corner_blocks over the vertex coordinates, as (faces,
        (a, b, c)) with each corner a (3, B) array.  Each block gathers from
        the (V, 3) rows, so the walk makes no (3, V) copy of the vertices."""
        for start in range(0, self.face_count, FACE_BLOCK):
            faces = slice(start, start + FACE_BLOCK)
            corners = np.take(self.vertices, self.faces[faces].T, axis=0)  # (3, B, 3)
            yield faces, np.ascontiguousarray(corners.transpose(0, 2, 1))

    def _build_geometry(self):
        """Per-face areas and cotangent rows, and the longest edge, in one pass.

        Every value has the bits of the np.einsum / np.cross /
        np.linalg.norm formulas over (F, 3, 3) corner arrays.  The flat areas
        the cotangents divide by are checked here and not kept
        (face_flat_areas).
        """
        f = self.face_count
        area = np.empty(f)
        cotangents = np.empty((3, f))
        max_sq = 0.0
        degenerate = False
        # a degenerate face divides by zero here and is reported below
        with np.errstate(divide="ignore", invalid="ignore"):
            for faces, (a, b, c) in self._corner_blocks():
                e = _edges(a, b, c)
                flat_area = _flat_areas(e)
                degenerate = degenerate or not np.all(np.isfinite(flat_area) & (flat_area > 0))
                den = 4.0 * flat_area
                for row, (i, j) in zip(cotangents, _OFF_DIAGONAL):
                    row[faces] = -(_dot(e[i], e[j]) / den)
                # Quadrature weights use exact geodesic triangle areas; these
                # tile the sphere, so the total mass is 4*pi to rounding.  The
                # stiffness keeps flat-triangle cotangents (conformally
                # immaterial in 2d).
                num = np.abs(_dot(a, _cross(b, c)))
                area[faces] = 2.0 * np.arctan2(
                    num, 1.0 + _dot(a, b) + _dot(b, c) + _dot(c, a))
                max_sq = max(max_sq, *(float(np.max(_norm_sq(x))) for x in e))
            if degenerate:  # name the first NaN area, or else the first smallest
                flat_area = self.face_flat_areas
                bad = int(np.argmin(flat_area))
                raise MeshAssemblyError(
                    f"degenerate face {bad} with area {flat_area[bad]!r}", face_index=bad
                )
        return area, cotangents, math.sqrt(max_sq)

    def _centroid_blocks(self):
        """The flat-triangle centroids projected to the sphere, FACE_BLOCK
        faces at a time: yields (faces, (B, 3) centroids) per block."""
        for faces, corners in self._corner_blocks():
            yield faces, _centroids(corners)

    def _build_centroids(self):
        centroids = np.empty((self.face_count, 3))
        for faces, block in self._centroid_blocks():
            centroids[faces] = block
        return centroids

    @property
    def face_areas(self):
        """Geodesic triangle areas (they sum to the exact sphere area)."""
        return self._geometry()[0]

    @property
    def face_flat_areas(self):
        """Flat-triangle areas, (F,), recomputed by a face walk on each read:
        no copy is kept on the mesh.  Its readers read it once per call."""
        flat_area = np.empty(self.face_count)
        for faces, corners in self._corner_blocks():
            flat_area[faces] = _flat_areas(_edges(*corners))
        return flat_area

    @property
    def face_cotangents(self):
        """(3, F) rows -k_01, -k_12, -k_02, the weights of edges ab, bc, ca: the
        mesh's only stored P1 stiffness (Pinkall-Polthier 1993)."""
        return self._geometry()[1]

    @property
    def face_stiffness(self):
        """(F, 3, 3) P1 stiffness blocks expanded from face_cotangents on each
        read: the negated rows off the diagonal, and on it minus the sum of the
        row's off-diagonals, k_00 = c0 + c2, k_11 = c0 + c1, k_22 = c1 + c2."""
        c = self.face_cotangents
        k = np.empty((self.face_count, 3, 3))
        for row, (i, j) in zip(c, _OFF_DIAGONAL):
            k[:, i, j] = k[:, j, i] = -row
        for i, (r, s) in enumerate(((0, 2), (0, 1), (1, 2))):
            np.add(c[r], c[s], out=k[:, i, i])
        return k

    @property
    def face_centroids(self):
        """Flat-triangle centroids projected to the sphere, (F, 3); built on first use."""
        return self._cached("centroids", self._build_centroids)

    def locate(self, points):
        """Index of a face whose cone holds each of the (Q, 3) unit points,
        found down the subdivision from the level-0 face with the largest
        smallest barycentric: corner child j if centre row j is negative, else
        the centre child.  A point on an edge gets the face it reaches first."""
        top, *centres = self._cached("hierarchy", self._build_hierarchy)
        face = (top.reshape(-1, 3) @ points.T).reshape(20, 3, -1).min(axis=1).argmax(axis=0)
        for rows in centres:
            crossed = np.einsum("qij,qj->iq", rows[face], points) < 0.0
            face = 4 * face + np.select(crossed, (0, 1, 2), 3)
        return face

    def _build_hierarchy(self):
        """The barycentric rows, those of inv(corners.T), of the 20 level-0
        faces, then per level those of every centre child (m01, m12, m20) with
        its corners turned so that row j is negative in corner child j."""
        level = self.subdivision_level
        if self.face_count != 20 * 4 ** level:
            raise PreconditionError(f"not a subdivided icosahedron of level {level}")
        faces, centres = self.faces, []
        for _ in range(level):
            centres.insert(0, faces[3::4, [1, 2, 0]])
            faces = faces.reshape(-1, 4, 3)[:, :3, 0]
        try:
            return [np.linalg.inv(self.vertices[f].transpose(0, 2, 1))
                    for f in [faces, *centres]]
        except np.linalg.LinAlgError:
            raise PreconditionError("faces do not follow the subdivision layout") from None

    @property
    def dissection_order(self):
        """Nested-dissection order of the vertices (cached)."""
        return self._cached("dissection_order",
                            lambda: _nested_dissection(self.vertices, self.faces))

    def factor(self, matrix):
        """Factor of an N x N matrix, N = d V, whose row v d + c is unknown c at
        vertex v: in the dissection order, each vertex's d unknowns together."""
        d, rest = divmod(matrix.shape[0], self.vertex_count)
        if rest:
            raise PreconditionError(f"{matrix.shape[0]} rows do not split into vertex blocks")
        order = (self.dissection_order[:, None] * d + np.arange(d)).reshape(-1)
        return DissectionFactor(matrix, order)

    def solve_mass(self, rhs):
        """Solve M x = rhs columnwise (M is the consistent mass matrix) by
        MASS_CHEBYSHEV_STEPS steps of Chebyshev semi-iteration on
        diag(M)^-1 M over MASS_SPECTRUM (Saad, Alg. 12.1).  No factor and no
        inner product: a (V, m) block gives its column solves bit for bit."""
        M = assemble_pencil(self).M
        r = np.array(rhs, dtype=float, order="C")
        scale = (1.0 / M.diagonal()).reshape((-1,) + (1,) * (r.ndim - 1))
        lo, hi = MASS_SPECTRUM
        theta, delta = (hi + lo) / 2.0, (hi - lo) / 2.0
        rho = delta / theta
        x = d = scale * r / theta
        for _ in range(MASS_CHEBYSHEV_STEPS - 1):
            r -= M @ d
            rho, last = 1.0 / (2.0 * theta / delta - rho), rho
            d = rho * last * d + (2.0 * rho / delta) * scale * r
            x = x + d
        return x

    def solve_stiff_plus_mass(self, rhs):
        """Solve (K + M) x = rhs columnwise; factorization is cached."""
        def factor():
            pencil = assemble_pencil(self)
            return self.factor(pencil.K + pencil.M)

        return self._cached("km_lu", factor).solve(rhs)


def _nested_dissection(points, faces):
    """Geometric nested-dissection order of the vertices (George 1973).

    A part of more than DISSECTION_LEAF vertices is split by
    _dissection_step; both halves are numbered first, each dissected in
    turn, and the separator last.  A factor in this order fills in only
    within the parts and along the separators.
    """
    ends = _edge_table(faces, len(points))[0].T.astype(np.int32)
    side = np.empty(len(points), dtype=np.int8)
    order = []

    def dissect(part, ends):
        if len(part) <= DISSECTION_LEAF:
            order.append(np.sort(part))
            return
        left, right, separator = _dissection_step(points, part, ends, side)
        dissect(*left)
        dissect(*right)
        order.append(separator)

    dissect(np.arange(len(points)), ends)
    return np.concatenate(order)


def _dissection_step(points, part, ends, side):
    """Split part at the median of its widest coordinate.

    ends is a (2, m) array of the edges within part, in either direction,
    and side a scratch array with an entry per vertex.  The separator is the
    left-side vertices with an edge across the cut, and it is taken out of
    the left half, so no edge joins the halves.  Returns ((left, edges within
    left), (right, edges within right), separator).
    """
    coords = points[part]
    axis = int(np.argmax(np.ptp(coords, axis=0)))
    half = len(part) // 2
    ranks = np.argpartition(coords[:, axis], half)
    left, right = part[ranks[:half]], part[ranks[half:]]
    side[left], side[right] = 0, 1
    s = side[ends]
    cross = s[0] != s[1]
    separator = np.unique(np.where(s[0, cross] == 0, ends[0, cross], ends[1, cross]))
    side[separator] = 2
    s = side[ends]
    inner = s[0] == s[1]
    return ((left[side[left] == 0], ends[:, inner & (s[0] == 0)]),
            (right, ends[:, inner & (s[0] == 1)]), separator)


class DissectionFactor:
    """LU factor of a matrix in a given order: the OPinv of eigsh and eigs.

    The permuted matrix keeps its column order.  SuperLU pivots in
    SymmetricMode, off the diagonal only where it is below 0.1 of its
    column's largest entry: never on K + M at levels 0-7, so those solves are
    an unpivoted factor's; where needed on an indefinite H + 8M.
    """

    def __init__(self, matrix, order):
        from scipy.sparse.linalg import splu  # imported on use: it slows every start-up

        self.shape, self.dtype, self.order = matrix.shape, np.dtype(float), order
        self.lu = splu(matrix.tocsr()[order][:, order].tocsc(), permc_spec="NATURAL",
                       diag_pivot_thresh=0.1, options={"SymmetricMode": True})

    def solve(self, rhs):
        """Solve for a vector or for all columns of an (N, m) block in one
        SuperLU call, as a C-ordered array.

        With a vendor BLAS, blocks of four or more columns go through other
        dtrsm / dgemm kernels than single columns do, so columns can differ
        from one-column solves in the last bits.
        """
        rhs = np.asarray(rhs, dtype=float)
        x = np.empty(rhs.shape)
        x[self.order] = self.lu.solve(rhs[self.order])
        return x

    matvec = solve


@dataclass(frozen=True)
class FemPencil:
    """Consistent mass matrix M and stiffness matrix K (both CSR)."""

    M: sp.csr_matrix
    K: sp.csr_matrix


def build_icosphere(subdivision_level: int) -> SphereMesh:
    """Loop-subdivided icosahedron projected to the unit sphere.

    Level 0 is the icosahedron itself (12 vertices, 20 faces); every level
    quadruples the face count.  Levels above MAX_LEVEL are refused as a
    memory guard.
    """
    if subdivision_level < 0:
        raise PreconditionError("subdivision_level must be nonnegative")
    if subdivision_level > MAX_LEVEL:
        raise ResourceLimitError(
            f"subdivision_level {subdivision_level} exceeds the guard ({MAX_LEVEL})"
        )
    verts, faces = _icosahedron()
    for _ in range(subdivision_level):
        verts, faces = _subdivide(verts, faces)
    mesh = SphereMesh(vertices=verts, faces=faces, subdivision_level=subdivision_level)
    validate_mesh(mesh)
    return mesh


def validate_mesh(mesh: SphereMesh) -> None:
    """Check unit vertices, topology, closedness and nondegenerate faces."""
    norms = _row_norms(mesh.vertices)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise PreconditionError("vertices are not on the unit sphere")
    v = mesh.vertex_count
    f = mesh.face_count
    e, closed = _edge_count(mesh.faces, v)
    if v - e + f != 2:
        raise PreconditionError(f"Euler characteristic {v - e + f} != 2")
    if not closed:
        raise PreconditionError("mesh is not closed: an edge is not shared by 2 faces")
    mesh._geometry()  # raises MeshAssemblyError on degenerate faces


def assemble_faces(mesh: SphereMesh, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum per-face (F, 3, 3) blocks into a CSR matrix, in ascending face order.

    blocks[f, i, j] is added at row faces[f, i] and column faces[f, j].  An
    off-diagonal entry sums the two faces on its edge, and a + b == b + a in
    floating point, so symmetric blocks give an exactly symmetric matrix.
    """
    import scipy.sparse as sp  # imported on use: it slows every start-up

    rows = np.repeat(mesh.faces, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.faces, (1, 3)).reshape(-1)
    v = mesh.vertex_count
    return sp.coo_matrix((blocks.reshape(-1), (rows, cols)), shape=(v, v)).tocsr()


def assemble_pencil(mesh: SphereMesh) -> FemPencil:
    """Piecewise-linear FEM mass and stiffness matrices of the mesh.

    Assembly runs in ascending face order so matrices are reproducible and
    exactly symmetric.  The sum of all mass entries equals the mesh area; K
    annihilates constants at assembly precision.
    """
    def build():
        return FemPencil(
            M=assemble_faces(mesh, mesh.face_areas[:, None, None] * MASS_LOCAL),
            K=assemble_faces(mesh, mesh.face_stiffness))

    return mesh._cached("pencil", build)


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
            "convention": "unit_round",
            "vertex_count": mesh.vertex_count,
            "face_count": mesh.face_count,
        },
        sort_keys=True,
    )
