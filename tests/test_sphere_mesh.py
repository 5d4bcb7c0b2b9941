import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu

from conftest import (assert_csr_equal, assert_located_like_kd_tree, in_order_row_sums,
                      p1_scatter_reference)
from spherelab import assemble_pencil, build_icosphere, sphere_mesh
from spherelab.energy import SphereMap, normalize_rows, sample_map
from spherelab.errors import MeshAssemblyError, PreconditionError, ResourceLimitError
from spherelab.sphere_mesh import (
    MASS_SPECTRUM,
    SphereMesh,
    _edge_count,
    _edge_table,
    _row_dots,
    _row_norms,
    assemble_faces,
    mesh_json_doc,
    mesh_to_obj,
    validate_mesh,
)

FOUR_PI = 4.0 * math.pi


def low_eigenvalues(mesh, k=8, scale=1.0):
    pencil = assemble_pencil(mesh)
    v0 = np.random.default_rng(0).standard_normal(mesh.vertex_count)
    vals = eigsh(pencil.K, k=k, M=scale * pencil.M, sigma=-0.5, which="LM",
                 v0=v0, return_eigenvectors=False)
    return np.sort(vals)


def test_icosahedron_counts():
    mesh = build_icosphere(0)
    assert mesh.vertex_count == 12
    assert mesh.face_count == 20


def test_one_subdivision_counts():
    mesh = build_icosphere(1)
    assert mesh.vertex_count == 42
    assert mesh.face_count == 80


@pytest.mark.parametrize("level", [0, 1, 5])
def test_faces_are_int32(level):
    # int32 holds every vertex index up to the level guard, 655 361 at level 8
    assert build_icosphere(level).faces.dtype == np.int32


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_sphere_topology(level):
    mesh = build_icosphere(level)
    edges = _edge_table(mesh.faces, mesh.vertex_count)[0]
    assert mesh.vertex_count - len(edges) + mesh.face_count == 2
    validate_mesh(mesh)  # unit vertices, closedness, positive areas


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
def test_edges_match_two_dimensional_unique(level):
    # reference: the lexicographic row dedup the integer-key table replaces
    mesh = build_icosphere(level)
    pairs = np.sort(mesh.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    reference = np.unique(pairs, axis=0)
    edges = _edge_table(mesh.faces, mesh.vertex_count)[0]
    # the table holds the int64 of its keys and the reference the int32 of
    # the faces: the values are compared
    assert np.array_equal(edges, reference)
    assert not edges.flags.writeable
    # validate_mesh counts the same edges without building the table
    assert _edge_count(mesh.faces, mesh.vertex_count) == (len(reference), True)


def test_validate_rejects_euler_characteristic(mesh2):
    holed = SphereMesh(vertices=mesh2.vertices, faces=mesh2.faces[1:], subdivision_level=2)
    with pytest.raises(PreconditionError, match="Euler"):
        validate_mesh(holed)


def test_validate_rejects_edge_on_three_faces(mesh2):
    # a fin (a, b, d) on the edge ab with a new vertex d adds one vertex, two
    # edges and one face: V - E + F stays 2, but ab now lies on three faces
    a, b = mesh2.faces[0, :2]
    d = mesh2.vertices[a] + mesh2.vertices[b]
    verts = np.vstack([mesh2.vertices, d / np.linalg.norm(d)])
    faces = np.vstack([mesh2.faces, [a, b, mesh2.vertex_count]])
    fin = SphereMesh(vertices=verts, faces=faces, subdivision_level=2)
    v, e, f = fin.vertex_count, len(_edge_table(faces, fin.vertex_count)[0]), fin.face_count
    assert v - e + f == 2
    with pytest.raises(PreconditionError, match="not closed"):
        validate_mesh(fin)


def test_validate_rejects_edge_on_one_face_where_euler_holds():
    # faces 0 and 10 of the icosahedron share no edge: a copy of face 0 in
    # place of face 10 keeps V, E and F, but puts three edges on 3 faces and
    # three on 1
    mesh = build_icosphere(0)
    faces = mesh.faces.copy()
    assert not set(faces[0]) & set(faces[10])
    faces[10] = faces[0]
    doubled = SphereMesh(vertices=mesh.vertices, faces=faces, subdivision_level=0)
    counts = _edge_table(faces, mesh.vertex_count)[1]
    assert np.bincount(counts).tolist() == [0, 3, 24, 3]
    assert _edge_count(faces, mesh.vertex_count) == (30, False)
    with pytest.raises(PreconditionError, match="not closed"):
        validate_mesh(doubled)


def test_location_hierarchy_cached(monkeypatch):
    # built once per mesh
    mesh = build_icosphere(3)
    builds = []
    build = SphereMesh._build_hierarchy
    monkeypatch.setattr(SphereMesh, "_build_hierarchy",
                        lambda self: builds.append(self) or build(self))
    pts = mesh.vertices[:10]
    first = mesh.locate(pts)
    assert np.array_equal(mesh.locate(pts), first)
    assert builds == [mesh]


@pytest.mark.parametrize("level", range(1, 7))
def test_subdivision_layout(level):
    # the layout SphereMesh.locate reads the hierarchy from: the children of
    # face f are faces 4f .. 4f+3, each corner child starting at its parent's
    # corner, and the centre child's corners are the renormalized midpoints
    # of the parent's edges 01, 12 and 20
    fine, coarse = build_icosphere(level), build_icosphere(level - 1)
    children = fine.faces.reshape(-1, 4, 3)
    assert np.array_equal(children[:, :3, 0], coarse.faces)
    assert np.array_equal(fine.vertices[:coarse.vertex_count], coarse.vertices)
    corners = coarse.vertices[coarse.faces]
    mids = corners + np.roll(corners, -1, axis=1)
    mids /= np.linalg.norm(mids, axis=2)[:, :, None]
    assert np.array_equal(fine.vertices[children[:, 3]], mids)


@pytest.mark.parametrize("level", range(1, 6))
def test_subdivision_faces_follow_the_child_formula(level):
    # the whole layout, not only what locate reads: face (a, b, c) of the
    # level before has the children 4f .. 4f+3, (a, m01, m20), (b, m12, m01),
    # (c, m20, m12) and (m01, m12, m20), and the midpoint of the k-th edge
    # in sorted (i, j) order is vertex V + k
    coarse, fine = build_icosphere(level - 1), build_icosphere(level)
    v = coarse.vertex_count
    ends = np.sort(np.stack([coarse.faces, np.roll(coarse.faces, -1, axis=1)], axis=2), axis=2)
    _, edge = np.unique(ends[..., 0] * v + ends[..., 1], return_inverse=True)
    m01, m12, m20 = (v + edge.reshape(-1, 3)).T
    a, b, c = coarse.faces.T
    children = np.stack([a, m01, m20, b, m12, m01, c, m20, m12, m01, m12, m20], axis=1)
    assert np.array_equal(fine.faces, children.reshape(-1, 3))


def test_locate_names_a_broken_subdivision_layout():
    # the face count of a level-2 icosphere with its faces in another order:
    # the coarser faces read off the layout are not faces, and the hierarchy
    # names the layout instead of inverting a singular corner matrix
    mesh = build_icosphere(2)
    faces = mesh.faces[np.random.default_rng(0).permutation(mesh.face_count)]
    shuffled = SphereMesh(mesh.vertices, faces, 2)
    f = SphereMap(shuffled, 2, shuffled.vertices)
    with pytest.raises(PreconditionError, match="subdivision layout"):
        sample_map(f, mesh.vertices[:5])


def test_level_guard():
    with pytest.raises(ResourceLimitError):
        build_icosphere(9)
    with pytest.raises(PreconditionError):
        build_icosphere(-1)


def test_vertices_unit(mesh4):
    norms = np.linalg.norm(mesh4.vertices, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_poles_are_vertices(mesh3):
    # branch points of power maps sit at the poles; both must be vertices
    north = np.max(mesh3.vertices @ np.array([0.0, 0.0, 1.0]))
    south = np.max(mesh3.vertices @ np.array([0.0, 0.0, -1.0]))
    assert north > 1.0 - 1e-12
    assert south > 1.0 - 1e-12


def test_total_mass_matches_sphere_area(mesh4):
    # quadrature oracle: the exact sphere area is 4 pi
    pencil = assemble_pencil(mesh4)
    assert FOUR_PI * 0.999 <= pencil.M.sum() <= FOUR_PI * 1.001


def test_stiffness_annihilates_constants(mesh4):
    pencil = assemble_pencil(mesh4)
    ones = np.ones(mesh4.vertex_count)
    assert np.max(np.abs(pencil.K @ ones)) < 1e-12


def test_pencil_symmetry(mesh3):
    pencil = assemble_pencil(mesh3)
    assert abs(pencil.K - pencil.K.T).max() == 0.0
    assert abs(pencil.M - pencil.M.T).max() == 0.0


def test_first_eigenvalue_near_two(mesh4):
    # analytic spectrum of the unit round sphere is k (k + 1)
    vals = low_eigenvalues(mesh4)
    assert abs(vals[1] - 2.0) <= 0.02
    assert np.max(np.abs(vals[1:4] - 2.0)) <= 0.02  # multiplicity-3 cluster
    assert vals[4] > 5.5


def test_refinement_convergence_order():
    errors = {}
    spreads = {}
    areas = {}
    hs = {}
    for level in (3, 4, 5):
        mesh = build_icosphere(level)
        vals = low_eigenvalues(mesh)
        errors[level] = float(np.max(np.abs(vals[1:4] - 2.0)))
        spreads[level] = float(vals[3] - vals[1])
        areas[level] = abs(float(mesh.face_areas.sum()) - FOUR_PI)
        hs[level] = mesh.max_edge_length()
    # geodesic areas tile the sphere: the area is exact at every level
    assert all(err < 1e-9 for err in areas.values())
    order = math.log(errors[3] / errors[5]) / math.log(hs[3] / hs[5])
    assert order >= 1.5
    assert spreads[5] <= spreads[3] + 1e-12


def test_area_one_eigenvalue_scaling(mesh3):
    # metric scaling law: scaling dA by 1/(4 pi) scales eigenvalues by 4 pi
    base = low_eigenvalues(mesh3)
    scaled = low_eigenvalues(mesh3, scale=1.0 / FOUR_PI)
    assert np.allclose(scaled[1:6], FOUR_PI * base[1:6], rtol=1e-9)


def test_locate_on_a_rotated_copy(mesh3):
    # a rotated copy keeps the face layout, so locate walks its own hierarchy
    rot, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    rotated = SphereMesh(normalize_rows(mesh3.vertices @ rot.T), mesh3.faces, 3)
    rng = np.random.default_rng(6)
    near_vertices = rotated.vertices + 1e-3 * rng.standard_normal(rotated.vertices.shape)
    for pts in (rotated.vertices, -rotated.vertices,
                normalize_rows(rng.standard_normal((5000, 3))), normalize_rows(near_vertices)):
        assert_located_like_kd_tree(rotated, pts, rotated.locate(pts))


def test_exports(tmp_path, mesh2):
    path = tmp_path / "mesh.obj"
    mesh_to_obj(mesh2, path)
    lines = path.read_text().splitlines()
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    n_f = sum(1 for ln in lines if ln.startswith("f "))
    assert (n_v, n_f) == (mesh2.vertex_count, mesh2.face_count)
    doc = mesh_json_doc(mesh2)
    assert '"level": 2' in doc and '"vertex_count": 162' in doc


def test_degenerate_face_raises_with_index(mesh2):
    from spherelab.errors import MeshAssemblyError
    from spherelab.sphere_mesh import SphereMesh

    verts = mesh2.vertices.copy()
    faces = mesh2.faces.copy()
    # collapse face 7 by overwriting one of its corners with another
    faces[7, 1] = faces[7, 0]
    broken = SphereMesh(vertices=verts, faces=faces, subdivision_level=2)
    with pytest.raises(MeshAssemblyError) as err:
        broken.face_areas
    assert err.value.face_index == 7


@pytest.mark.parametrize("level", [3, 4])
def test_face_geometry_matches_reference_formulas(level):
    # reference: the whole-tensor einsum and the vertex-difference normal
    mesh = build_icosphere(level)
    p = mesh.vertices[mesh.faces]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    flat_area = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    k_local = np.einsum("fic,fjc->fij", e, e) / (4.0 * flat_area)[:, None, None]
    assert np.array_equal(mesh.face_flat_areas, flat_area)
    assert_stiffness_expands_cotangents(mesh, k_local)


def assert_stiffness_expands_cotangents(mesh, k_ref):
    """face_stiffness equals the geometric blocks k_ref off the diagonal bit
    for bit; each diagonal entry is minus the sum of its row's off-diagonals
    bit for bit, and lies within 4 eps (relative) of k_ref's |e_i|^2 / (4A)."""
    k = mesh.face_stiffness
    off = ~np.eye(3, dtype=bool)
    assert np.array_equal(k[:, off], k_ref[:, off])
    for i, (j, l) in enumerate(((1, 2), (0, 2), (0, 1))):
        assert np.array_equal(k[:, i, i], -(k[:, i, j] + k[:, i, l]))
    diag, geometric = np.einsum("fii->fi", k), np.einsum("fii->fi", k_ref)
    assert np.all(np.abs(diag - geometric) <= 4 * np.finfo(float).eps * geometric)


def geometry_reference(mesh):
    """The (F, 3, 3) geometry the blocked pass replaced, kept as its reference.

    Returns (areas, flat areas, stiffness blocks, centroids, longest edge),
    from the bodies of the old _build_geometry, face_centroids and
    max_edge_length.
    """
    p = mesh.vertices[mesh.faces]  # (F, 3, 3)
    e = np.empty_like(p)
    np.subtract(p[:, 2], p[:, 1], out=e[:, 0])
    np.subtract(p[:, 0], p[:, 2], out=e[:, 1])
    np.subtract(p[:, 1], p[:, 0], out=e[:, 2])
    flat_area = 0.5 * np.linalg.norm(np.cross(e[:, 1], e[:, 2]), axis=1)
    k_local = np.empty_like(p)
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)):
        dot = np.einsum("fc,fc->f", e[:, i], e[:, j])
        k_local[:, i, j] = k_local[:, j, i] = dot
    k_local /= (4.0 * flat_area)[:, None, None]
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    num = np.abs(np.einsum("fc,fc->f", a, np.cross(b, c)))
    den = (
        1.0
        + np.einsum("fc,fc->f", a, b)
        + np.einsum("fc,fc->f", b, c)
        + np.einsum("fc,fc->f", c, a)
    )
    area = 2.0 * np.arctan2(num, den)
    centroids = p.mean(axis=1)
    centroids = centroids / np.linalg.norm(centroids, axis=1)[:, None]
    edges = _edge_table(mesh.faces, mesh.vertex_count)[0]
    d = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    longest = float(np.max(np.linalg.norm(d, axis=1)))
    return area, flat_area, k_local, centroids, longest


@pytest.mark.parametrize("block", [None, 97])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
def test_blocked_geometry_matches_reference_bit_for_bit(level, block, monkeypatch):
    # 97 faces per block: blocks straddle the subdivision's face groups, and
    # level 0's 20 faces are one short block
    if block is not None:
        monkeypatch.setattr(sphere_mesh, "FACE_BLOCK", block)
    mesh = build_icosphere(level)
    area, flat_area, k_local, centroids, longest = geometry_reference(mesh)
    assert np.array_equal(mesh.face_areas, area)
    assert np.array_equal(mesh.face_flat_areas, flat_area)
    assert_stiffness_expands_cotangents(mesh, k_local)
    assert np.array_equal(mesh.face_cotangents, -k_local[:, (0, 1, 0), (1, 2, 2)].T)
    assert np.array_equal(mesh.face_centroids, centroids)
    assert mesh.max_edge_length() == longest


@pytest.mark.parametrize("nan_face, expected", [(False, 150), (True, 250)])
def test_degenerate_faces_in_two_blocks_report_global_argmin(mesh2, nan_face,
                                                             expected, monkeypatch):
    # faces 150 and 250 lie in the second and third 97-face blocks; the
    # diagnostic names np.argmin over all faces: the first zero area, or the
    # first NaN, which np.argmin prefers to any number
    monkeypatch.setattr(sphere_mesh, "FACE_BLOCK", 97)
    verts = np.vstack([mesh2.vertices, np.full(3, np.nan)])
    faces = mesh2.faces.copy()
    faces[150, 1] = faces[150, 0]
    if nan_face:
        faces[250, 2] = mesh2.vertex_count  # the NaN vertex, on this face only
    else:
        faces[250, 2] = faces[250, 0]
    broken = SphereMesh(vertices=verts, faces=faces, subdivision_level=2)
    with pytest.raises(MeshAssemblyError) as err:
        broken.face_areas
    assert err.value.face_index == expected


@pytest.mark.parametrize("level", [2, 3, 4])
def test_assemble_faces_matches_hand_written_scatters(level):
    # oracle: the repeat/tile scatter, with symmetrization, that assembled K
    # and M before; K and M now skip the symmetrization because every entry
    # already equals its transpose exactly
    mesh = build_icosphere(level)
    pencil = assemble_pencil(mesh)
    m_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    k_ref = p1_scatter_reference(mesh, mesh.face_stiffness.transpose(0, 2, 1),
                                 symmetrize=True)
    m_ref = p1_scatter_reference(mesh, mesh.face_areas[:, None, None] * m_local,
                                 symmetrize=True)
    assert_csr_equal(pencil.K, k_ref)
    assert_csr_equal(pencil.M, m_ref)
    assert_csr_equal(pencil.K, pencil.K.T)
    assert_csr_equal(pencil.M, pencil.M.T)
    # nonsymmetric blocks, as the advection block G, catch a transposed scatter
    gen = np.random.default_rng(level)
    scalar = gen.standard_normal((mesh.face_count, 3, 3))
    assert_csr_equal(assemble_faces(mesh, scalar), p1_scatter_reference(mesh, scalar))


def test_assembly_deterministic(mesh3):
    other = build_icosphere(3)
    a = assemble_pencil(mesh3)
    b = assemble_pencil(other)
    assert abs(a.K - b.K).max() == 0.0
    assert abs(a.M - b.M).max() == 0.0


@pytest.mark.parametrize("level", [2, 4, 6])
def test_dissection_separates_halves_and_numbers_separators_last(level):
    # the walk keeps its own edge lists, from the unique edge table, and
    # checks each step: a median split, no edge between the halves, a
    # separator of left vertices each with an edge across; the order is
    # each half's order and then the separator
    mesh = build_icosphere(level)
    v = mesh.vertex_count
    order = mesh.dissection_order
    assert np.array_equal(np.sort(order), np.arange(v))
    label = np.empty(v, dtype=np.int8)
    side = np.empty(v, dtype=np.int8)

    def walk(part, edges):
        if len(part) <= sphere_mesh.DISSECTION_LEAF:
            return [np.sort(part)]
        left, right, separator = sphere_mesh._dissection_step(
            mesh.vertices, part, edges.T.astype(np.int32), side)
        (left, _), (right, _) = left, right
        assert np.array_equal(np.sort(np.concatenate([left, right, separator])),
                              np.sort(part))
        assert len(left) + len(separator) == len(part) // 2
        label[left], label[right], label[separator] = 0, 1, 2
        ends = label[edges]
        assert not np.any((ends[:, 0] + ends[:, 1] == 1))
        across = np.any(ends == 1, axis=1) & np.any(ends == 2, axis=1)
        assert np.array_equal(np.unique(edges[across][ends[across] == 2]), separator)
        return (walk(left, edges[(ends[:, 0] == 0) & (ends[:, 1] == 0)])
                + walk(right, edges[(ends[:, 0] == 1) & (ends[:, 1] == 1)]) + [separator])

    edges = _edge_table(mesh.faces, v)[0]
    assert np.array_equal(order, np.concatenate(walk(np.arange(v), edges)))


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
def test_dissection_factor_solves_mass_and_stiff_plus_mass(level):
    # level 7 solves M alone: the K + M factor there takes seconds and 0.5 GB
    mesh = build_icosphere(level)
    pencil = assemble_pencil(mesh)
    rhs = np.random.default_rng(level).standard_normal((mesh.vertex_count, 5))
    cases = [(mesh.solve_mass, pencil.M)]
    if level < 7:
        cases.append((mesh.solve_stiff_plus_mass, pencil.K + pencil.M))
    for solve, A in cases:
        for b in (rhs[:, 1], rhs):
            x = solve(b)
            assert x.shape == b.shape
            assert np.all(np.linalg.norm(A @ x - b, axis=0)
                          <= 1e-12 * np.linalg.norm(b, axis=0))


@pytest.mark.parametrize("level", [1, 3])
def test_factor_lifts_the_dissection_order_to_vertex_blocks(level):
    # row v d + c is unknown c at vertex v: the factor numbers each vertex's
    # d rows together, the vertices in the dissection order
    mesh = build_icosphere(level)
    pencil = assemble_pencil(mesh)
    v = mesh.vertex_count
    for d in (1, 2, 3, 4):
        order = mesh.factor(sp.kron(pencil.K + pencil.M, np.eye(d), format="csr")).order
        assert np.array_equal(np.sort(order), np.arange(d * v))
        blocks = order.reshape(v, d)
        assert np.array_equal(blocks, blocks[:, :1] + np.arange(d))
        assert np.array_equal(blocks[:, 0] // d, mesh.dissection_order)
    with pytest.raises(PreconditionError, match="vertex blocks"):
        mesh.factor(sp.eye(2 * v + 1, format="csr"))


@pytest.mark.parametrize("level", [3, 4, 5])
def test_stiff_plus_mass_factor_keeps_the_unpivoted_bits(level):
    # threshold pivoting takes every diagonal pivot of K + M, so its solves
    # are those of the factor without pivoting, in the same order
    mesh = build_icosphere(level)
    pencil = assemble_pencil(mesh)
    A = pencil.K + pencil.M
    factor = mesh.factor(A)
    order = factor.order
    unpivoted = splu(A.tocsr()[order][:, order].tocsc(), permc_spec="NATURAL",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    assert np.array_equal(factor.lu.perm_r, np.arange(mesh.vertex_count))
    rhs = np.random.default_rng(level).standard_normal((mesh.vertex_count, 3))
    for b in (rhs[:, 0], rhs):
        ref = np.empty(b.shape)
        ref[order] = unpivoted.solve(b[order])
        assert np.array_equal(factor.solve(b), ref)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_jacobi_scaled_mass_spectrum_lies_in_wathen_bounds(level):
    # dense oracle for the interval the Chebyshev mass solve runs on
    M = assemble_pencil(build_icosphere(level)).M
    vals = scipy.linalg.eigh(M.toarray(), np.diag(M.diagonal()), eigvals_only=True)
    lo, hi = MASS_SPECTRUM
    assert vals[0] >= lo - 1e-12 and vals[-1] <= hi + 1e-12


@pytest.mark.parametrize("level", [3, 4, 5])
def test_mass_block_solve_equals_column_solves_bit_for_bit(level):
    mesh = build_icosphere(level)
    rhs = np.random.default_rng(level).standard_normal((mesh.vertex_count, 5))
    x = mesh.solve_mass(rhs)
    assert x.shape == rhs.shape and x.flags.c_contiguous
    assert np.array_equal(x, np.column_stack([mesh.solve_mass(rhs[:, j]) for j in range(5)]))


class CountingLU:
    """Wraps a cached factorization and counts its solve calls."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, rhs):
        self.calls += 1
        return self.lu.solve(rhs)


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("method, key", [("solve_stiff_plus_mass", "km_lu")])
def test_block_solve_is_one_call_matching_column_solves(level, method, key):
    # one SuperLU call for the whole (V, 5) block; BLAS kernels for four or
    # more columns may round differently from one-column solves, so the
    # per-column oracle holds to a few ulps, not bit for bit
    mesh = build_icosphere(level)
    solve = getattr(mesh, method)
    rhs = np.random.default_rng(level).standard_normal((mesh.vertex_count, 5))
    solve(rhs[:, 0])  # factor once
    lu = CountingLU(mesh._cache[key])
    mesh._cache[key] = lu
    x = solve(rhs)
    assert lu.calls == 1
    assert x.shape == rhs.shape and x.flags.c_contiguous
    ref = np.column_stack([lu.lu.solve(rhs[:, j]) for j in range(5)])
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.array_equal(solve(rhs[:, 2]), ref[:, 2])


# -- the row kernel ------------------------------------------------------------


@pytest.mark.parametrize("cols", range(1, 41))
def test_row_kernel_has_the_bits_of_numpy_row_reductions(cols):
    # the kernel adds columns in order for every row a validated config
    # makes (n <= 39); below 8 entries numpy's pairwise sum does the same,
    # so there it has the bits of np.sum and np.linalg.norm.  Entries over
    # 40 binades make every other order show in the last bits
    rng = np.random.default_rng(cols)
    x, y = (rng.standard_normal((4000, cols)) * np.exp2(rng.integers(-20, 20, (4000, cols)))
            for _ in range(2))
    dots = _row_dots(x, y)
    assert np.array_equal(dots, in_order_row_sums(x * y))
    assert np.array_equal(_row_norms(x), np.sqrt(in_order_row_sums(x * x)))
    if cols < 8:
        assert np.array_equal(dots, np.sum(x * y, axis=1))
        assert np.array_equal(_row_norms(x), np.linalg.norm(x, axis=1))
    # rows whose last columns are zero: the sum of the live ones is that of
    # the full rows
    for live in sorted({1, (cols + 1) // 2, cols}):
        dead = x.copy()
        dead[:, live:] = 0.0
        assert np.array_equal(_row_dots(dead[:, :live], y[:, :live]),
                              in_order_row_sums(dead * y))
