import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh
from scipy.spatial import cKDTree

from spherelab import build_icosphere
from spherelab.covers import EquatorTargetMap, RationalMap, _conformal_factors, compose_cover
from spherelab.energy import center_of_mass, equator_map, precompose_with_dilations
from spherelab.errors import ConvergenceError
from spherelab.spectrum import assemble_second_variation
from spherelab.sphere_mesh import MASS_LOCAL, assemble_faces, assemble_pencil


@pytest.fixture(scope="session")
def mesh2():
    return build_icosphere(2)


@pytest.fixture(scope="session")
def mesh3():
    return build_icosphere(3)


@pytest.fixture(scope="session")
def mesh4():
    return build_icosphere(4)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def pullback_pencil(mesh):
    """(f, K, M_rho): the degree-2 cover of the equator in S^4 and its
    pulled-back Laplace pencil."""
    f = compose_cover(EquatorTargetMap(4), RationalMap.power(2), mesh)
    rho, _ = _conformal_factors(f, 1e-8)
    M_rho = assemble_faces(mesh, (rho * mesh.face_areas)[:, None, None] * MASS_LOCAL)
    return f, assemble_pencil(mesh).K, M_rho


def smooth_weight(mesh, seed=0, amplitude=0.6, offset=1.25):
    """Fixed smooth positive weight (a clamped-free linear harmonic)."""
    gen = np.random.default_rng(seed)
    coef = gen.standard_normal(3)
    coef *= amplitude / np.linalg.norm(coef)
    return offset + mesh.vertices @ coef


def count_eigsh(monkeypatch, module):
    """Record the k of every eigsh call made through ``module.eigsh``."""
    calls = []
    eigsh = module.eigsh
    monkeypatch.setattr(module, "eigsh",
                        lambda *a, **kw: calls.append(kw["k"]) or eigsh(*a, **kw))
    return calls


# the full-pencil oracle solves a pencil of at most this many rows densely
DENSE_ORACLE_ROWS = 4000


def full_pencil_eigenvalues(pencil, k, seed):
    """Oracle: the k lowest eigenvalues of a second-variation pencil.

    Dense up to DENSE_ORACLE_ROWS rows.  Above, a shift-invert solve with a
    shift and start vector of its own asks for k + 6 values: single-vector
    Lanczos can drop one copy of a multiple eigenvalue at the edge of its
    window.
    """
    if pencil.dim <= DENSE_ORACLE_ROWS:
        return scipy.linalg.eigh(pencil.H.toarray(), pencil.M.toarray(),
                                 eigvals_only=True, subset_by_index=(0, k - 1))
    v0 = np.random.default_rng(seed).standard_normal(pencil.dim)
    return np.sort(eigsh(pencil.H.tocsc(), k=k + 6, M=pencil.M.tocsc(), sigma=-4.0,
                         v0=v0, return_eigenvectors=False))[:k]


@pytest.fixture(scope="session")
def dense_equator_spectrum():
    """(mesh, n, alpha) -> every eigenvalue of the equator's full
    second-variation pencil in S^n, at most DENSE_ORACLE_ROWS rows, solved
    densely once per session for each (level, n, alpha)."""
    spectra = {}

    def spectrum(mesh, n, alpha):
        key = (mesh.subdivision_level, n, alpha)
        if key not in spectra:
            pencil = assemble_second_variation(equator_map(mesh, n), alpha)
            assert pencil.dim <= DENSE_ORACLE_ROWS
            # Fortran order and overwrite spare LAPACK two dense copies; the
            # QR driver gv takes about half the time of the default gvd here
            vals = scipy.linalg.eigh(pencil.H.toarray(order="F"),
                                     pencil.M.toarray(order="F"), eigvals_only=True,
                                     overwrite_a=True, overwrite_b=True,
                                     check_finite=False, driver="gv")
            vals.setflags(write=False)
            spectra[key] = vals
        return spectra[key]

    return spectrum


def assert_spectra_close(vals, ref, rtol=1e-10):
    """Same length, and every value within rtol of the largest |ref|."""
    assert len(vals) == len(ref)
    assert np.max(np.abs(np.asarray(vals) - ref)) <= rtol * np.max(np.abs(ref))


def in_order_row_sums(rows):
    """Each row summed strictly from its first entry to its last."""
    return np.cumsum(rows, axis=1)[:, -1]


def count_face_blocks(monkeypatch, energy_module):
    """Record the map of every _face_blocks walk, however the kernel is reached."""
    walks = []
    face_blocks = energy_module._face_blocks
    monkeypatch.setattr(energy_module, "_face_blocks",
                        lambda f: walks.append(f) or face_blocks(f))
    return walks


def kd_tree_location(mesh, points):
    """The point location SphereMesh.locate replaced, kept as its reference.

    Of the 16 faces with the nearest centroids (a kd-tree query), the first
    whose barycentrics are all >= -1e-10, each candidate tried only for the
    points still unplaced.  Returns that face and its barycentrics.
    """
    k = min(16, mesh.face_count)
    _, cand = cKDTree(mesh.face_centroids).query(points, k=k)
    cand = cand.reshape(len(points), k)
    face = np.full(len(points), -1)
    bary = np.empty(points.shape)
    for j in range(k):
        todo = np.flatnonzero(face < 0)
        mats = mesh.vertices[mesh.faces[cand[todo, j]]].transpose(0, 2, 1)
        b = np.linalg.solve(mats, points[todo, :, None])[..., 0]
        hit = np.all(b >= -1e-10, axis=1)
        face[todo[hit]], bary[todo[hit]] = cand[todo[hit], j], b[hit]
    assert np.all(face >= 0), "no candidate holds the point"
    return face, bary


def assert_located_like_kd_tree(mesh, points, face):
    """The kd-tree's face where it holds the point with every barycentric
    >= 1e-10; elsewhere, near an edge, two faces hold the point and the
    located one must be one of them (barycentrics >= -1e-10).  Returns the
    mask of the points not near an edge and the kd-tree's (face, bary)."""
    reference = kd_tree_location(mesh, points)
    clear = np.all(reference[1] >= 1e-10, axis=1)
    assert np.array_equal(face[clear], reference[0][clear])
    mats = mesh.vertices[mesh.faces[face]].transpose(0, 2, 1)
    assert np.all(np.linalg.solve(mats, points[:, :, None]) >= -1e-10)
    return clear, reference


def p1_scatter_reference(mesh, vals, symmetrize=False):
    """The hand-written P1 scatter that sphere_mesh.assemble_faces replaced.

    vals[f, i, j] goes to (faces[f, i], faces[f, j]) through repeat/tile
    index arrays; symmetrize averages with the transpose as the old K, M,
    M_w and M_rho assemblies did.
    """
    f = mesh.faces
    v = mesh.vertex_count
    rows = np.repeat(f, 3, axis=1).reshape(-1)
    cols = np.tile(f, (1, 3)).reshape(-1)
    A = sp.coo_matrix((vals.reshape(-1), (rows, cols)), shape=(v, v)).tocsr()
    return (A + A.T) * 0.5 if symmetrize else A


def assert_csr_equal(a, b):
    """Same CSR arrays bit for bit: indptr, indices and data."""
    a, b = a.tocsr(), b.tocsr()
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def block_scatter_reference(mesh, blocks):
    """The (F, 3, 3, C, C) scatter that spectrum's Hessian assembly used.

    blocks[f, i, j, c, d] goes to (faces[f, i] * C + c, faces[f, j] * C + d)
    through index arrays broadcast against zero temporaries.
    """
    faces = mesh.faces
    C = blocks.shape[-1]
    rows = (faces[:, :, None, None, None] * C
            + np.zeros((1, 1, 3, 1, 1), dtype=np.int64)
            + np.arange(C)[None, None, None, :, None]
            + np.zeros((1, 1, 1, 1, C), dtype=np.int64))
    cols = (faces[:, None, :, None, None] * C
            + np.arange(C)[None, None, None, None, :]
            + np.zeros((1, 3, 1, C, 1), dtype=np.int64))
    dim = mesh.vertex_count * C
    return sp.coo_matrix(
        (blocks.reshape(-1), (rows.reshape(-1), cols.reshape(-1))),
        shape=(dim, dim),
    ).tocsr()


def record_face_blocks(monkeypatch, module):
    """Record the blocks of every assemble_faces call made through ``module``."""
    calls = []
    assemble = module.assemble_faces
    monkeypatch.setattr(module, "assemble_faces",
                        lambda mesh, blocks: calls.append(blocks) or assemble(mesh, blocks))
    return calls


def fd_centering_jacobian(sphere_map, alpha, params, h=1e-6):
    """Central-difference Jacobian of the center of mass of the resampled map
    in the three dilation parameters: six resamples."""
    return np.stack([center_of_mass(precompose_with_dilations(sphere_map, params + dp), alpha)
                     - center_of_mass(precompose_with_dilations(sphere_map, params - dp), alpha)
                     for dp in h * np.eye(3)], axis=1) / (2.0 * h)


def newton_centering_dilation(sphere_map, alpha, tol=1e-8, max_iter=50):
    """The Newton recentering that energy.fit_centering_dilation replaced,
    kept as its reference: a central-difference Jacobian at every step
    (fd_centering_jacobian) and up to 30 halvings of the step.  Returns
    (recentered_map, params)."""
    com = center_of_mass(sphere_map, alpha)
    if np.linalg.norm(com) <= tol:
        return sphere_map, np.zeros(3)
    params = np.zeros(3)
    res = float(np.linalg.norm(com))
    for _ in range(max_iter):
        step = np.linalg.solve(fd_centering_jacobian(sphere_map, alpha, params), com)
        scale = 1.0
        for _ in range(30):
            trial = params - scale * step
            moved = precompose_with_dilations(sphere_map, trial)
            com_trial = center_of_mass(moved, alpha)
            if np.linalg.norm(com_trial) < res:
                params, com, recentered = trial, com_trial, moved
                res = float(np.linalg.norm(com))
                break
            scale *= 0.5
        else:
            raise ConvergenceError("recentering stalled", residual=res)
        if res <= tol:
            return recentered, params
    raise ConvergenceError("recentering did not reach tolerance", residual=res)

