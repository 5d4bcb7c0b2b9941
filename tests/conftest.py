import numpy as np
import pytest
import scipy.sparse as sp

from spherelab import build_icosphere


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


def assert_spectra_close(vals, ref, rtol=1e-10):
    """Same length, and every value within rtol of the largest |ref|."""
    assert len(vals) == len(ref)
    assert np.max(np.abs(np.asarray(vals) - ref)) <= rtol * np.max(np.abs(ref))


def count_face_blocks(monkeypatch, energy_module):
    """Record the map of every _face_blocks walk, however the kernel is reached."""
    walks = []
    face_blocks = energy_module._face_blocks
    monkeypatch.setattr(energy_module, "_face_blocks",
                        lambda f: walks.append(f) or face_blocks(f))
    return walks


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
