import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from conftest import (
    DENSE_ORACLE_ROWS,
    assert_csr_equal,
    assert_spectra_close,
    block_scatter_reference,
    count_eigsh,
    count_face_blocks,
    full_pencil_eigenvalues,
    p1_scatter_reference,
    record_face_blocks,
    smooth_weight,
)
from spherelab import build_icosphere, sphere_mesh
from spherelab import covers as covers_mod
from spherelab import energy as energy_mod
from spherelab import spectrum as spectrum_mod
from spherelab.energy import (
    SphereMap,
    alpha_energy,
    alpha_energy_gradient,
    alpha_energy_raw_gradient,
    constant_map,
    dilated_equator_map,
    element_density_area_one,
    equator_map,
    normalize_rows,
    random_map,
    random_tangent_field,
)
from spherelab.errors import DegenerateElementsError, PreconditionError
from spherelab.flow import FlowConfig, continue_in_alpha
from spherelab.spectrum import (
    CutoffProfile,
    assemble_second_variation,
    calibrate_tau,
    classify_spectrum,
    constrained_hessian,
    cutoff_dirichlet_energy,
    equator_spectrum,
    expected_equator_counts,
    morse_index_nullity,
    normal_second_variation,
    pencil_eigenvalues,
    scaling_invariance_check,
    split_spectrum,
    weighted_scalar_pencil,
)
from spherelab.sphere_mesh import assemble_pencil

FOUR_PI = 4.0 * math.pi


# -- Hessian consistency -------------------------------------------------------------


def test_hessian_symmetry(mesh2, rng):
    f = random_map(mesh2, 4, rng)
    H = constrained_hessian(f, 1.2)
    asym = abs(H - H.T).max()
    assert asym <= 1e-12 * abs(H).max()


def test_hessian_rejects_alpha_below_one(mesh2):
    # the energy itself is only defined for alpha >= 1
    with pytest.raises(PreconditionError, match="alpha"):
        constrained_hessian(equator_map(mesh2, 4), 0.9)


def test_hessian_vector_matches_gradient_fd(mesh2, rng):
    # oracle: central difference of the projected gradient along a tangent
    # direction, projected back at the base point
    alpha = 1.2
    f = random_map(mesh2, 4, rng)
    H = constrained_hessian(f, alpha)
    V = random_tangent_field(f, rng).values
    V /= np.linalg.norm(V)
    hv = (H @ V.reshape(-1)).reshape(V.shape)
    hv -= np.sum(hv * f.values, axis=1)[:, None] * f.values
    h = 1e-5

    def grad_at(vals):
        g = alpha_energy_gradient(SphereMap(mesh2, 4, normalize_rows(vals)), alpha)
        return g.values

    fd = (grad_at(f.values + h * V) - grad_at(f.values - h * V)) / (2 * h)
    fd -= np.sum(fd * f.values, axis=1)[:, None] * f.values
    assert np.linalg.norm(hv - fd) <= 1e-4 * np.linalg.norm(fd)


def test_hessian_quadratic_form_second_difference(mesh2, rng):
    alpha = 1.4
    f = random_map(mesh2, 3, rng)
    H = constrained_hessian(f, alpha)
    V = random_tangent_field(f, rng).values
    V /= np.linalg.norm(V)
    quad_form = float(V.reshape(-1) @ (H @ V.reshape(-1)))
    h = 1e-4

    def energy_at(t):
        return alpha_energy(SphereMap(mesh2, 3, normalize_rows(f.values + t * V)),
                            alpha)

    second = (energy_at(h) - 2 * energy_at(0.0) + energy_at(-h)) / h**2
    assert quad_form == pytest.approx(second, rel=1e-4)


def test_constant_map_hessian_psd(mesh2):
    n = 4
    pencil = assemble_second_variation(constant_map(mesh2, n), 1.1)
    vals, ok = pencil_eigenvalues(pencil.H, pencil.M, 12, pencil.mesh)
    assert ok
    assert vals[0] >= -1e-10  # global minimum: index 0
    # null directions move the constant inside the target sphere, whose
    # manifold of constants has dimension n
    assert np.count_nonzero(np.abs(vals) <= 1e-8) == n


@pytest.mark.filterwarnings("ignore:map is far from critical")
def test_factor_solves_framed_pencils_to_their_residual(mesh2, mesh3, rng):
    # H + 8M in frames of d = 2 (tangent, into S^2), d = 3 (normal, in S^5)
    # and d = 4 (a random map into S^4, indefinite: its spectrum reaches
    # far below -8, so the factor pivots off the diagonal)
    cases = [(mesh3, assemble_second_variation(equator_map(mesh3, 2), 1.0), 2),
             (mesh3, normal_second_variation(equator_map(mesh3, 5)), 3),
             (mesh2, assemble_second_variation(random_map(mesh2, 4, rng), 1.1), 4)]
    for mesh, pencil, d in cases:
        A = pencil.H + 8.0 * pencil.M
        assert A.shape[0] == d * mesh.vertex_count
        b = np.random.default_rng(d).standard_normal((A.shape[0], 2))
        x = mesh.factor(A).solve(b)
        assert np.all(np.linalg.norm(A @ x - b, axis=0) <= 1e-12 * np.linalg.norm(b, axis=0))
    # the random map's pencil is indefinite below the shift
    assert scipy.linalg.eigh(pencil.H.toarray(), pencil.M.toarray(), eigvals_only=True,
                             subset_by_index=(0, 0))[0] < -8.0


@pytest.mark.parametrize("level, n, kind", [(3, 4, "tangent"), (4, 4, "tangent"),
                                            (3, 5, "normal")])
def test_pencil_eigenvalues_match_eigsh_own_factor(request, monkeypatch, level, n, kind):
    # reference: eigsh factoring H + 8M itself (SuperLU's default COLAMD
    # order with partial pivoting) for the same pencil, shift and start vector
    mesh = request.getfixturevalue(f"mesh{level}")
    f = equator_map(mesh, n)
    # k ends at a gap of the spectrum: single-vector Lanczos may drop a copy
    # of a multiple eigenvalue at the edge of its window.  The normal pencil's
    # 4 (n - 2) lowest are its index and nullity, -2 and 0 per direction.
    idx, nul = expected_equator_counts(n)
    if kind == "tangent":
        pencil, k = assemble_second_variation(f, 1.0), idx + nul + 8
    else:
        pencil, k = normal_second_variation(f), 4 * (n - 2)
    inverses = []
    monkeypatch.setattr(spectrum_mod, "eigsh",
                        lambda *a, **kw: inverses.append(kw["OPinv"]) or eigsh(*a, **kw))
    vals, converged = pencil_eigenvalues(pencil.H, pencil.M, k, mesh)
    assert converged and len(inverses) == 1
    assert isinstance(inverses[0], sphere_mesh.DissectionFactor)
    v0 = np.random.default_rng(20240).standard_normal(pencil.dim)
    ref = np.sort(eigsh(pencil.H.tocsc(), k=k, M=pencil.M.tocsc(), sigma=-8.0, which="LM",
                        v0=v0, return_eigenvectors=False, maxiter=5000))
    assert_spectra_close(vals, ref)
    tau = calibrate_tau(mesh, n)
    new, old = (classify_spectrum(v, True, k, tau) for v in (vals, ref))
    assert (new.index, new.nullity) == (old.index, old.nullity)


def test_far_from_critical_warns(mesh2, rng):
    with pytest.warns(UserWarning):
        assemble_second_variation(random_map(mesh2, 4, rng), 1.1)


# -- equator benchmark ----------------------------------------------------------------


def test_equator_counts_level3(mesh3):
    n = 4
    tau = calibrate_tau(mesh3, n)
    idx, nul = expected_equator_counts(n)
    pencil = assemble_second_variation(equator_map(mesh3, n), 1.0)
    report = morse_index_nullity(pencil, idx + nul + 8, tau)
    assert report.converged
    assert report.index == idx == 2
    assert report.nullity == nul == 12
    assert report.eigenvalues[0] == pytest.approx(-2.0, abs=0.1)


def test_index_stable_across_tau_decade(mesh3):
    n = 4
    tau = calibrate_tau(mesh3, n)
    pencil = assemble_second_variation(equator_map(mesh3, n), 1.0)
    for scale in (1.0 / math.sqrt(10.0), 1.0, math.sqrt(10.0)):
        report = morse_index_nullity(pencil, 25, tau * scale)
        assert report.index == 2
        assert report.nullity == 12


def test_index_right_continuous_in_alpha(mesh3):
    n = 4
    tau = calibrate_tau(mesh3, n)
    for alpha in (1.0, 1.01):
        pencil = assemble_second_variation(equator_map(mesh3, n), alpha)
        report = morse_index_nullity(pencil, 25, tau)
        assert report.index == 2


def test_calibration_shares_the_equator_solve(monkeypatch):
    mesh = build_icosphere(3)
    n = 4
    idx, nul = expected_equator_counts(n)
    k = idx + nul + 8
    calls = count_eigsh(monkeypatch, spectrum_mod)
    tau = calibrate_tau(mesh, n)
    vals, converged = equator_spectrum(mesh, n, 1.0, k)
    # one split solve: the tangential pencil at k, the scalar one at k / (n - 2)
    assert calls == [k, k // 2] and converged
    assert calibrate_tau(mesh, n) == tau and len(calls) == 2
    assert not vals.flags.writeable
    # the cached eigenvalues are those of an uncached split solve, bit for bit
    fresh, _ = equator_spectrum(build_icosphere(3), n, 1.0, k)
    np.testing.assert_array_equal(fresh, vals)
    # and those of the full reduced pencil to 1e-10, with its index and nullity
    pencil = assemble_second_variation(equator_map(mesh, n), 1.0)
    report = morse_index_nullity(pencil, k, tau)
    assert_spectra_close(vals, report.eigenvalues)
    assert (report.index, report.nullity) == (idx, nul)
    assert calls == [k, k // 2, k, k // 2, k]
    equator_spectrum(mesh, n, 1.0, 25)
    assert calls[5:] == [25, 13]
    assert np.array_equal(vals, split_spectrum(equator_map(mesh, n), 1.0, k)[0])


def full_pencil_report(f, alpha, k, tau, seed):
    """Oracle: the full reduced pencil's k lowest eigenvalues, classified."""
    return classify_spectrum(full_pencil_eigenvalues(assemble_second_variation(f, alpha),
                                                     k, seed), True, k, tau)


@pytest.mark.parametrize("level, n, alpha",
                         [(level, n, alpha) for level in (3, 4) for n in (3, 4, 5, 6)
                          for alpha in (1.0, 1.1)] + [(5, 3, 1.0)])
def test_equator_split_matches_full_pencil(request, dense_equator_spectrum,
                                          level, n, alpha):
    # oracle: the full reduced pencil, of size nV, at the calibration's k
    mesh = request.getfixturevalue(f"mesh{level}") if level < 5 else build_icosphere(5)
    idx, nul = expected_equator_counts(n)
    k = idx + nul + 8
    tau = calibrate_tau(mesh, n)
    vals, converged = equator_spectrum(mesh, n, alpha, k)
    if n * mesh.vertex_count <= DENSE_ORACLE_ROWS:
        full = classify_spectrum(dense_equator_spectrum(mesh, n, alpha)[:k], True, k, tau)
    else:
        full = full_pencil_report(equator_map(mesh, n), alpha, k, tau, seed=level)
    assert converged
    assert_spectra_close(vals, full.eigenvalues)
    split = classify_spectrum(vals, converged, k, tau)
    assert (split.index, split.nullity) == (full.index, full.nullity)
    if alpha == 1.0:
        assert (split.index, split.nullity) == (idx, nul)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_equator_split_lists_as_many_values_as_the_full_solve(level, n):
    # at k = 200 a part can be too small for ARPACK, which returns at most
    # N - 1 of N eigenvalues; the merged list is still as long as an ARPACK
    # solve of the full pencil would be, min(k, nV - 1), and it is the head
    # of the full pencil's spectrum
    mesh = build_icosphere(level)
    vals, converged = equator_spectrum(mesh, n, 1.0, 200)
    pencil = assemble_second_variation(equator_map(mesh, n), 1.0)
    full, full_converged = pencil_eigenvalues(pencil.H, pencil.M, 200, pencil.mesh)
    assert converged and full_converged
    assert len(vals) == min(200, n * mesh.vertex_count - 1)
    assert_spectra_close(vals, full[:len(vals)])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [1.0, 1.1])
def test_equator_split_at_every_small_k_matches_dense_full_pencil(n, alpha):
    # ceil(k / (n - 2)) scalar values: with one fewer, the k-th merged value
    # can be a tangential one where the full pencil has a scalar one
    mesh = build_icosphere(1)
    pencil = assemble_second_variation(equator_map(mesh, n), alpha)
    full = scipy.linalg.eigh(pencil.H.toarray(), pencil.M.toarray(), eigvals_only=True)
    for k in range(1, 4 * (n - 2) + 3):
        vals, converged = equator_spectrum(mesh, n, alpha, k)
        assert converged
        assert_spectra_close(vals, full[:k])


def padded(f, n):
    """The map f followed by the totally geodesic inclusion of its sphere into S^n."""
    vals = np.zeros((f.mesh.vertex_count, n + 1))
    vals[:, :f.n + 1] = f.values
    return SphereMap(f.mesh, n, vals)


@pytest.fixture(scope="module")
def flow_stage_maps(mesh3, mesh4):
    """{(level, alpha): map}: one flow per level into S^2 through [1.2, 1.05]."""
    maps = {}
    for level, mesh in ((3, mesh3), (4, mesh4)):
        f0 = dilated_equator_map(mesh, 2, 0.4, axis=np.array([0.36, 0.48, 0.8]))
        config = FlowConfig(alpha=1.2)
        result = continue_in_alpha(f0, [1.2, 1.05], config)
        assert result.succeeded
        maps.update({(level, rec.alpha): rec.map for rec in result.records})
    return maps


@pytest.mark.parametrize("level, n", [(3, n) for n in (3, 4, 5, 6)] + [(4, 3), (4, 4)])
@pytest.mark.parametrize("alpha", [1.05, 1.2])
def test_split_matches_full_pencil_on_flow_critical_maps(request, flow_stage_maps,
                                                         level, n, alpha):
    # a flow critical map lies in R^3 x 0 like the equator, at any alpha; k
    # is that of flow's index report
    mesh = request.getfixturevalue(f"mesh{level}")
    f = padded(flow_stage_maps[level, alpha], n)
    k = (n - 2) * 4 + 6 + 10
    tau = calibrate_tau(mesh, n)
    vals, converged = split_spectrum(f, alpha, k)
    full = full_pencil_report(f, alpha, k, tau, seed=level)
    assert converged and not vals.flags.writeable
    assert_spectra_close(vals, full.eigenvalues)
    split = classify_spectrum(vals, converged, k, tau)
    assert (split.index, split.nullity) == (full.index, full.nullity)


@pytest.mark.filterwarnings("ignore:map is far from critical")
def test_split_of_a_map_using_every_column_is_the_full_solve(mesh2, rng):
    f = random_map(mesh2, 4, rng)
    vals, converged = split_spectrum(f, 1.1, 12)
    pencil = assemble_second_variation(f, 1.1)
    full, full_converged = pencil_eigenvalues(pencil.H, pencil.M, 12, pencil.mesh)
    assert converged == full_converged
    assert np.array_equal(vals, full)


@pytest.mark.filterwarnings("ignore:map is far from critical")
def test_split_keeps_every_column_up_to_the_last_nonzero_one(mesh2):
    # a map into S^3 included into S^6: the head map is the S^3 one (m = 3),
    # and three copies of the scalar pencil split off
    f = padded(perturbed_equator(mesh2, 3, seed=5), 6)
    vals, converged = split_spectrum(f, 1.1, 20)
    full = full_pencil_report(f, 1.1, 20, calibrate_tau(mesh2, 6), seed=2)
    assert converged
    assert_spectra_close(vals, full.eigenvalues)


@pytest.mark.parametrize("n", [5, 6])
def test_split_counts_every_null_copy_at_a_tight_k(mesh3, n):
    # k ends one value past the null cluster; ARPACK on the full pencil
    # finds only 14 of the 15 (n = 5) or 18 (n = 6) null directions there
    idx, nul = expected_equator_counts(n)
    k = idx + nul + 1
    vals, converged = split_spectrum(equator_map(mesh3, n), 1.0, k)
    report = classify_spectrum(vals, converged, k, calibrate_tau(mesh3, n))
    assert converged and k == {5: 19, 6: 23}[n]
    assert (report.index, report.nullity) == (idx, nul)


def test_split_assembles_one_weighted_stiffness(monkeypatch, mesh3):
    # the tangent Hessian and the scalar pencil of the split share one K_w
    calls = record_face_blocks(monkeypatch, spectrum_mod)
    vals, converged = split_spectrum(equator_map(mesh3, 5), 1.0, 19)
    assert converged and len(vals) == 19
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore:map is far from critical")
@pytest.mark.parametrize("alpha", [1.0, 1.1])
def test_second_variation_walks_the_faces_once(monkeypatch, mesh3, alpha):
    # the warning and the multipliers both read the one K_w f; the density
    # behind K_w is the fresh map's one kernel walk
    walks = count_face_blocks(monkeypatch, energy_mod)
    assemblies = record_face_blocks(monkeypatch, spectrum_mod)
    f = perturbed_equator(mesh3, 4, seed=11)
    pencil = assemble_second_variation(f, alpha)
    assert walks == [f] and len(assemblies) == 1
    assert_pencil_matches_reduction(pencil, perturbed_equator(mesh3, 4, seed=11), alpha)


@pytest.mark.parametrize("n", [4, 5])
def test_equator_pencil_splits_into_scalar_copies(mesh3, dense_equator_spectrum, n):
    # Simons: at alpha = 1 the constant normal directions e_4..e_{n+1} do not
    # couple to the R^3 part, so the scalar pencil (K - diag(lambda), M), with
    # lambda the multiplier sum(raw . f) per vertex, recurs n - 2 times in the
    # dense spectrum of the full reduced pencil
    f = equator_map(mesh3, n)
    # every eigenvalue in (-3, 12], which holds the ten lowest scalar ones
    spectrum = dense_equator_spectrum(mesh3, n, 1.0)
    full = spectrum[(spectrum > -3.0) & (spectrum <= 12.0)]
    lam = np.sum(alpha_energy_raw_gradient(f, 1.0) * f.values, axis=1)
    fem = assemble_pencil(mesh3)
    scalar = scipy.linalg.eigh((fem.K - sp.diags(lam)).toarray(), fem.M.toarray(),
                               eigvals_only=True)[:10]
    multiplicity = [int(np.count_nonzero(np.abs(full - s) <= 1e-9)) for s in scalar]
    assert scalar[0] == pytest.approx(-2.0, abs=0.05) and scalar[-1] < 11.0
    assert multiplicity[0] == n - 2
    assert min(multiplicity) >= n - 2


def test_normal_pencil_equator(mesh3):
    for n, negatives in ((4, 2), (5, 3)):
        pencil = normal_second_variation(equator_map(mesh3, n))
        vals, ok = pencil_eigenvalues(pencil.H, pencil.M, 4 * (n - 2) + 4, pencil.mesh)
        assert ok
        neg = vals[vals < -0.5]
        assert len(neg) == negatives
        assert np.max(np.abs(neg + 2.0)) <= 0.05 * 2.0
        null = vals[np.abs(vals) <= 0.1]
        assert len(null) == 3 * (n - 2)


def test_normal_pencil_spectrum_refines_to_analytic():
    # analytic normal spectrum at the equator: {-2, 0, 4, 10} per direction
    targets = np.array([-2.0, 0.0, 4.0])
    errors = {}
    hs = {}
    for level in (2, 3, 4):
        mesh = build_icosphere(level)
        pencil = normal_second_variation(equator_map(mesh, 4))
        vals, ok = pencil_eigenvalues(pencil.H, pencil.M, 18, pencil.mesh)
        assert ok
        expected = np.concatenate([
            np.repeat(targets[0], 2), np.repeat(targets[1], 6),
            np.repeat(targets[2], 10),
        ])
        errors[level] = float(np.max(np.abs(vals[: len(expected)] - expected)))
        hs[level] = mesh.max_edge_length()
    order = math.log(errors[2] / errors[4]) / math.log(hs[2] / hs[4])
    assert order >= 1.5


def test_normal_pencil_rejects_degenerate_maps(mesh2):
    with pytest.raises(DegenerateElementsError) as err:
        normal_second_variation(constant_map(mesh2, 4))
    assert len(err.value.elements) > 0


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("n", [4, 8])
def test_image_tangent_planes_keep_their_bits_in_any_block(request, monkeypatch, level, n):
    # the planes walk the energy's face blocks and scatter face by face in
    # index order: one block and 97-face blocks, which straddle the
    # subdivision's face groups, give the same bits
    mesh = request.getfixturevalue(f"mesh{level}")
    f = perturbed_equator(mesh, n, seed=level)
    planes = []
    for block in (mesh.face_count, 97):
        monkeypatch.setattr(sphere_mesh, "FACE_BLOCK", block)
        planes.append(spectrum_mod._image_tangent_planes(f))
    (acc, degenerate), (acc97, degenerate97) = planes
    assert acc.shape == (mesh.vertex_count, n + 1, n + 1) and not degenerate.any()
    assert np.array_equal(acc, acc97) and np.array_equal(degenerate, degenerate97)


def perturbed_equator(mesh, n, seed):
    """An immersed, non-critical map near the totally geodesic sphere."""
    vals = equator_map(mesh, n).values
    noise = np.random.default_rng(seed).standard_normal(vals.shape)
    return SphereMap(mesh, n, normalize_rows(vals + 0.01 * noise))


def reduced_pencil_reference(f, alpha, frames):
    """The removed frame reduction B^T X B of the ambient Hessian and of
    kron(M, I_C), with B the block-diagonal matrix of the frames (V, C, d)."""
    v, C, dim = frames.shape
    cols = np.arange(v)[:, None, None] * dim + np.arange(dim)
    B = sp.csr_matrix(
        (frames.reshape(-1), np.broadcast_to(cols, frames.shape).reshape(-1),
         np.arange(0, frames.size + 1, dim)),
        shape=(v * C, v * dim),
    )
    H = constrained_hessian(f, alpha)
    M = assemble_pencil(f.mesh).M
    M_amb = sp.kron(M, sp.eye(f.n + 1, format="csr"), format="csr")
    return (B.T @ H @ B).tocsr(), (B.T @ M_amb @ B).tocsr()


def assert_pencil_matches_reduction(pencil, f, alpha):
    """Each side equals reduced_pencil_reference to 1e-14 of its largest
    entry (the blocks sum in another order), is exactly symmetric and
    stores no zero."""
    for X, ref in zip((pencil.H, pencil.M),
                      reduced_pencil_reference(f, alpha, pencil.frame)):
        assert abs(X - ref).max() <= 1e-14 * abs(ref).max()
        assert (X != X.T).nnz == 0
        assert np.all(X.data != 0.0)


def hessian_blocks_reference(f, alpha):
    """The (F, 3, 3, C, C) face blocks w k (x) I_C + c s s^T of the old assembly."""
    mesh = f.mesh
    k = mesh.face_stiffness
    s = np.einsum("fij,fjc->fic", k, f.values[mesh.faces])
    g, _ = element_density_area_one(f)
    w = alpha * (1.0 + g) ** (alpha - 1.0)
    c = alpha * (alpha - 1.0) * (1.0 + g) ** (alpha - 2.0) \
        * (2.0 * FOUR_PI / mesh.face_areas)
    blocks = w[:, None, None, None, None] * k[:, :, :, None, None] \
        * np.eye(f.n + 1)[None, None, None, :, :]
    return blocks + c[:, None, None, None, None] \
        * s[:, :, None, :, None] * s[:, None, :, None, :]


@pytest.mark.filterwarnings("ignore:map is far from critical")
@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("alpha", [1.0, 1.1])
def test_hessian_and_pencils_match_hand_written_builders(request, monkeypatch,
                                                         level, n, alpha):
    # oracles: the (F, 3, 3, C, C) block scatter of the Hessian, symmetrized,
    # with the multipliers of the edge-form raw gradient (kron(K_w, I_C) plus
    # the rank-one factor sums in another order, hence a tolerance), and at
    # alpha = 1 kron(K - diag(lambda), I_C) bit for bit; and the removed
    # frame reduction B^T X B
    mesh = request.getfixturevalue(f"mesh{level}")
    C = n + 1
    f = perturbed_equator(mesh, n, seed=level)
    for base in (equator_map(mesh, n), f):
        calls = record_face_blocks(monkeypatch, spectrum_mod)
        H = constrained_hessian(base, alpha)
        (blocks,) = calls
        g, _ = element_density_area_one(base)
        w = alpha * (1.0 + g) ** (alpha - 1.0)
        assert np.array_equal(blocks, w[:, None, None] * mesh.face_stiffness)
        ref = block_scatter_reference(mesh, hessian_blocks_reference(base, alpha))
        lam = np.sum(alpha_energy_raw_gradient(base, alpha) * base.values, axis=1)
        ref = (ref + ref.T) * 0.5 - sp.diags(np.repeat(lam, C))
        assert abs(H - ref).max() <= 1e-13 * abs(ref).max()
        assert (H != H.T).nnz == 0 and np.all(H.data != 0.0)
        if alpha == 1.0:
            K = assemble_pencil(mesh).K
            A = (K - sp.diags(np.sum((K @ base.values) * base.values, axis=1))).tocsr()
            assert_csr_equal(H, sp.kron(A, sp.eye(C), format="csr"))
    tangent = assemble_second_variation(f, alpha)
    normal = normal_second_variation(f, alpha)
    assert np.array_equal(tangent.frame, spectrum_mod._tangent_frames(f))
    assert normal.frame.shape == (mesh.vertex_count, C, C - 3)
    for pencil in (tangent, normal):
        assert_pencil_matches_reduction(pencil, f, alpha)


# -- weight invariance ------------------------------------------------------------------


def test_scaling_invariance_constant_weights(mesh3):
    v = mesh3.vertex_count
    assert scaling_invariance_check(mesh3, 2.0, np.ones(v)) == 0.0
    assert scaling_invariance_check(mesh3, 2.0, 3.0 * np.ones(v)) <= 1e-10


def test_scaling_invariance_refines():
    discrepancies = {}
    for level in (3, 4, 5):
        mesh = build_icosphere(level)
        discrepancies[level] = scaling_invariance_check(
            mesh, 2.0, smooth_weight(mesh)
        )
    assert discrepancies[3] > discrepancies[4] > discrepancies[5]
    assert discrepancies[5] <= 0.05


def advection_blocks_reference(mesh, w):
    """The advection blocks from the triangle geometry: per-face edge vectors,
    unit normals and the P1 basis gradients grad lam_i = n x e_i / (2 A)."""
    faces = mesh.faces
    p = mesh.vertices[faces]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    nrm = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    twice_area = np.linalg.norm(nrm, axis=1)
    nhat = nrm / twice_area[:, None]
    grad_lam = np.cross(nhat[:, None, :], e) / twice_area[:, None, None]
    grad_w = np.einsum("fi,fic->fc", w[faces], grad_lam)
    gj = np.einsum("fjc,fc->fj", grad_lam, grad_w)
    return (mesh.face_areas[:, None, None] / 3.0) * np.ones((1, 3, 1)) * gj[:, None, :]


@pytest.mark.parametrize("level", [2, 3, 4])
def test_weighted_pencil_matches_hand_written_scatters(request, monkeypatch, level):
    # oracles: the repeat/tile scatters of K_w, M_w (symmetrized) and G, and
    # the geometric advection blocks; M_w equals its transpose exactly, so it
    # needs no symmetrization
    mesh = request.getfixturevalue(f"mesh{level}")
    w = smooth_weight(mesh)
    calls = record_face_blocks(monkeypatch, spectrum_mod)
    A, M_w = weighted_scalar_pencil(mesh, 2.0, w)
    k_blocks, m_blocks, g_blocks = calls
    elem_w = w[mesh.faces].mean(axis=1)
    m_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    assert np.array_equal(k_blocks, elem_w[:, None, None] * mesh.face_stiffness)
    assert np.array_equal(m_blocks, (elem_w * mesh.face_areas)[:, None, None] * m_local)
    K_w = p1_scatter_reference(mesh, k_blocks.transpose(0, 2, 1))
    M_ref = p1_scatter_reference(mesh, m_blocks, symmetrize=True)
    G = p1_scatter_reference(mesh, g_blocks)
    assert_csr_equal(M_w, M_ref)
    assert_csr_equal(A, (K_w + G - 2.0 * M_ref).tocsr())
    assert_csr_equal(M_w, M_w.T)
    # the advection blocks read grad lam_j . grad lam_i = k_ji / (flat area)
    # off face_stiffness; the geometric form agrees to rounding
    g_ref = advection_blocks_reference(mesh, w)
    assert np.max(np.abs(g_blocks - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


@pytest.mark.filterwarnings("ignore:map is far from critical")
def test_mesh_caches_no_stiffness_blocks():
    # the cotangent rows are the mesh's only stored stiffness: K, the second
    # variation and the weighted pencil each expand face_stiffness and drop it
    mesh = build_icosphere(3)
    assemble_pencil(mesh)
    assemble_second_variation(random_map(mesh, 4, np.random.default_rng(3)), 1.1)
    weighted_scalar_pencil(mesh, 2.0, smooth_weight(mesh))
    assert "stiffness" not in mesh._cache
    for value in mesh._cache.values():
        for part in value if isinstance(value, tuple) else (value,):
            assert np.shape(part) != (mesh.face_count, 3, 3)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_pullback_mass_matches_hand_written_scatter(request, monkeypatch, level):
    # oracle: the symmetrized repeat/tile scatter of the removed
    # covers._weighted_mass; M_rho equals its transpose exactly
    mesh = request.getfixturevalue(f"mesh{level}")
    f = perturbed_equator(mesh, 4, seed=level)
    masses = []
    monkeypatch.setattr(covers_mod, "eigsh",
                        lambda K, k, M, **kw: masses.append(M) or np.zeros(k))
    covers_mod.pullback_laplace_eigenvalues(f, k=8, eps_reg=1e-8)
    (M_rho,) = masses
    rho, _ = covers_mod._conformal_factors(f, 1e-8)
    m_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    ref = p1_scatter_reference(mesh, (rho * mesh.face_areas)[:, None, None] * m_local,
                               symmetrize=True)
    assert_csr_equal(M_rho, ref)
    assert_csr_equal(M_rho, M_rho.T)


def test_scaling_invariance_rejects_vanishing_weight(mesh2):
    weight = np.ones(mesh2.vertex_count)
    weight[0] = 0.0
    with pytest.raises(PreconditionError):
        scaling_invariance_check(mesh2, 2.0, weight)


# -- logarithmic cutoff --------------------------------------------------------------------


def test_cutoff_endpoints():
    phi = CutoffProfile(0.1)
    assert phi(0.01) == 0.0
    assert phi(0.1) == 1.0
    assert phi(0.2) == 1.0
    assert phi(0.001) == 0.0


def test_cutoff_log_midpoint():
    eps = 0.1
    phi = CutoffProfile(eps)
    assert phi(math.sqrt(eps**3)) == pytest.approx(0.5, abs=1e-12)


def test_cutoff_monotone():
    phi = CutoffProfile(0.3)
    rs = np.linspace(1e-4, 1.0, 2000)
    vals = phi(rs)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_energy_closed_form():
    assert cutoff_dirichlet_energy(math.exp(-1.0)) == pytest.approx(2 * math.pi,
                                                                    rel=1e-8)
    assert cutoff_dirichlet_energy(0.1) == pytest.approx(2 * math.pi / math.log(10.0),
                                                         rel=1e-8)


def test_cutoff_energy_decreases_to_zero():
    values = [cutoff_dirichlet_energy(eps) for eps in (0.3, 0.1, 0.03, 0.01)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.4


def test_cutoff_range_guard():
    with pytest.raises(PreconditionError):
        CutoffProfile(1.5)
