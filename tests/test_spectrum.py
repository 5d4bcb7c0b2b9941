import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import count_eigsh, smooth_weight
from spherelab import build_icosphere
from spherelab import spectrum as spectrum_mod
from spherelab.energy import (
    SphereMap,
    alpha_energy,
    alpha_energy_gradient,
    alpha_energy_raw_gradient,
    constant_map,
    equator_map,
    normalize_rows,
    random_map,
    random_tangent_field,
)
from spherelab.errors import DegenerateElementsError, PreconditionError
from spherelab.spectrum import (
    assemble_second_variation,
    calibrate_tau,
    constrained_hessian,
    cutoff_dirichlet_energy,
    cutoff_profile,
    equator_spectrum,
    expected_equator_counts,
    index_energy_diagnostic,
    morse_index_nullity,
    normal_second_variation,
    pencil_eigenvalues,
    scaling_invariance_check,
)
from spherelab.sphere_mesh import assemble_pencil

FOUR_PI = 4.0 * math.pi


# -- Hessian consistency -------------------------------------------------------------


def test_hessian_symmetry(mesh2, rng):
    f = random_map(mesh2, 4, rng)
    H = constrained_hessian(f, 1.2)
    asym = abs(H - H.T).max()
    assert asym <= 1e-12 * abs(H).max()


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
    vals, ok = pencil_eigenvalues(pencil.H, pencil.M, 12)
    assert ok
    assert vals[0] >= -1e-10  # global minimum: index 0
    # null directions move the constant inside the target sphere, whose
    # manifold of constants has dimension n
    assert np.count_nonzero(np.abs(vals) <= 1e-8) == n


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
    calls = count_eigsh(monkeypatch, spectrum_mod)
    tau = calibrate_tau(mesh, n)
    vals, converged = equator_spectrum(mesh, n, 1.0, idx + nul + 8)
    assert calls == [idx + nul + 8] and converged
    assert calibrate_tau(mesh, n) == tau and len(calls) == 1
    assert not vals.flags.writeable
    # the cached eigenvalues are those of the uncached full solve, bit for bit
    pencil = assemble_second_variation(equator_map(mesh, n), 1.0)
    report = morse_index_nullity(pencil, idx + nul + 8, tau)
    np.testing.assert_array_equal(report.eigenvalues, vals)
    assert (report.index, report.nullity) == (idx, nul)
    equator_spectrum(mesh, n, 1.0, 25)
    assert calls == [idx + nul + 8, idx + nul + 8, 25]


@pytest.mark.parametrize("n", [4, 5])
def test_equator_pencil_splits_into_scalar_copies(mesh3, n):
    # Simons: at alpha = 1 the constant normal directions e_4..e_{n+1} do not
    # couple to the R^3 part, so the scalar pencil (K - diag(lambda), M), with
    # lambda the multiplier sum(raw . f) per vertex, recurs n - 2 times in the
    # dense spectrum of the full reduced pencil
    f = equator_map(mesh3, n)
    pencil = assemble_second_variation(f, 1.0)
    # every eigenvalue in (-3, 12], which holds the ten lowest scalar ones;
    # Fortran order and overwrite spare LAPACK two dense copies (~80 MB each)
    full = scipy.linalg.eigh(pencil.H.toarray(order="F"), pencil.M.toarray(order="F"),
                             eigvals_only=True, subset_by_value=(-3.0, 12.0),
                             overwrite_a=True, overwrite_b=True, check_finite=False)
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
        vals, ok = pencil_eigenvalues(pencil.H, pencil.M, 4 * (n - 2) + 4)
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
        vals, ok = pencil_eigenvalues(pencil.H, pencil.M, 18)
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


def test_scaling_invariance_rejects_vanishing_weight(mesh2):
    weight = np.ones(mesh2.vertex_count)
    weight[0] = 0.0
    with pytest.raises(PreconditionError):
        scaling_invariance_check(mesh2, 2.0, weight)


# -- logarithmic cutoff --------------------------------------------------------------------


def test_cutoff_endpoints():
    phi = cutoff_profile(0.1)
    assert phi(0.01) == 0.0
    assert phi(0.1) == 1.0
    assert phi(0.2) == 1.0
    assert phi(0.001) == 0.0


def test_cutoff_log_midpoint():
    eps = 0.1
    phi = cutoff_profile(eps)
    assert phi(math.sqrt(eps**3)) == pytest.approx(0.5, abs=1e-12)


def test_cutoff_monotone():
    phi = cutoff_profile(0.3)
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
        cutoff_profile(1.5)


# -- index-energy diagnostic ------------------------------------------------------------------


def test_index_energy_diagnostic():
    c = index_energy_diagnostic([(FOUR_PI, 2)])
    assert c == pytest.approx(3.0 / FOUR_PI)
    c2 = index_energy_diagnostic([(FOUR_PI, 2), (2 * FOUR_PI, 4)])
    assert c2 == pytest.approx(min(3.0 / FOUR_PI, 5.0 / (2 * FOUR_PI)))
    with pytest.raises(PreconditionError):
        index_energy_diagnostic([])
