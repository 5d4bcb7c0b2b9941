import math

import numpy as np
import pytest
from scipy.integrate import quad

from spherelab import build_icosphere
from spherelab.energy import (
    SphereMap,
    alpha_energy,
    alpha_energy_gradient,
    alpha_energy_raw_gradient,
    axisymmetric_alpha_energy,
    axisymmetric_divergence_minorant,
    center_of_mass,
    constant_map,
    dilate_points,
    dilated_equator_map,
    dirichlet_energy,
    element_density_area_one,
    equator_map,
    fit_centering_dilation,
    normalize_rows,
    psi_alpha,
    random_map,
    random_tangent_field,
    recenter,
    sample_map,
)
from spherelab.errors import PreconditionError

FOUR_PI = 4.0 * math.pi


def rotation(axis, theta):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)


# -- Dirichlet energy -------------------------------------------------------------


def test_constant_map_zero_energy(mesh3):
    assert abs(dirichlet_energy(constant_map(mesh3, 4))) < 1e-12


def test_equator_energy_is_area(mesh4):
    # conformal inclusion: energy equals the sphere area
    energy = dirichlet_energy(equator_map(mesh4, 4))
    assert abs(energy - FOUR_PI) <= 0.005 * FOUR_PI


def test_energy_rotation_invariance(mesh3, rng):
    rot = rotation(rng.standard_normal(3), 1.1)
    f = equator_map(mesh3, 4)
    rotated_vals = f.values.copy()
    rotated_vals[:, :3] = mesh3.vertices @ rot.T
    g = SphereMap(mesh3, 4, normalize_rows(rotated_vals))
    assert abs(dirichlet_energy(f) - dirichlet_energy(g)) < 1e-10


def test_energy_mobius_difference_vanishes_under_refinement():
    # precomposition with a conformal dilation preserves E; discretely the
    # difference must vanish at observed order >= 1
    diffs = {}
    hs = {}
    for level in (2, 3, 4):
        mesh = build_icosphere(level)
        base = dirichlet_energy(equator_map(mesh, 4))
        moved = dirichlet_energy(dilated_equator_map(mesh, 4, 0.3))
        diffs[level] = abs(base - moved)
        hs[level] = mesh.max_edge_length()
    order = math.log(diffs[2] / diffs[4]) / math.log(hs[2] / hs[4])
    assert order >= 1.0


# -- alpha energy ------------------------------------------------------------------


def test_alpha_energy_constant_map(mesh3):
    for alpha in (1.0, 1.3, 2.0):
        assert abs(alpha_energy(constant_map(mesh3, 4), alpha)) < 1e-12


def test_alpha_energy_equator_closed_form(mesh4):
    # |df|^2 is 8 pi under the area-one convention, so the closed form is
    # ((1 + 8 pi)^alpha - 1)/2
    for alpha in (1.05, 1.2, 2.0):
        expect = ((1 + 8 * math.pi) ** alpha - 1) / 2
        got = alpha_energy(equator_map(mesh4, 4), alpha)
        assert abs(got - expect) <= 0.01 * expect


def test_alpha_one_equals_dirichlet(mesh3, rng):
    f = random_map(mesh3, 4, rng)
    assert alpha_energy(f, 1.0) == pytest.approx(dirichlet_energy(f), abs=1e-9)


def test_alpha_energy_monotone_in_alpha(mesh2, rng):
    f = random_map(mesh2, 3, rng)
    alphas = [1.0, 1.1, 1.5, 2.0]
    values = [alpha_energy(f, a) for a in alphas]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_alpha_below_one_rejected(mesh2):
    with pytest.raises(PreconditionError):
        alpha_energy(constant_map(mesh2, 2), 0.9)


# -- gradients ---------------------------------------------------------------------


def test_gradient_constant_map(mesh3):
    grad = alpha_energy_gradient(constant_map(mesh3, 4), 1.2)
    assert np.max(np.abs(grad.values)) < 1e-12


def test_gradient_matches_finite_differences(mesh2, rng):
    # central-difference oracle: 10 random maps, 3 tangent directions each
    alpha = 1.3
    for _ in range(10):
        f = random_map(mesh2, 4, rng)
        grad = alpha_energy_gradient(f, alpha).values
        for _ in range(3):
            direction = random_tangent_field(f, rng).values
            direction /= np.linalg.norm(direction)
            analytic = float(np.sum(grad * direction))
            h = 1e-5
            plus = alpha_energy(
                SphereMap(mesh2, 4, normalize_rows(f.values + h * direction)), alpha)
            minus = alpha_energy(
                SphereMap(mesh2, 4, normalize_rows(f.values - h * direction)), alpha)
            fd = (plus - minus) / (2 * h)
            assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("alpha", [1.0, 1.1])
def test_raw_gradient_scatter_matches_add_at(level, alpha):
    # the bincount scatter sums in the same order as np.add.at: bit for bit
    mesh = build_icosphere(level)
    f = random_map(mesh, 4, np.random.default_rng(0))
    g, _ = element_density_area_one(f)
    w = alpha * (1.0 + g) ** (alpha - 1.0)
    s = np.einsum("fij,fjc->fic", mesh.face_stiffness, f.values[mesh.faces])
    expected = np.zeros_like(f.values)
    np.add.at(expected, mesh.faces.reshape(-1), (w[:, None, None] * s).reshape(-1, 5))
    assert np.array_equal(alpha_energy_raw_gradient(f, alpha), expected)


def test_dirichlet_energy_convention_independent(mesh3, rng):
    from spherelab import to_area_one

    f = random_map(mesh3, 4, rng)
    g = SphereMap(to_area_one(mesh3), 4, f.values)
    assert abs(dirichlet_energy(f) - dirichlet_energy(g)) <= 1e-12
    # the alpha-energy applies the area-one view on read, so it agrees too
    assert alpha_energy(f, 1.2) == pytest.approx(alpha_energy(g, 1.2), abs=1e-12)


def test_equator_is_near_critical(mesh4):
    for alpha in (1.0, 1.3):
        grad = alpha_energy_gradient(equator_map(mesh4, 4), alpha)
        assert grad.norm() <= 5e-3  # discretization-scale residual


# -- psi_alpha ---------------------------------------------------------------------


def test_psi_vanishes_at_zero():
    for alpha in (1.0, 1.1, 2.0):
        assert psi_alpha(0.0, alpha) == 0.0


def test_psi_one_closed_form():
    assert psi_alpha(1.0, 1.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-14)


def test_psi_matches_quadrature_oracle():
    for alpha in (1.0001, 1.3):
        for t in (0.5, 3.0, 50.0):
            oracle = quad(lambda s: alpha * s * (1 + s) ** (alpha - 2.0), 0, t,
                          limit=200)[0]
            assert psi_alpha(t, alpha) == pytest.approx(oracle, rel=1e-8)


def test_psi_near_one_uses_stable_branch():
    # 1e-8 away from the limit: closed form would cancel catastrophically
    t = 10.0
    val = psi_alpha(t, 1.0 + 1e-8)
    assert val == pytest.approx(psi_alpha(t, 1.0), rel=1e-4)


def test_psi_monotone():
    ts = np.linspace(0.0, 100.0, 1001)
    for alpha in (1.0, 1.0001, 1.5):
        vals = psi_alpha(ts, alpha)
        assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("alpha", [1.0, 1.0001, 1.1, 2.0])
def test_psi_relative_accuracy_at_small_t(alpha):
    # the closed forms cancel to O(1e-16) absolute where psi is O(t^2)
    ts = (1e-8, 1e-6, 1e-4)
    for t in ts:
        series = alpha * t**2 / 2 + alpha * (alpha - 2) * t**3 / 3 \
            + alpha * (alpha - 2) * (alpha - 3) * t**4 / 8
        oracle = quad(lambda s: alpha * s * (1 + s) ** (alpha - 2.0), 0, t,
                      epsabs=0.0, epsrel=1e-13)[0]
        assert psi_alpha(t, alpha) == pytest.approx(series, rel=1e-10, abs=0)
        assert psi_alpha(t, alpha) == pytest.approx(oracle, rel=1e-12, abs=0)
    # the array path takes the series on the small entries only; the closed
    # forms differ between array and scalar calls by their own rounding
    mixed = np.array([ts[0], 0.5, ts[1], 3.0, ts[2]])
    vals = psi_alpha(mixed, alpha)
    assert [vals[i] for i in (0, 2, 4)] == [psi_alpha(t, alpha) for t in ts]
    np.testing.assert_allclose(vals[[1, 3]], [psi_alpha(0.5, alpha),
                                              psi_alpha(3.0, alpha)], rtol=1e-9)


def test_psi_rejects_negative_t():
    with pytest.raises(PreconditionError):
        psi_alpha(-0.5, 1.2)


# -- center of mass ----------------------------------------------------------------


def test_center_of_mass_constant(mesh3):
    assert np.linalg.norm(center_of_mass(constant_map(mesh3, 4), 1.3)) < 1e-12


def test_center_of_mass_equator(mesh4):
    assert np.linalg.norm(center_of_mass(equator_map(mesh4, 4), 1.05)) <= 1e-8


def test_center_of_mass_antipodal_oddness(mesh3, rng):
    f = dilated_equator_map(mesh3, 4, 0.45, axis="z")
    com = center_of_mass(f, 1.1)
    flipped = SphereMap(mesh3, 4, sample_map(f, -mesh3.vertices))
    com_flipped = center_of_mass(flipped, 1.1)
    # X is odd under the antipodal map; resampling is exact here because the
    # vertex set is centrally symmetric
    assert np.linalg.norm(com + com_flipped) <= 1e-9 * max(1.0, np.linalg.norm(com))


def test_recenter_recovers_dilation(mesh4):
    f = dilated_equator_map(mesh4, 4, 0.3, axis="z")
    recentered, params = fit_centering_dilation(f, 1.05)
    assert np.linalg.norm(center_of_mass(recentered, 1.05)) <= 1e-8
    assert params[2] == pytest.approx(-0.3, abs=5e-3)
    assert abs(params[0]) < 1e-6 and abs(params[1]) < 1e-6
    assert abs(dirichlet_energy(recentered) - dirichlet_energy(f)) <= 0.01 * dirichlet_energy(f)


def test_recenter_already_centered(mesh3):
    f = equator_map(mesh3, 4)
    recentered, params = fit_centering_dilation(f, 1.1)
    assert recentered is f
    assert np.all(params == 0.0)


def test_recenter_constant_rejected(mesh3):
    with pytest.raises(PreconditionError):
        recenter(constant_map(mesh3, 4), 1.1)


# -- domain dilations and sampling ---------------------------------------------------


def test_dilate_points_fixes_poles():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    moved = dilate_points(pts, 2.0, axis="z")
    assert np.allclose(moved, pts)


def test_dilate_points_group_law(rng):
    pts = normalize_rows(rng.standard_normal((50, 3)))
    a = dilate_points(dilate_points(pts, 0.4), 0.3)
    b = dilate_points(pts, 0.7)
    assert np.allclose(a, b, atol=1e-12)


def test_sample_map_at_vertices_is_identity(mesh3):
    f = dilated_equator_map(mesh3, 4, 0.2)
    assert np.allclose(sample_map(f, mesh3.vertices), f.values, atol=1e-12)


# -- axisymmetric reduced energy ------------------------------------------------------


def test_axisymmetric_zero_speed():
    value = axisymmetric_alpha_energy(lambda u: 0.0, 1.2, 10.0)
    assert value == pytest.approx(2 * math.pi * math.tanh(10.0), rel=1e-10)


def test_axisymmetric_monotone_in_truncation():
    values = [axisymmetric_alpha_energy(lambda u: 1.0, 1.2, U) for U in (5, 10, 20)]
    assert values[0] < values[1] < values[2]


def test_axisymmetric_divergence_increment():
    # the increment over the added window dominates the pointwise minorant
    e10 = axisymmetric_alpha_energy(lambda u: 1.0, 1.2, 10.0)
    e20 = axisymmetric_alpha_energy(lambda u: 1.0, 1.2, 20.0)
    increment_bound = (axisymmetric_divergence_minorant(1.0, 1.2, 20.0)
                       - axisymmetric_divergence_minorant(1.0, 1.2, 10.0))
    assert e20 - e10 >= increment_bound


def test_axisymmetric_alpha_guard():
    with pytest.raises(PreconditionError):
        axisymmetric_alpha_energy(lambda u: 1.0, 1.0, 5.0)
