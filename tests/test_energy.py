import math
from dataclasses import FrozenInstanceError
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import cKDTree

from conftest import count_face_blocks
from spherelab import build_icosphere
from spherelab import energy
from spherelab.energy import (
    SphereMap,
    alpha_energy,
    alpha_energy_gradient,
    alpha_energy_raw_gradient,
    apply_axis_dilations,
    axisymmetric_alpha_energy,
    axisymmetric_divergence_minorant,
    center_of_mass,
    constant_map,
    dilate_points,
    dilated_equator_map,
    dirichlet_energy,
    element_density_area_one,
    element_energy_integrals,
    equator_map,
    fit_centering_dilation,
    normalize_rows,
    precompose_with_dilations,
    psi_alpha,
    random_map,
    random_tangent_field,
    recenter,
    sample_map,
)
from spherelab.errors import PreconditionError
from spherelab.sphere_mesh import SphereMesh

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
def test_raw_gradient_scatter_matches_add_at(level, alpha, monkeypatch):
    # the blocked scatter sums face by face in index order, as one np.add.at
    # over all faces does: bit for bit, whatever the block size
    mesh = build_icosphere(level)
    f = random_map(mesh, 4, np.random.default_rng(0))
    g, _ = element_density_area_one(f)
    w = alpha * (1.0 + g) ** (alpha - 1.0)
    k = mesh.face_stiffness
    fa, fb, fc = (f.values[mesh.faces[:, i]] for i in range(3))
    d_ab = (w * -k[:, 0, 1])[:, None] * (fa - fb)
    d_bc = (w * -k[:, 1, 2])[:, None] * (fb - fc)
    d_ca = (w * -k[:, 0, 2])[:, None] * (fc - fa)
    contributions = np.stack([d_ab - d_ca, d_bc - d_ab, d_ca - d_bc], axis=1)
    expected = np.zeros_like(f.values)
    np.add.at(expected, mesh.faces.reshape(-1), contributions.reshape(-1, 5))
    assert np.array_equal(alpha_energy_raw_gradient(f, alpha), expected)
    monkeypatch.setattr(energy, "FACE_BLOCK", 100)
    # a fresh map: f keeps the integrals its first evaluation computed
    fresh = SphereMap(mesh, 4, f.values)
    assert np.array_equal(alpha_energy_raw_gradient(fresh, alpha), expected)


@pytest.mark.parametrize("alpha", [1.0, 1.1])
def test_map_keeps_read_only_integrals(alpha):
    # a fresh map's gradient computes q itself; after alpha_energy computed
    # it, the gradient only reads the kept q: the bits agree, over five
    # 4096-face blocks at level 5
    mesh = build_icosphere(5)
    vals = normalize_rows(np.random.default_rng(5).standard_normal((mesh.vertex_count, 5)))
    fresh = SphereMap(mesh, 4, vals)
    grad = alpha_energy_gradient(fresh, alpha).values
    f = SphereMap(mesh, 4, vals)
    energy_val = alpha_energy(f, alpha)
    assert np.array_equal(alpha_energy_gradient(f, alpha).values, grad)
    assert energy_val == alpha_energy(fresh, alpha)
    assert np.array_equal(center_of_mass(f, alpha), center_of_mass(fresh, alpha))
    q = element_energy_integrals(f)
    assert element_energy_integrals(f) is q
    # the map holds a view of the caller's array, not a copy
    assert np.shares_memory(f.values, vals)
    for kept in (f.values, q):
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        f.values = vals.copy()


@pytest.mark.parametrize("alpha", [1.0, 1.1, 1.5])
def test_alpha_energy_is_the_correctly_rounded_sum_of_its_face_terms(mesh3, alpha):
    # oracle: the exact rational sum of the same face terms
    for seed in range(4):
        f = random_map(mesh3, 4, np.random.default_rng(seed))
        g, da = element_density_area_one(f)
        terms = ((1.0 + g) ** alpha - 1.0) * da
        exact = sum((Fraction(t) for t in terms.tolist()), Fraction(0))
        assert alpha_energy(f, alpha) == 0.5 * float(exact)


@pytest.mark.parametrize("alpha", [1.0, 1.1])
def test_fresh_gradient_walks_the_faces_once(monkeypatch, alpha):
    # a fresh map's gradient keeps the integrals of its own walk: the bits of
    # a separate element_energy_integrals walk, over five 4096-face blocks
    walks = count_face_blocks(monkeypatch, energy)
    mesh = build_icosphere(5)
    vals = normalize_rows(np.random.default_rng(6).standard_normal((mesh.vertex_count, 5)))
    f = SphereMap(mesh, 4, vals)
    grad = alpha_energy_gradient(f, alpha).values
    assert walks == [f]
    q = element_energy_integrals(f)
    assert len(walks) == 1 and not q.flags.writeable
    other = SphereMap(mesh, 4, vals)
    assert np.array_equal(q, element_energy_integrals(other))
    assert np.array_equal(alpha_energy_gradient(other, alpha).values, grad)
    assert len(walks) == 3


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("alpha", [1.0, 1.05, 1.2])
def test_edge_form_matches_three_index_form(level, alpha, monkeypatch):
    # the kernel's oracle is the quadratic form sum_ij k_ij f_i . f_j it
    # replaced; that form cancels, so q_f may differ by its rounding bound
    mesh = build_icosphere(level)
    f = random_map(mesh, 4, np.random.default_rng(level))
    k = mesh.face_stiffness
    vals = f.values[mesh.faces]
    gram = np.einsum("fic,fjc->fij", vals, vals)
    q_old = np.einsum("fij,fic,fjc->f", k, vals, vals)
    q = element_energy_integrals(f)
    bound = 64 * np.finfo(float).eps * np.abs(k * gram).sum(axis=(1, 2))
    assert np.all(np.abs(q - q_old) <= bound)
    assert dirichlet_energy(f) == pytest.approx(0.5 * q_old.sum(), rel=1e-12, abs=0)
    g_old = np.maximum(FOUR_PI * q_old / mesh.face_areas, 0.0)
    w = alpha * (1.0 + g_old) ** (alpha - 1.0)
    s = w[:, None, None] * np.einsum("fij,fjc->fic", k, vals)
    old = np.zeros_like(f.values)
    np.add.at(old, mesh.faces.reshape(-1), s.reshape(-1, 5))
    raw = alpha_energy_raw_gradient(f, alpha)
    assert np.linalg.norm(raw) == pytest.approx(np.linalg.norm(old), rel=1e-12, abs=0)
    assert np.linalg.norm(raw - old) <= 1e-12 * np.linalg.norm(old)
    # blocks below the face count: the same q, and the same scatter order,
    # on a fresh map, since f keeps the integrals computed above
    monkeypatch.setattr(energy, "FACE_BLOCK", mesh.face_count // 3 + 1)
    fresh = SphereMap(mesh, 4, f.values)
    assert np.array_equal(element_energy_integrals(fresh), q)
    assert np.array_equal(alpha_energy_raw_gradient(fresh, alpha), raw)


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


def psi_50_digits(t, alpha):
    """The defining closed form of psi_alpha in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        t, a, one = Decimal(t), Decimal(alpha), Decimal(1)
        if a == one:
            return float(t - (one + t).ln())
        p = (one + t) ** (a - one)
        return float((a * p * t - (one + t) * p + one) / (a - one))


@pytest.mark.parametrize("alpha", [1.0, 1.0 + 1e-8, 1.0 + 1e-6, 1.0001, 1.05, 1.5, 2.0, 3.0])
def test_psi_matches_50_digit_evaluation(alpha):
    # the single form holds its digits near alpha = 1, where the closed form
    # lost up to 2.3e-6 relative at t = 1e-3 and alpha = 1.0001
    ts = np.array([1e-6, 5e-4, 1e-3, 2e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e4])
    vals = psi_alpha(ts, alpha)
    for t, val in zip(ts, vals):
        assert val == pytest.approx(psi_50_digits(t, alpha), rel=1e-12, abs=0)
        assert psi_alpha(float(t), alpha) == pytest.approx(val, rel=1e-15, abs=0)


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


def test_recenter_returns_the_accepted_resample(mesh3, monkeypatch):
    # one Newton step resamples 7 times: 6 for the central-difference
    # Jacobian and 1 for the accepted trial, which is the map returned
    calls = []
    sample = energy.sample_map
    monkeypatch.setattr(energy, "sample_map",
                        lambda *a: calls.append(1) or sample(*a))
    f = dilated_equator_map(mesh3, 4, 1e-4, axis="z")
    recentered, params = fit_centering_dilation(f, 1.05)
    assert len(calls) == 7
    assert np.array_equal(recentered.values, precompose_with_dilations(f, params).values)
    assert np.linalg.norm(center_of_mass(recentered, 1.05)) <= 1e-8


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


def sample_map_batched(sphere_map, points):
    """Point location that solves all 16 candidates of every point at once."""
    mesh = sphere_map.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = min(16, mesh.face_count)
    _, cand = mesh.centroid_tree.query(pts, k=k)
    cand = np.atleast_2d(cand)
    corner = mesh.vertices[mesh.faces[cand]]          # (Q, k, 3, 3)
    mats = corner.transpose(0, 1, 3, 2)               # columns are corners
    rhs = np.repeat(pts[:, None, :, None], k, axis=1)
    bary = np.linalg.solve(mats, rhs)[..., 0]
    ok = np.all(bary >= -1e-10, axis=2)
    first = np.argmax(ok, axis=1)
    found = ok[np.arange(len(pts)), first]
    face_idx = cand[np.arange(len(pts)), first]
    b = bary[np.arange(len(pts)), first]
    b = np.clip(b, 0.0, None)
    b /= b.sum(axis=1)[:, None]
    vals = np.einsum("qi,qic->qc", b, sphere_map.values[mesh.faces[face_idx]])
    if not np.all(found):
        missing = np.where(~found)[0]
        _, nearest = cKDTree(mesh.vertices).query(pts[missing])
        vals[missing] = sphere_map.values[nearest]
    return normalize_rows(vals)


def test_sample_map_falls_back_to_nearest_vertex():
    # a northern cap of faces: no candidate face holds a southern point
    mesh = build_icosphere(3)
    cap = mesh.faces[mesh.face_centroids[:, 2] > 0.5]
    cap_mesh = SphereMesh(vertices=mesh.vertices, faces=cap, subdivision_level=3)
    f = random_map(cap_mesh, 4, np.random.default_rng(0))
    pts = normalize_rows(np.random.default_rng(1).standard_normal((200, 3)))
    pts[:, 2] = -np.abs(pts[:, 2]) - 0.1
    pts = normalize_rows(pts)
    _, nearest = cKDTree(mesh.vertices).query(pts)
    assert np.array_equal(sample_map(f, pts), normalize_rows(f.values[nearest]))
    assert np.array_equal(sample_map(f, pts), sample_map_batched(f, pts))


@pytest.mark.parametrize("level", [3, 4, 5])
def test_sample_map_matches_batched_location(level):
    mesh = build_icosphere(level)
    rng = np.random.default_rng(level)
    f = random_map(mesh, 4, rng)
    point_sets = [mesh.vertices, -mesh.vertices, normalize_rows(rng.standard_normal((5000, 3)))]
    point_sets += [apply_axis_dilations(mesh.vertices, np.array(p))
                   for p in ((1e-6, 0.0, 0.0), (1e-3, 2e-3, -1e-3), (0.3, 0.2, -0.4))]
    for pts in point_sets:
        assert np.array_equal(sample_map(f, pts), sample_map_batched(f, pts))


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
