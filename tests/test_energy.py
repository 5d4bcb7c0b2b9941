import gc
import math
import weakref
from dataclasses import FrozenInstanceError
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (assert_located_like_kd_tree, count_face_blocks, fd_centering_jacobian,
                      in_order_row_sums, newton_centering_dilation)
from spherelab import build_icosphere
from spherelab import energy, sphere_mesh
from spherelab.curvature import CurvatureOperator, constant_curvature_operator
from spherelab.energy import (
    SphereMap,
    TangentField,
    alpha_energy,
    alpha_energy_gradient,
    alpha_energy_raw_gradient,
    apply_axis_dilations,
    axisymmetric_alpha_energy,
    axisymmetric_divergence_minorant,
    center_of_mass,
    conformal_field_jacobian,
    constant_map,
    dilate_points,
    dilated_equator_map,
    dirichlet_energy,
    element_density_area_one,
    element_energy_integrals,
    equator_map,
    fit_centering_dilation,
    head_map,
    normalize_rows,
    padded,
    precompose_with_dilations,
    project_tangent,
    psi_alpha,
    random_map,
    random_tangent_field,
    recenter,
    sample_map,
)
from spherelab.errors import ConvergenceError, InvariantViolationError, PreconditionError
from spherelab.flow import FlowConfig
from spherelab.spectrum import constrained_hessian
from spherelab.sphere_mesh import SphereMesh, validate_mesh

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


def with_nan(values):
    out = np.array(values, dtype=float)
    out.flat[1] = np.nan  # row 0, column 1: a live column of every map here
    return out


NAN_INPUTS = {
    "map row": lambda m: SphereMap(m, 4, with_nan(equator_map(m, 4).values)),
    "tangent field": lambda m: TangentField(equator_map(m, 4),
                                            with_nan(np.zeros((m.vertex_count, 5)))),
    "curvature": lambda m: CurvatureOperator(3, with_nan(constant_curvature_operator(3).R)),
    "flow alpha": lambda m: FlowConfig(alpha=np.nan),
    "flow grad_tol": lambda m: FlowConfig(grad_tol=np.nan),
    "flow grad_tol_abs": lambda m: FlowConfig(grad_tol_abs=np.nan),
    "alpha_energy alpha": lambda m: alpha_energy(equator_map(m, 4), np.nan),
    "psi_alpha alpha": lambda m: psi_alpha(0.5, np.nan),
    "hessian alpha": lambda m: constrained_hessian(equator_map(m, 4), np.nan),
}


@pytest.mark.parametrize("case", sorted(NAN_INPUTS))
def test_nan_fails_input_checks(mesh2, case):
    # each check is "not err <= tol" or "not alpha >= 1", which a NaN fails
    with pytest.raises(PreconditionError):
        NAN_INPUTS[case](mesh2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tangent_field_refuses_nonfinite_dead_columns(mesh2, bad):
    # the equator into S^4 is zero on columns 3 and 4, where no dot reads the
    # field: project_tangent would copy the value into a flow step
    base = equator_map(mesh2, 4)
    values = np.zeros((mesh2.vertex_count, 5))
    values[0, 4] = 1.0
    assert TangentField(base, values).values[0, 4] == 1.0
    values[0, 4] = bad
    with pytest.raises(PreconditionError):
        TangentField(base, values)


def test_project_tangent_leaves_its_input_unchanged(mesh2, rng):
    f = random_map(mesh2, 4, rng)
    field = rng.standard_normal(f.values.shape)
    before = field.copy()
    out = project_tangent(f, field)
    assert np.array_equal(field, before)
    assert not np.shares_memory(out.values, field)


# -- gradients ---------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 1.05])
def test_gradient_is_the_projected_raw_gradient(mesh3, alpha):
    # the gradient projects the raw gradient it owns in place, with the bits
    # of project_tangent's copy; maps with and without dead columns
    rng = np.random.default_rng(3)
    for f in (random_map(mesh3, 4, rng), equator_map(mesh3, 6),
              dilated_equator_map(mesh3, 4, 0.4)):
        want = project_tangent(f, alpha_energy_raw_gradient(f, alpha)).values
        assert np.array_equal(alpha_energy_gradient(f, alpha).values, want)


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
    monkeypatch.setattr(sphere_mesh, "FACE_BLOCK", 100)
    # a fresh map: f keeps the integrals its first evaluation computed
    fresh = SphereMap(mesh, 4, f.values)
    assert np.array_equal(alpha_energy_raw_gradient(fresh, alpha), expected)


@pytest.mark.parametrize("alpha", [1.0, 1.1])
def test_map_keeps_read_only_integrals(alpha):
    # a fresh map's gradient gets q from element_energy_integrals, as
    # alpha_energy does; either way the map keeps one read-only q, and the
    # bits agree, over five 4096-face blocks at level 5
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
    # element_energy_integrals is the one producer of q: a fresh map's
    # gradient makes its walk and then one scatter walk, over five 4096-face
    # blocks, and has the bits of a map whose q was computed first
    walks = count_face_blocks(monkeypatch, energy)
    producer, produced = energy.element_energy_integrals, []
    monkeypatch.setattr(energy, "element_energy_integrals",
                        lambda f: produced.append(f) or producer(f))
    mesh = build_icosphere(5)
    vals = normalize_rows(np.random.default_rng(6).standard_normal((mesh.vertex_count, 5)))
    f = SphereMap(mesh, 4, vals)
    grad = alpha_energy_gradient(f, alpha).values
    assert walks == [f, f] and produced == [f]
    q = element_energy_integrals(f)
    assert len(walks) == 2 and not q.flags.writeable
    other = SphereMap(mesh, 4, vals)
    assert np.array_equal(q, element_energy_integrals(other))
    assert len(walks) == 3
    assert np.array_equal(alpha_energy_gradient(other, alpha).values, grad)
    assert len(walks) == 4 and produced == [f, other]


# -- live columns ------------------------------------------------------------------


def full_column_integrals(f):
    """element_energy_integrals walking every column of f."""
    q = np.empty(f.mesh.face_count)
    for faces, d, c in energy._face_blocks(f):
        q[faces] = energy._block_integrals(d, c)
    return q


def full_column_raw_gradient(f, alpha, q):
    """alpha_energy_raw_gradient walking every column of f, from its integrals q."""
    mesh = f.mesh
    out = np.zeros((f.n + 1, mesh.vertex_count))
    for faces, d, c in energy._face_blocks(f):
        g = np.maximum(FOUR_PI * q[faces] / mesh.face_areas[faces], 0.0)
        d *= alpha * (1.0 + g) ** (alpha - 1.0) * c
        s = np.empty((d.shape[0], d.shape[2], 3))
        for e in range(3):
            np.subtract(d[:, e], d[:, e - 1], out=s[:, :, e])
        mesh.scatter_corners(out, faces, s)
    return np.ascontiguousarray(out.T)


def full_column_projection(f, field, row_sums):
    """project_tangent's values over every column of f, each dot summed over
    the full row by row_sums."""
    dots = row_sums(field * f.values)
    return field - dots[:, None] * f.values


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("alpha", [1.0, 1.05])
def test_live_column_walks_keep_the_full_column_bits(level, alpha, monkeypatch):
    # maps with dead columns, up to 13 columns.  The projection's dots are
    # the full rows summed in column order; with 3 live columns they are
    # also numpy's own row sums at any width, so no map the CLI projects
    # (image in R^3 x 0) moves a bit
    mesh = build_icosphere(level)
    head = random_map(mesh, 4, np.random.default_rng(level))
    dilated_head = head_map(dilated_equator_map(mesh, 4, 0.3))
    rng = np.random.default_rng(level + 10)
    for f in (equator_map(mesh, 6), dilated_equator_map(mesh, 4, 0.3), padded(head, 8),
              equator_map(mesh, 9), padded(dilated_head, 12)):
        full = SphereMap(mesh, f.n, f.values)  # walked on all its columns below
        q = full_column_integrals(full)
        raw_full = full_column_raw_gradient(full, alpha, q)
        field = rng.standard_normal(f.values.shape)
        walks = count_face_blocks(monkeypatch, energy)
        live = head_map(f).n + 1
        assert live < f.n + 1
        assert np.array_equal(element_energy_integrals(f), q)
        raw = alpha_energy_raw_gradient(f, alpha)
        assert np.array_equal(raw, raw_full)
        assert [w.n + 1 for w in walks] == [live, live]
        assert np.all(raw[:, live:] == 0.0) and not np.signbit(raw[:, live:]).any()
        for values in (raw, field):
            projected = project_tangent(f, values).values
            assert np.array_equal(projected,
                                  full_column_projection(f, values, in_order_row_sums))
            if live == 3:
                assert np.array_equal(projected, full_column_projection(
                    f, values, lambda rows: np.sum(rows, axis=1)))
        monkeypatch.undo()


def test_head_map_is_kept_on_the_map(mesh2):
    f = equator_map(mesh2, 5)
    head = head_map(f)
    assert head.n == 2 and np.shares_memory(head.values, f.values)
    object.__setattr__(f, "values", None)  # a second call must not read them
    assert head_map(f) is head
    own = random_map(mesh2, 4, np.random.default_rng(0))
    assert head_map(own) is own and head_map(own) is own
    assert all(kept is not own for kept in vars(own).values())


def test_a_map_whose_head_was_taken_dies_when_deleted(mesh2):
    # no reference cycle: the map goes with its last reference, without the
    # cycle collector
    rng = np.random.default_rng(1)
    makers = (lambda: equator_map(mesh2, 5),
              lambda: random_map(mesh2, 4, rng),
              lambda: padded(random_map(mesh2, 3, rng), 6))
    gc.disable()
    try:
        for make in makers:
            f = make()
            head_map(f)
            alpha_energy_gradient(f, 1.1)
            ref = weakref.ref(f)
            del f
            assert ref() is None
    finally:
        gc.enable()


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
    monkeypatch.setattr(sphere_mesh, "FACE_BLOCK", mesh.face_count // 3 + 1)
    fresh = SphereMap(mesh, 4, f.values)
    assert np.array_equal(element_energy_integrals(fresh), q)
    assert np.array_equal(alpha_energy_raw_gradient(fresh, alpha), raw)


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
    # the solve stops on an accepted trial, so the map returned is the last
    # resample, the one at the returned parameters
    resampled = []
    sample = energy.sample_map
    monkeypatch.setattr(energy, "sample_map",
                        lambda *a: resampled.append(sample(*a)) or resampled[-1])
    f = dilated_equator_map(mesh3, 4, 1e-4, axis="z")
    recentered, params = fit_centering_dilation(f, 1.05)
    assert resampled and recentered.values.base is resampled[-1]
    assert np.array_equal(recentered.values, precompose_with_dilations(f, params).values)
    assert np.linalg.norm(center_of_mass(recentered, 1.05)) <= 1e-8


AXES = {"z": "z", "x": "x", "123": np.array([1.0, 2.0, 3.0])}


@pytest.mark.parametrize("alpha", [1.0, 1.05, 1.2])
@pytest.mark.parametrize("axis", list(AXES))
@pytest.mark.parametrize("t", [1e-4, 0.3, 0.45, 0.8])
@pytest.mark.parametrize("level", [3, 4])
def test_recenter_matches_newton_oracle(level, t, axis, alpha, request, monkeypatch):
    # oracle: Newton on a central-difference Jacobian at every step, which
    # resamples 6 times per Jacobian; the Broyden solve resamples once per trial
    f = dilated_equator_map(request.getfixturevalue(f"mesh{level}"), 4, t, axis=AXES[axis])
    resamples = []
    sample = energy.sample_map
    monkeypatch.setattr(energy, "sample_map", lambda *a: resamples.append(1) or sample(*a))
    _, ref_params = newton_centering_dilation(f, alpha)
    oracle_count = len(resamples)
    resamples.clear()
    recentered, params = fit_centering_dilation(f, alpha)
    assert len(resamples) <= oracle_count
    assert np.max(np.abs(params - ref_params)) <= 1e-9
    assert np.linalg.norm(center_of_mass(recentered, alpha)) <= 1e-8
    # the seed is the smooth map's Jacobian: it misses the resampled map's
    # by the discretization alone (at most 1.5 % here), where the conformal
    # fields' term alone misses it by 7-22 %
    jac = fd_centering_jacobian(f, alpha, np.zeros(3))
    seed = conformal_field_jacobian(f, alpha)
    assert np.linalg.norm(seed - jac) <= 0.02 * np.linalg.norm(jac)


def test_recenter_stall_raises_with_residual(mesh3):
    f = dilated_equator_map(mesh3, 4, 0.8, axis="z")
    start = float(np.linalg.norm(center_of_mass(f, 1.05)))
    with pytest.raises(ConvergenceError, match="did not reach tolerance") as err:
        fit_centering_dilation(f, 1.05, max_iter=1)
    assert err.value.residual is not None and 1e-8 < err.value.residual < start
    # a tolerance below rounding ends in a step that cannot lower the residual
    with pytest.raises(ConvergenceError, match="stalled") as err:
        fit_centering_dilation(f, 1.05, tol=0.0)
    assert err.value.residual is not None and err.value.residual < 1e-8


def test_recenter_already_centered(mesh3):
    f = equator_map(mesh3, 4)
    recentered, params = fit_centering_dilation(f, 1.1)
    assert recentered is f
    assert np.all(params == 0.0)


def test_recenter_constant_rejected(mesh3):
    with pytest.raises(PreconditionError):
        recenter(constant_map(mesh3, 4), 1.1)


# -- domain dilations and sampling ---------------------------------------------------


@pytest.mark.parametrize("axis", ["x", "y", "z", (0.6, -0.48, 0.64)])
def test_dilated_equator_map_normalizes_the_padded_rows(mesh3, axis):
    # the dilated points are normalized before padding: trailing zeros add
    # nothing to a row's norm, so the bits are those of the padded rows
    axis = axis if isinstance(axis, str) else np.array(axis)
    rows = np.zeros((mesh3.vertex_count, 5))
    rows[:, :3] = dilate_points(mesh3.vertices, 0.7, axis=axis)
    assert np.array_equal(dilated_equator_map(mesh3, 4, 0.7, axis=axis).values,
                          normalize_rows(rows))


def test_dilate_points_fixes_poles():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    moved = dilate_points(pts, 2.0, axis="z")
    assert np.allclose(moved, pts)


@pytest.mark.parametrize("axis", [np.zeros(3), np.array([0.0, np.nan, 1.0])])
def test_dilate_points_refuses_an_axis_without_direction(axis):
    with pytest.raises(PreconditionError, match="dilation axis"):
        dilate_points(np.array([[1.0, 0.0, 0.0]]), 0.3, axis=axis)


def test_dilate_points_group_law(rng):
    pts = normalize_rows(rng.standard_normal((50, 3)))
    a = dilate_points(dilate_points(pts, 0.4), 0.3)
    b = dilate_points(pts, 0.7)
    assert np.allclose(a, b, atol=1e-12)


def test_sample_map_at_vertices_is_identity(mesh3):
    f = dilated_equator_map(mesh3, 4, 0.2)
    assert np.allclose(sample_map(f, mesh3.vertices), f.values, atol=1e-12)


def interpolate_at(sphere_map, face_idx, b):
    """sample_map's interpolation at a given location: faces and barycentrics."""
    b = np.clip(b, 0.0, None)
    b /= b.sum(axis=1)[:, None]
    values = sphere_map.values[sphere_map.mesh.faces[face_idx]]
    return normalize_rows(np.einsum("qi,qic->qc", b, values))


def test_sample_map_refuses_a_mesh_that_is_no_icosphere():
    # a northern cap of faces has no subdivision hierarchy to locate points in
    mesh = build_icosphere(3)
    cap = mesh.faces[mesh.face_centroids[:, 2] > 0.5]
    cap_mesh = SphereMesh(vertices=mesh.vertices, faces=cap, subdivision_level=3)
    f = random_map(cap_mesh, 4, np.random.default_rng(0))
    pts = normalize_rows(np.random.default_rng(1).standard_normal((200, 3)))
    with pytest.raises(PreconditionError, match="not a subdivided icosahedron"):
        sample_map(f, pts)


def test_sample_map_raises_where_the_located_face_misses_the_point():
    # the same faces with their corners turned: a valid mesh, but the
    # coarser levels read off it are wrong, so the walk lands in faces that
    # do not hold the points, and sample_map refuses to interpolate
    mesh = build_icosphere(2)
    turned = SphereMesh(vertices=mesh.vertices, faces=mesh.faces[:, [1, 2, 0]],
                        subdivision_level=2)
    validate_mesh(turned)
    f = random_map(turned, 4, np.random.default_rng(1))
    with pytest.raises(InvariantViolationError, match="does not hold"):
        sample_map(f, mesh.vertices)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
def test_sample_map_matches_batched_location(level):
    # away from edges the kd-tree and the hierarchy find the same face, and
    # the values are equal bit for bit; a point within 1e-10 of an edge lies
    # in two faces, whose interpolants differ by the rounding of their
    # barycentric solves, amplified where a random map's interpolant is short
    # (down to norm 0.04 at level-6 edge midpoints)
    mesh = build_icosphere(level)
    rng = np.random.default_rng(level)
    f = random_map(mesh, 4, rng)
    ends = mesh.vertices[sphere_mesh._edge_table(mesh.faces, mesh.vertex_count)[0]]
    point_sets = [mesh.vertices, -mesh.vertices, normalize_rows(rng.standard_normal((5000, 3))),
                  normalize_rows(ends[:, 0] + ends[:, 1])]
    point_sets += [apply_axis_dilations(mesh.vertices, np.array(p))
                   for p in ((1e-6, 0.0, 0.0), (1e-3, 2e-3, -1e-3), (0.3, 0.2, -0.4))]
    for pts in point_sets:
        clear, location = assert_located_like_kd_tree(mesh, pts, mesh.locate(pts))
        values, reference = sample_map(f, pts), interpolate_at(f, *location)
        assert np.array_equal(values[clear], reference[clear])
        assert np.max(np.abs(values - reference)) <= 1e-13


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
