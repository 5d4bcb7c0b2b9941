import json
import math

import numpy as np
import pytest

from spherelab import curvature
from spherelab.curvature import (
    SAMPLE_BLOCK,
    ComplexPlane,
    CurvatureOperator,
    associated_real_plane,
    check_curvature_symmetries,
    complex_sectional_curvature,
    constant_curvature_operator,
    curvature_condition_d,
    pinch_bounds,
    pinched_operator,
    product_spheres_operator,
    project_to_curvature_symmetries,
    random_orthonormal_frame,
    real_sectional_curvature,
    verify_pinch_implication,
)
from spherelab.errors import PreconditionError

E4 = np.eye(4)


def dense_contraction_oracle(op, z, w):
    """Independent evaluation through an explicit wedge basis."""
    n = op.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    wedge = np.array([z[i] * w[j] - z[j] * w[i] for i, j in pairs])
    big = np.empty((len(pairs), len(pairs)))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            big[a, b] = op.R[i, j, k, l]
    num = wedge @ big @ np.conj(wedge)
    den = np.vdot(z, z) * np.vdot(w, w) - np.vdot(w, z) * np.vdot(z, w)
    return float(num.real) / float(den.real)


def test_constant_curvature_value(rng):
    op = constant_curvature_operator(5, 1.0)
    plane = ComplexPlane(rng.standard_normal(5) + 1j * rng.standard_normal(5),
                         rng.standard_normal(5) + 1j * rng.standard_normal(5))
    assert complex_sectional_curvature(op, plane) == pytest.approx(1.0, abs=1e-12)


def test_constant_curvature_scales(rng):
    op = constant_curvature_operator(4, -0.7)
    plane = ComplexPlane(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                         rng.standard_normal(4) + 1j * rng.standard_normal(4))
    assert complex_sectional_curvature(op, plane) == pytest.approx(-0.7, abs=1e-12)


def test_product_spheres_isotropic_plane_matches_oracle():
    op = product_spheres_operator()
    z = E4[0] + 1j * E4[1]
    w = E4[2] + 1j * E4[3]
    value = complex_sectional_curvature(op, ComplexPlane(z, w))
    assert value == pytest.approx(dense_contraction_oracle(op, z, w), abs=1e-12)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_oracle_agreement_random_operator(rng):
    op = pinched_operator(5, 0.5, rng)
    for _ in range(5):
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        plane = ComplexPlane(z, w)
        assert complex_sectional_curvature(op, plane) == pytest.approx(
            dense_contraction_oracle(op, z, w), abs=1e-10
        )


def test_degenerate_plane_rejected():
    op = constant_curvature_operator(4, 1.0)
    with pytest.raises(PreconditionError):
        ComplexPlane(E4[0] + 0j, 2.0 * E4[0] + 0j)
    # z, w independent over C but with vanishing Hermitian wedge do not occur;
    # a plane built from nearly parallel vectors trips the Gram check instead
    with pytest.raises(PreconditionError):
        complex_sectional_curvature(
            op, ComplexPlane(E4[0] + 1e-14j * E4[1], E4[0] * (1 + 1e-13) + 0j)
        )


def test_associated_real_plane():
    x, y = associated_real_plane(E4[0] + 1j * E4[1])
    assert np.allclose(x, E4[0]) and np.allclose(y, E4[1])
    theta = 0.6
    x, y = associated_real_plane((E4[0] + 1j * E4[1]) * np.exp(1j * theta))
    # a phase rotates the frame inside the same plane
    assert abs(np.dot(x, y)) < 1e-12
    assert abs(np.linalg.norm(x) - np.linalg.norm(y)) < 1e-12
    assert np.allclose(np.cross(x[:3], y[:3])[2], np.cross(E4[0][:3], E4[1][:3])[2])
    with pytest.raises(PreconditionError):
        associated_real_plane(E4[0] + 1j * E4[0])


def test_pinch_bounds_values():
    assert pinch_bounds(0.5) == pytest.approx((1.0 / 3.0, 7.0 / 6.0))
    assert pinch_bounds(1.0) == pytest.approx((1.0, 1.0))
    assert pinch_bounds(0.25) == pytest.approx((0.0, 1.25))
    with pytest.raises(PreconditionError):
        pinch_bounds(0.0)
    with pytest.raises(PreconditionError):
        pinch_bounds(1.5)


def test_pinch_bounds_monotone():
    deltas = np.linspace(0.05, 1.0, 20)
    lowers, uppers = zip(*(pinch_bounds(d) for d in deltas))
    assert all(a < b + 1e-15 for a, b in zip(lowers, lowers[1:]))
    assert all(a > b - 1e-15 for a, b in zip(uppers, uppers[1:]))


def test_plane_invariance_under_basis_change(rng):
    op = pinched_operator(4, 0.6, rng)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    k0 = complex_sectional_curvature(op, ComplexPlane(z, w))
    for _ in range(5):
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if abs(a * d - b * c) < 1e-3:
            continue
        k1 = complex_sectional_curvature(
            op, ComplexPlane(a * z + b * w, c * z + d * w)
        )
        assert k1 == pytest.approx(k0, abs=1e-9)


def test_real_plane_reduces_to_sectional(rng):
    op = pinched_operator(5, 0.5, rng)
    u = rng.standard_normal(5)
    v = rng.standard_normal(5)
    k_complex = complex_sectional_curvature(op, ComplexPlane(u + 0j, v + 0j))
    assert k_complex == pytest.approx(real_sectional_curvature(op, u, v), abs=1e-10)


def test_verify_pinch_constant_curvature():
    rep = verify_pinch_implication(constant_curvature_operator(4, 1.0), 0.9,
                                   2000, rng_seed=7)
    assert rep.hypothesis_satisfied and rep.violations == 0
    rep = verify_pinch_implication(constant_curvature_operator(4, 0.6), 0.5,
                                   2000, rng_seed=7)
    assert rep.hypothesis_satisfied and rep.violations == 0
    assert rep.worst_margin > 0


def test_verify_pinch_random_operators():
    for seed in (3, 4):
        op = pinched_operator(5, 0.5, np.random.default_rng(seed))
        rep = verify_pinch_implication(op, 0.5, 5000, rng_seed=seed)
        assert rep.hypothesis_satisfied
        assert rep.violations == 0  # any violation is an algebra bug


def test_verify_pinch_hypothesis_gate():
    # curvature 0.3 lies below the delta = 0.5 band: pretest must trip
    rep = verify_pinch_implication(constant_curvature_operator(4, 0.3), 0.5,
                                   1000, rng_seed=1)
    assert not rep.hypothesis_satisfied
    assert rep.samples == 0


def test_verify_pinch_needs_dimension_four():
    op = CurvatureOperator(3, constant_curvature_operator(3, 1.0).R)
    with pytest.raises(PreconditionError):
        verify_pinch_implication(op, 0.5, 10, rng_seed=0)


def test_curvature_condition_d():
    unit = constant_curvature_operator(4, 1.0)
    assert curvature_condition_d(unit, 2, 500, rng_seed=5)
    assert not curvature_condition_d(unit, 1, 500, rng_seed=5)


def test_curvature_condition_product_grid_oracle():
    op = product_spheres_operator()
    sampled = curvature_condition_d(op, 3, 500, rng_seed=5)

    # deterministic grid oracle over rotations of the standard frame
    def grid_oracle():
        thetas = np.linspace(0.0, np.pi / 2, 5)
        for t1 in thetas:
            for t2 in thetas:
                c1, s1 = np.cos(t1), np.sin(t1)
                c2, s2 = np.cos(t2), np.sin(t2)
                frame = np.array(
                    [
                        [c1, 0, s1, 0],
                        [0, c2, 0, s2],
                        [-s1, 0, c1, 0],
                        [0, -s2, 0, c2],
                    ]
                )
                v = frame[0] + 1j * frame[1]
                w = frame[2] + 1j * frame[3]
                ki = complex_sectional_curvature(op, ComplexPlane(v, w))
                x, y = associated_real_plane(v)
                kr = real_sectional_curvature(op, x, y)
                if not (ki > kr / 3 and kr > 0):
                    return False
        return True

    assert sampled == grid_oracle() == False  # noqa: E712


def test_symmetry_projection(rng):
    raw = rng.standard_normal((4,) * 4)

    projected = project_to_curvature_symmetries(raw)
    check_curvature_symmetries(projected, tol=1e-10)


# -- batched sampling against the per-plane API -----------------------------------


def scalar_pinch_loop(op, delta, sample_count, seed, pretest_count=2000):
    """verify_pinch_implication as one loop over the per-plane API, same draws.

    Returns (violations, worst margin, hypothesis note).
    """
    rng = np.random.default_rng(seed)
    slack = 1e-9
    for _ in range(pretest_count):
        u, v = random_orthonormal_frame(op.n, 2, rng)
        kr = real_sectional_curvature(op, u, v)
        if not (delta - slack < kr <= 1.0 + slack):
            return 0, math.nan, f"real sectional curvature {kr} outside (delta, 1]"
    berger = (2.0 / 3.0) * (1.0 - delta)
    for _ in range(pretest_count):
        e = random_orthonormal_frame(op.n, 4, rng)
        mixed = np.einsum("ijkl,i,j,k,l", op.R, e[0], e[1], e[3], e[2])
        if abs(mixed) > berger + slack:
            return 0, math.nan, f"mixed term {mixed} violates the Berger bound {berger}"
    lower, upper = pinch_bounds(delta)
    violations, worst = 0, math.inf
    ab_rng = np.random.default_rng([seed, 1])
    for _ in range(sample_count):
        e = random_orthonormal_frame(op.n, 4, rng)
        a, b = np.exp(ab_rng.uniform(-2.0, 2.0, size=2))
        plane = ComplexPlane(e[0] + 1j * e[1], a * e[2] + 1j * b * e[3])
        ki = complex_sectional_curvature(op, plane)
        margin = min(ki - lower, upper - ki)
        worst = min(worst, margin)
        violations += margin < -slack
    return violations, worst, ""


def scalar_condition_d(op, d, sample_count, seed):
    """curvature_condition_d as a loop over the per-plane API, same draws.

    Returns the index of the first failing sample, or None.
    """
    rng = np.random.default_rng(seed)
    for s in range(sample_count):
        e = random_orthonormal_frame(op.n, 4, rng)
        v = e[0] + 1j * e[1]
        ki = complex_sectional_curvature(op, ComplexPlane(v, e[2] + 1j * e[3]))
        kr = real_sectional_curvature(op, *associated_real_plane(v))
        if not (ki > kr / d and kr > 0):
            return s
    return None


@pytest.mark.parametrize("seed", [3, 11])
def test_verify_pinch_matches_scalar_loop(seed):
    op = pinched_operator(5, 0.5, np.random.default_rng(seed))
    pretests = SAMPLE_BLOCK + 3  # two pretest blocks, the second partial
    for count in (1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                  2 * SAMPLE_BLOCK + 7):
        rep = verify_pinch_implication(op, 0.5, count, seed, pretest_count=pretests)
        violations, worst, _ = scalar_pinch_loop(op, 0.5, count, seed, pretests)
        assert rep.hypothesis_satisfied and rep.samples == count
        assert rep.violations == violations
        assert rep.worst_margin == pytest.approx(worst, rel=1e-12, abs=0)


def test_verify_pinch_report_does_not_depend_on_block_size(monkeypatch):
    op = pinched_operator(5, 0.5, np.random.default_rng(4))
    count = 3 * SAMPLE_BLOCK + 11
    rep = verify_pinch_implication(op, 0.5, count, 4, pretest_count=300)
    monkeypatch.setattr(curvature, "SAMPLE_BLOCK", 97)
    assert verify_pinch_implication(op, 0.5, count, 4, pretest_count=300) == rep


def test_verify_pinch_counts_violations_like_scalar_loop():
    # a band for delta = 0.8 is too narrow for an operator pinched at 0.5:
    # some samples violate it (the pretests would reject the operator)
    op = pinched_operator(4, 0.5, np.random.default_rng(2))
    count = SAMPLE_BLOCK + 9
    rep = verify_pinch_implication(op, 0.8, count, 2, pretest_count=0)
    violations, worst, _ = scalar_pinch_loop(op, 0.8, count, 2, pretest_count=0)
    assert 0 < rep.violations == violations < count
    assert rep.worst_margin == pytest.approx(worst, rel=1e-12, abs=0)


def test_verify_pinch_gate_note_matches_scalar_loop():
    op = constant_curvature_operator(4, 0.3)
    rep = verify_pinch_implication(op, 0.5, 1000, rng_seed=1)
    assert rep.hypothesis_note == scalar_pinch_loop(op, 0.5, 1000, 1)[2]
    assert rep.hypothesis_note.startswith("real sectional curvature 0.3")


def test_verify_pinch_berger_note_matches_scalar_loop():
    # one real-curvature pretest misses this operator's spread; the mixed
    # term then exceeds the Berger bound on the first 4-frame
    noise = project_to_curvature_symmetries(
        np.random.default_rng(8).standard_normal((5,) * 4))
    op = CurvatureOperator(5, constant_curvature_operator(5, 0.8).R + 0.4 * noise)
    rep = verify_pinch_implication(op, 0.7, 10, rng_seed=7, pretest_count=1)
    assert not rep.hypothesis_satisfied and rep.samples == 0
    assert rep.hypothesis_note.startswith("mixed term")
    assert rep.hypothesis_note == scalar_pinch_loop(op, 0.7, 10, 7, 1)[2]


def test_verify_pinch_rejects_empty_sample():
    with pytest.raises(PreconditionError):
        verify_pinch_implication(constant_curvature_operator(4, 1.0), 0.9, 0, 1)


def test_verify_pinch_report_is_plain_json():
    rep = verify_pinch_implication(constant_curvature_operator(4, 1.0), 0.9, 10, 1)
    assert type(rep.worst_margin) is float
    assert json.loads(json.dumps(rep.to_dict(), allow_nan=False)) == rep.to_dict()


def test_verify_pinch_failed_hypothesis_report_is_plain_json():
    rep = verify_pinch_implication(constant_curvature_operator(4, 0.3), 0.5, 10, 1)
    assert not rep.hypothesis_satisfied and math.isnan(rep.worst_margin)
    doc = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert doc["worst_margin"] is None
    assert doc["hypothesis_note"].startswith("real sectional curvature")


def test_verify_pinch_degenerate_plane_in_batch_raises(monkeypatch):
    frames = curvature._frames

    def one_zero_frame(gauss):
        e = frames(gauss)
        e[len(e) // 2] = 0.0  # z = w = 0 for one sample mid-block
        return e

    monkeypatch.setattr(curvature, "_frames", one_zero_frame)
    with pytest.raises(PreconditionError, match="dependent"):
        verify_pinch_implication(constant_curvature_operator(4, 1.0), 0.9,
                                 SAMPLE_BLOCK + 1, 1, pretest_count=0)


def test_verify_pinch_non_real_quotient_raises():
    # an array without the pair symmetry gives complex quotients; bypass the
    # constructor's symmetry check to feed one to the sampler
    op = constant_curvature_operator(4, 1.0)
    R = op.R.copy()
    R[0, 1, 2, 3] += 0.5
    object.__setattr__(op, "R", R)
    with pytest.raises(PreconditionError, match="not numerically real"):
        scalar_pinch_loop(op, 0.9, 50, 1, pretest_count=0)
    with pytest.raises(PreconditionError, match="not numerically real"):
        verify_pinch_implication(op, 0.9, 50, 1, pretest_count=0)


@pytest.mark.parametrize("c, d, seed, first", [
    (2.3, 2, 6, 102), (2.3, 2, 5, 1408), (2.3, 2, 7, 2377),
    (1.3, 4, 6, 1070),  # K_i > K_r / d holds there, but K_r < 0
])
def test_curvature_condition_d_fails_where_scalar_loop_fails(c, d, seed, first):
    # a space form plus a fixed random curvature tensor: the condition
    # fails on about one sampled plane in a thousand
    noise = project_to_curvature_symmetries(
        np.random.default_rng(8).standard_normal((5,) * 4))
    op = CurvatureOperator(5, constant_curvature_operator(5, c).R + noise)
    limit = 3000
    assert scalar_condition_d(op, d, limit, seed) == first
    # the sampler returns False on a prefix iff it holds the first failure
    lo, hi = 1, limit
    while lo < hi:
        mid = (lo + hi) // 2
        if curvature_condition_d(op, d, mid, seed):
            lo = mid + 1
        else:
            hi = mid
    assert lo - 1 == first


@pytest.mark.parametrize("d", [1, 2, 3])
def test_curvature_condition_d_matches_scalar_loop(d):
    ops = (constant_curvature_operator(4, 1.0), product_spheres_operator(),
           pinched_operator(5, 0.5, np.random.default_rng(1)))
    for op in ops:
        for seed in (5, 6):
            count = SAMPLE_BLOCK + 5
            assert curvature_condition_d(op, d, count, seed) == (
                scalar_condition_d(op, d, count, seed) is None)
