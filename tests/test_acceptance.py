"""Acceptance suite: every quantitative exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with  pytest tests/test_acceptance.py -v -s
"""

import math
from math import comb

import numpy as np
import pytest

from conftest import smooth_weight
from spherelab import build_icosphere
from spherelab.covers import (
    EquatorTargetMap,
    RationalMap,
    compose_cover,
    induced_metric_lambda1,
    normal_index_count,
    pullback_laplace_eigenvalues,
)
from spherelab.curvature import (
    ComplexPlane,
    complex_sectional_curvature,
    constant_curvature_operator,
    pinched_operator,
    random_orthonormal_frame,
    verify_pinch_implication,
)
from spherelab.energy import (
    SphereMap,
    alpha_energy,
    alpha_energy_gradient,
    axisymmetric_alpha_energy,
    axisymmetric_divergence_minorant,
    center_of_mass,
    dilated_equator_map,
    dirichlet_energy,
    equator_map,
    mean_density_area_one,
    normalize_rows,
    perturbed_constant_map,
    psi_alpha,
    random_map,
    random_tangent_field,
    recenter,
)
from spherelab.errors import InconsistentComplexError
from spherelab.flow import FlowConfig, descend, detect_concentration
from spherelab.spectrum import (
    assemble_second_variation,
    calibrate_tau,
    constrained_hessian,
    cutoff_dirichlet_energy,
    expected_equator_counts,
    morse_index_nullity,
    scaling_invariance_check,
)
from spherelab.topology import (
    Generator,
    build_complex,
    desk_model,
    gaussian_binomial,
    homology_z2,
    predicted_minimum_counts,
    schubert_cell_counts,
    split_by_action,
)

FOUR_PI = 4.0 * math.pi


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_01_schubert_census():
    ok = True
    for N in range(5, 10):
        census = schubert_cell_counts(3, N)
        ok &= census.counts == gaussian_binomial(3, N)
        ok &= sum(census.counts) == comb(N, 3)
        ok &= census.counts == tuple(reversed(census.counts))
    assert report(1, ok, "census G3(R^N) N=5..9 matches the q-binomial oracle, "
                         "totals C(N,3), palindromic")


@pytest.mark.parametrize("n", [4, 5, 6])
def test_criterion_02_totally_geodesic_index(n):
    mesh = build_icosphere(4)
    tau = calibrate_tau(mesh, n)
    expected_index, expected_nullity = expected_equator_counts(n)
    pencil = assemble_second_variation(equator_map(mesh, n), 1.0)
    rep = morse_index_nullity(pencil, expected_index + expected_nullity + 8, tau)
    lead = float(rep.eigenvalues[0])
    ok = (rep.converged
          and rep.index == expected_index
          and rep.nullity == expected_nullity       # 3(n-2) tilts + 6 conformal
          and abs(lead + 2.0) <= 0.05 * 2.0)
    assert report(2, ok, f"n={n}: index={rep.index} (want {expected_index}), "
                         f"nullity={rep.nullity} (want {expected_nullity}), "
                         f"leading eigenvalue {lead:.4f} within 5% of -2")


def test_criterion_03_double_cover_bounds():
    mesh = build_icosphere(4)
    h = EquatorTargetMap(4)
    f2 = compose_cover(h, RationalMap.power(2), mesh)
    res2 = induced_metric_lambda1(f2)
    energy2 = dirichlet_energy(f2)
    normal_index = normal_index_count(pullback_laplace_eigenvalues(f2, k=16)[0], 4)
    f3 = compose_cover(h, RationalMap.power(3), mesh)
    res3 = induced_metric_lambda1(f3)
    ok = (res2.lambda1 <= 1.05
          and normal_index >= 4
          and abs(energy2 - 8 * math.pi) <= 0.01 * 8 * math.pi
          and res3.lambda1 <= 2.0 / 3.0 + 0.05)
    assert report(3, ok, f"z^2: lambda1={res2.lambda1:.4f}<=1.05, "
                         f"normal index={normal_index}>=4, "
                         f"E={energy2:.4f}=8pi within 1%; "
                         f"z^3: lambda1={res3.lambda1:.4f}<=2/3+5%")


def test_criterion_04_cutoff_energy():
    ok = True
    details = []
    for eps in (0.2, 0.1, 0.05):
        got = cutoff_dirichlet_energy(eps)
        want = -2.0 * math.pi / math.log(eps)
        ok &= abs(got - want) <= 0.005 * want
        details.append(f"eps={eps}: {got:.5f} vs {want:.5f}")
    assert report(4, ok, "; ".join(details))


def test_criterion_05_center_of_mass():
    mesh = build_icosphere(3)
    alpha = 1.05
    ok = True
    details = []
    for seed in (4, 11):
        rng = np.random.default_rng(seed)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        start = dilated_equator_map(mesh, 4, 0.4, axis=axis)
        record = descend(start, FlowConfig(alpha=alpha, grad_tol=1e-3,
                                           max_iterations=4000))
        assert record.converged
        centered = recenter(record.map, alpha)
        com = float(np.linalg.norm(center_of_mass(centered, alpha)))
        scale = psi_alpha(mean_density_area_one(centered), alpha)
        ok &= com <= 1e-4 * scale
        details.append(f"seed {seed}: |com|={com:.2e} <= 1e-4*{scale:.3f}")
    assert report(5, ok, "; ".join(details))


def test_criterion_06a_psi_limit_sup():
    # For alpha > 1, d/dt (psi_alpha - psi_1) = t/(1+t) (alpha (1+t)^(alpha-1) - 1) > 0,
    # so the sup on [0, T] sits at t = T.  There psi_alpha - psi_1 =
    # eps D1(T) + O(eps^2) with eps = alpha - 1 and D1(t) = t log(1+t) - log(1+t)^2 / 2;
    # the eps^2 term (about 1049 eps^2 at T = 100) is positive, a relative 2.3e-4.
    T, eps = 100.0, 1e-4
    ts = np.linspace(0.0, T, 4001)
    gap = np.abs(psi_alpha(ts, 1.0 + eps) - psi_alpha(ts, 1.0))
    sup = float(np.max(gap))
    oracle = eps * (T * math.log1p(T) - 0.5 * math.log1p(T) ** 2)
    ok = (int(np.argmax(gap)) == len(ts) - 1 and sup - oracle >= 0.0
          and sup == pytest.approx(oracle, rel=1e-3))
    report("6a", ok, f"sup |psi_1.0001 - psi_1| on [0,100] = {sup:.8f}, "
                     f"first-order oracle eps*D1(100) = {oracle:.8f}")
    assert ok, ("sup |psi_1.0001 - psi_1| = %.8f does not match the first-order "
                "oracle %.8f at t = 100 to relative 1e-3; see README" % (sup, oracle))


def test_criterion_06b_psi_vanishes_at_zero():
    ok = all(psi_alpha(0.0, a) == 0.0 for a in (1.0, 1.0001, 1.1, 2.0))
    assert report("6b", ok, "psi_alpha(0) == 0 exactly for "
                            "alpha in {1, 1.0001, 1.1, 2}")


def test_criterion_06c_psi_monotone():
    ts = np.linspace(0.0, 100.0, 1000)
    ok = True
    for alpha in (1.0, 1.0001, 1.1, 2.0):
        ok &= bool(np.all(np.diff(psi_alpha(ts, alpha)) > 0))
    assert report("6c", ok, "psi_alpha strictly increasing on a 1e3-point grid")


def test_criterion_07_consistency_suite():
    mesh = build_icosphere(2)
    alpha = 1.2
    rng = np.random.default_rng(7)
    worst_grad = 0.0
    worst_hess = 0.0
    for _ in range(10):
        f = random_map(mesh, 4, rng)
        direction = random_tangent_field(f, rng).values
        direction /= np.linalg.norm(direction)
        grad = alpha_energy_gradient(f, alpha).values
        analytic = float(np.sum(grad * direction))
        h = 1e-5
        plus = alpha_energy(SphereMap(mesh, 4, normalize_rows(f.values + h * direction)), alpha)
        minus = alpha_energy(SphereMap(mesh, 4, normalize_rows(f.values - h * direction)), alpha)
        fd = (plus - minus) / (2 * h)
        worst_grad = max(worst_grad, abs(analytic - fd) / max(1.0, abs(fd)))

        H = constrained_hessian(f, alpha)
        hv = (H @ direction.reshape(-1)).reshape(direction.shape)
        hv -= np.sum(hv * f.values, axis=1)[:, None] * f.values

        def grad_at(vals):
            g = alpha_energy_gradient(SphereMap(mesh, 4, normalize_rows(vals)),
                                      alpha)
            return g.values

        fd_h = (grad_at(f.values + h * direction)
                - grad_at(f.values - h * direction)) / (2 * h)
        fd_h -= np.sum(fd_h * f.values, axis=1)[:, None] * f.values
        worst_hess = max(worst_hess,
                         float(np.linalg.norm(hv - fd_h) / np.linalg.norm(fd_h)))
    monotone = True
    for seed, start in ((3, "const"), (5, "equator")):
        gen = np.random.default_rng(seed)
        if start == "const":
            f0 = perturbed_constant_map(mesh, 4, gen, eps=0.2)
        else:
            axis = gen.standard_normal(3)
            axis /= np.linalg.norm(axis)
            f0 = dilated_equator_map(mesh, 4, 0.5, axis=axis)
        record = descend(f0, FlowConfig(alpha=alpha, grad_tol=1e-3,
                                        max_iterations=1000))
        monotone &= bool(np.all(np.diff(record.energy_log) < 0))
    ok = worst_grad <= 1e-5 and worst_hess <= 1e-4 and monotone
    assert report(7, ok, f"gradient FD worst {worst_grad:.2e} <= 1e-5, "
                         f"Hessian FD worst {worst_hess:.2e} <= 1e-4, "
                         f"energy strictly decreasing: {monotone}")


def test_criterion_08_bubble_quantum():
    mesh = build_icosphere(8)
    f = dilated_equator_map(mesh, 4, 5.0, axis="z")
    detections = detect_concentration(f, 1.0, 0.2)
    local = detections[0]["local_energy"] if detections else 0.0
    ok = len(detections) == 1 and local >= 0.9 * FOUR_PI
    assert report(8, ok, f"{len(detections)} detection(s), local energy "
                         f"{local:.4f} >= 0.9 * 4pi = {0.9 * FOUR_PI:.4f}")


def test_criterion_09_morse_witten_engine():
    # d^2 = 0 is enforced
    try:
        build_complex([Generator("a", 2), Generator("b", 1), Generator("c", 0)],
                      {("a", "b"): 1, ("b", "c"): 1})
        enforced = False
    except InconsistentComplexError:
        enforced = True
    torus = build_complex(
        [Generator("min", 0), Generator("s1", 1), Generator("s2", 1),
         Generator("max", 2)],
        {("s1", "min"): 2, ("s2", "min"): 2, ("max", "s1"): 2, ("max", "s2"): 2},
    )
    torus_ok = homology_z2(torus) == {0: 1, 1: 2, 2: 1}
    desk_ok = True
    split_ok = True
    for n in range(4, 9):
        betti = homology_z2(desk_model(n))
        census = schubert_cell_counts(3, n + 1)
        desk_ok &= all(betti.get(k, 0) == census[k - n + 2]
                       for k in range(n - 2, 2 * n - 4))
        complex_b = desk_model(n, with_b_generators=True)
        _, _, split_report = split_by_action(complex_b, n=n)
        split_ok &= all(row["satisfied"] for row in split_report.values())
        split_ok &= all(
            complex_b.generator_count(lam) >= bound
            for lam, bound in predicted_minimum_counts(n).items()
        )
    ok = enforced and torus_ok and desk_ok and split_ok
    assert report(9, ok, f"d^2 enforced: {enforced}; torus (1,2,1): {torus_ok}; "
                         f"desk models n=4..8: {desk_ok}; split counts: {split_ok}")


def test_criterion_10_pinching():
    op = pinched_operator(5, 0.5, np.random.default_rng(42))
    rep = verify_pinch_implication(op, 0.5, 100000, rng_seed=42)
    band_ok = rep.hypothesis_satisfied and rep.violations == 0
    # constant-curvature identities are exact to 1e-10 on sampled planes
    rng = np.random.default_rng(1)
    exact_ok = True
    for c in (1.0, 0.6):
        op_c = constant_curvature_operator(4, c)
        for _ in range(200):
            e = random_orthonormal_frame(4, 4, rng)
            a, b = np.exp(rng.uniform(-1, 1, size=2))
            plane = ComplexPlane(e[0] + 1j * e[1], a * e[2] + 1j * b * e[3])
            exact_ok &= abs(complex_sectional_curvature(op_c, plane) - c) <= 1e-10
    ok = band_ok and exact_ok
    assert report(10, ok, f"1e5 samples at delta=0.5: {rep.violations} violations, "
                          f"worst margin {rep.worst_margin:.4f}; space-form "
                          f"identities exact: {exact_ok}")


def test_criterion_11_axisymmetric_divergence():
    alpha = 1.2
    values = {}
    minorants = {}
    for U in (5.0, 10.0, 20.0, 40.0):
        values[U] = axisymmetric_alpha_energy(lambda u: 1.0, alpha, U)
        minorants[U] = axisymmetric_divergence_minorant(1.0, alpha, U)
    increasing = values[5.0] < values[10.0] < values[20.0] < values[40.0]
    dominated = all(values[U] >= minorants[U] for U in values)
    # the minorant grows like exp(2 (alpha - 1) U): the tail escapes any
    # bound set by the earlier members of the sequence
    escapes = minorants[40.0] > 100.0 * values[10.0]
    ok = increasing and dominated and escapes
    assert report(11, ok, f"E(5..40)=({values[5.0]:.3g}, {values[10.0]:.3g}, "
                          f"{values[20.0]:.3g}, {values[40.0]:.3g}) strictly "
                          f"increasing, each >= its minorant, tail escapes")


def test_criterion_12_weighted_pencil_refinement():
    discrepancies = {}
    for level in (3, 4, 5):
        mesh = build_icosphere(level)
        discrepancies[level] = scaling_invariance_check(mesh, 2.0,
                                                        smooth_weight(mesh))
    ok = (discrepancies[3] > discrepancies[4] > discrepancies[5]
          and discrepancies[5] <= 0.05)
    assert report(12, ok, f"weighted-pencil discrepancy "
                          f"{discrepancies[3]:.5f} > {discrepancies[4]:.5f} > "
                          f"{discrepancies[5]:.5f} <= 5%")
