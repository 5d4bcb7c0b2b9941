import cmath
import math
import tracemalloc

import numpy as np
import pytest
import sympy
from scipy.sparse.linalg import eigsh

from conftest import assert_spectra_close
from spherelab import build_icosphere
from spherelab import covers as covers_mod
from spherelab.covers import (
    INF,
    EquatorTargetMap,
    RationalMap,
    branch_points,
    chordal_distance,
    compose_cover,
    evaluate_many,
    induced_metric_lambda1,
    inverse_stereographic,
    normal_index_count,
    pullback_laplace_eigenvalues,
    stereographic,
)
from spherelab.energy import constant_map, dirichlet_energy, equator_map
from spherelab.errors import (
    DegenerateElementsError,
    InvariantViolationError,
    PreconditionError,
)
from spherelab.sphere_mesh import MASS_LOCAL, assemble_faces, assemble_pencil

FOUR_PI = 4.0 * math.pi


def random_degree2_map(rng, min_separation=0.1):
    while True:
        vals = rng.standard_normal(8)
        zeros = (complex(vals[0], vals[1]), complex(vals[2], vals[3]))
        poles = (complex(vals[4], vals[5]), complex(vals[6], vals[7]))
        try:
            g = RationalMap(zeros=zeros, poles=poles, scale=1.0 + 0.5j)
        except PreconditionError:
            continue
        bps = branch_points(g)
        if len(bps) == 2 and chordal_distance(bps[0][0], bps[1][0]) >= min_separation:
            return g


# -- evaluation ---------------------------------------------------------------------


def value_at(g, z):
    """g at one extended-complex point: a one-point evaluate_many call."""
    return complex(evaluate_many(g, [z])[0])


def test_evaluate_square():
    g = RationalMap.power(2)
    assert value_at(g, 2.0) == pytest.approx(4.0)
    assert cmath.isinf(value_at(g, INF))


def test_evaluate_mobius_example():
    g = RationalMap(zeros=(1.0,), poles=(-1.0,))
    assert value_at(g, 1j) == pytest.approx(1j)


def test_evaluate_at_pole_and_zero():
    g = RationalMap(zeros=(0.5,), poles=(2.0,))
    assert cmath.isinf(value_at(g, 2.0))
    assert value_at(g, 0.5) == 0.0
    assert value_at(g, INF) == pytest.approx(1.0)  # equal degrees: scale limit


def evaluation_points(mesh):
    """Stereographic images of the mesh vertices plus 0, inf and the poles 2, -1."""
    z = stereographic(mesh.vertices)
    assert np.count_nonzero(np.isinf(z)) == 1  # vertex 0 is the north pole
    return np.concatenate([z, [0.0, INF, 2.0, -1.0]])


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_evaluate_many_matches_scalar_loop_on_power_maps(mesh4, degree):
    # oracle: scale * z**d in Python complex arithmetic, point by point
    g = RationalMap.power(degree)
    z = evaluation_points(mesh4)
    got = evaluate_many(g, z)
    finite = ~np.isinf(z)
    loop = np.array([g.scale * v ** degree for v in z[finite].tolist()])
    np.testing.assert_allclose(got[finite], loop, rtol=1e-14, atol=0)
    assert np.all(np.isinf(got[~finite]))  # the north pole and inf itself
    assert [value_at(g, v) for v in z] == got.tolist()


def test_evaluate_many_matches_scalar_loop_with_finite_poles(mesh4):
    # oracle: scale * prod(z - zeros) / prod(z - poles) in Python complex
    # arithmetic, point by point
    g = RationalMap(zeros=(0.5, 1j), poles=(2.0, -1.0), scale=1.5 - 0.5j)
    z = evaluation_points(mesh4)
    got = evaluate_many(g, z)
    pole = np.isin(z, g.poles)  # the two appended poles and the vertex at -1
    assert pole[-2:].all() and np.all(np.isinf(got[pole]))
    finite = ~np.isinf(z) & ~pole
    loop = np.array([g.scale * math.prod(v - p for p in g.zeros)
                     / math.prod(v - q for q in g.poles) for v in z[finite].tolist()])
    np.testing.assert_allclose(got[finite], loop, rtol=1e-14, atol=0)
    assert got[-3] == value_at(g, INF) == 1.5 - 0.5j  # at inf, equal degrees: the scale
    assert [value_at(g, v) for v in z] == got.tolist()


def test_evaluate_many_zero_over_zero_raises():
    g = RationalMap(zeros=(0.5,), poles=(2.0,))
    object.__setattr__(g, "_den", g._num)  # a common factor the constructor forbids
    with pytest.raises(InvariantViolationError):
        value_at(g, 0.5)
    with pytest.raises(InvariantViolationError, match="0/0"):
        evaluate_many(g, np.array([1.0, 0.5, INF]))


def test_coincident_zero_pole_rejected():
    with pytest.raises(PreconditionError):
        RationalMap(zeros=(1.0,), poles=(1.0,))


def test_stereographic_roundtrip(rng):
    pts = rng.standard_normal((40, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    back = inverse_stereographic(stereographic(pts))
    assert np.allclose(back, pts, atol=1e-12)
    assert np.allclose(inverse_stereographic([INF])[0], [0, 0, 1])


# -- branch points -------------------------------------------------------------------


def test_branch_points_power_maps():
    bps = dict(branch_points(RationalMap.power(2)))
    assert bps == {0.0: 1, INF: 1}
    bps = dict(branch_points(RationalMap.power(3)))
    assert bps == {0.0: 2, INF: 2}


def test_branch_points_random_degree2(rng):
    # resultant oracle: simple roots of the derivative numerator exactly when
    # its discriminant does not vanish
    for _ in range(3):
        g = random_degree2_map(rng)
        bps = branch_points(g)
        assert sum(m for _, m in bps) == 2
        assert all(m == 1 for _, m in bps)
        z = sympy.symbols("z")
        num = sympy.prod([z - sympy.nsimplify(p) for p in g.zeros])
        den = sympy.prod([z - sympy.nsimplify(q) for q in g.poles])
        wr = sympy.expand(sympy.diff(num, z) * den - num * sympy.diff(den, z))
        disc = sympy.discriminant(sympy.Poly(wr, z))
        assert abs(complex(disc)) > 1e-12


def test_riemann_hurwitz_budget(rng):
    for d in (1, 2, 3):
        g = RationalMap.power(d)
        assert sum(m for _, m in branch_points(g)) == 2 * d - 2


# -- composition ----------------------------------------------------------------------


def test_compose_identity(mesh4):
    h = EquatorTargetMap(4)
    f = compose_cover(h, RationalMap.power(1), mesh4)
    assert np.max(np.abs(f.values - equator_map(mesh4, 4).values)) <= 1e-12


@pytest.mark.parametrize("degree", [2, 3])
def test_energy_multiplicativity(mesh4, degree):
    # oracle: degree times the measured energy of the base map
    h = EquatorTargetMap(4)
    base = dirichlet_energy(compose_cover(h, RationalMap.power(1), mesh4))
    cover = dirichlet_energy(compose_cover(h, RationalMap.power(degree), mesh4))
    assert abs(cover - degree * base) <= 0.02 * degree * base


# -- pulled-back spectra ----------------------------------------------------------------


def test_lambda1_identity_cover(mesh4):
    f = compose_cover(EquatorTargetMap(4), RationalMap.power(1), mesh4)
    res = induced_metric_lambda1(f)
    assert abs(res.lambda1 - 2.0) <= 0.04
    assert not res.degeneracy_warning


def test_lambda1_double_cover(mesh4):
    f = compose_cover(EquatorTargetMap(4), RationalMap.power(2), mesh4)
    res = induced_metric_lambda1(f)
    assert res.lambda1 <= 1.05


def test_lambda1_triple_cover(mesh4):
    f = compose_cover(EquatorTargetMap(4), RationalMap.power(3), mesh4)
    res = induced_metric_lambda1(f)
    assert res.lambda1 <= 2.0 / 3.0 + 0.05


def branched_cover_spectrum(d, k):
    """The lowest k eigenvalues of the round metric pulled back by z^d.

    The metric is that of a d-fold cover of the round sphere branched at 0
    and infinity.  The cover's angle theta is the base angle over d, so the
    modes e^(i m theta) have the angular momentum nu = |m| / d, and the
    Legendre equation with that order gives (nu + j)(nu + j + 1), j >= 0.
    """
    vals = sorted((abs(m) / d + j) * (abs(m) / d + j + 1)
                  for m in range(-2 * d, 2 * d + 1) for j in range(3))
    return np.array(vals[:k])


@pytest.mark.parametrize("d", [2, 3])
def test_pulled_back_spectrum_converges_to_the_branched_cover_spectrum(d):
    # P1 eigenvalues converge at O(h^2): a factor 4 per level, 4.00-4.05 here
    k = 2 * d + 2
    exact = branched_cover_spectrum(d, k)
    errors = []
    for level in (3, 4, 5):
        f = compose_cover(EquatorTargetMap(4), RationalMap.power(d), build_icosphere(level))
        vals, _ = pullback_laplace_eigenvalues(f, k=k)
        assert abs(vals[0]) <= 1e-10
        errors.append(float(np.max(np.abs(vals[1:] - exact[1:]) / exact[1:])))
    assert errors[-1] <= 5e-3
    assert errors[0] / errors[1] > 3.5 and errors[1] / errors[2] > 3.5


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_yang_yau_bound(mesh4, degree):
    f = compose_cover(EquatorTargetMap(4), RationalMap.power(degree), mesh4)
    res = induced_metric_lambda1(f)
    area = dirichlet_energy(f)  # conformal map: area equals energy
    assert res.lambda1 * area <= 8.0 * math.pi * 1.05


def test_normal_index_bounds(mesh4):
    g2 = RationalMap.power(2)
    f = compose_cover(EquatorTargetMap(4), g2, mesh4)
    assert normal_index_count(pullback_laplace_eigenvalues(f, k=16)[0], 4) >= 4
    f5 = compose_cover(EquatorTargetMap(5), g2, mesh4)
    assert normal_index_count(pullback_laplace_eigenvalues(f5, k=16)[0], 5) >= 6
    base = compose_cover(EquatorTargetMap(4), RationalMap.power(1), mesh4)
    assert normal_index_count(pullback_laplace_eigenvalues(base, k=16)[0], 4) == 2


def pullback_pencil(level):
    """K and M_rho of the degree-2 cover of the equator in S^4."""
    mesh = build_icosphere(level)
    f = compose_cover(EquatorTargetMap(4), RationalMap.power(2), mesh)
    rho, _ = covers_mod._conformal_factors(f, 1e-8)
    M_rho = assemble_faces(mesh, (rho * mesh.face_areas)[:, None, None] * MASS_LOCAL)
    return f, assemble_pencil(mesh).K, M_rho


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_dissection_factor_solves_shifted_pullback_pencil(level):
    f, K, M_rho = pullback_pencil(level)
    A = K + 0.1 * M_rho
    factor = f.mesh.factor(A)
    rhs = np.random.default_rng(level).standard_normal((f.mesh.vertex_count, 5))
    for b in (rhs[:, 3], rhs):
        x = factor.solve(b)
        assert x.shape == b.shape
        assert np.all(np.linalg.norm(A @ x - b, axis=0) <= 1e-12 * np.linalg.norm(b, axis=0))


@pytest.mark.parametrize("level", [3, 4, 5])
def test_pullback_eigenvalues_match_eigsh_own_factor(monkeypatch, level):
    # reference: eigsh factoring K + 0.1 M_rho itself (SuperLU's default
    # COLAMD order) for the same pencil, shift and start vector
    f, K, M_rho = pullback_pencil(level)
    inverses = []
    monkeypatch.setattr(covers_mod, "eigsh",
                        lambda *a, **kw: inverses.append(kw["OPinv"]) or eigsh(*a, **kw))
    vals, _ = pullback_laplace_eigenvalues(f, k=16)
    assert len(inverses) == 1
    v0 = np.random.default_rng(1234).standard_normal(f.mesh.vertex_count)
    ref = eigsh(K, k=16, M=M_rho, sigma=-0.1, which="LM", v0=v0,
                return_eigenvectors=False)
    assert_spectra_close(vals, np.sort(ref), rtol=1e-12)


def test_constant_map_has_no_pulled_back_metric(mesh2):
    # every conformal factor vanishes, so the mass pencil is zero: both entry
    # points reject it before the eigensolver sees a zero start vector
    f = constant_map(mesh2, 4)
    with pytest.raises(DegenerateElementsError) as err:
        induced_metric_lambda1(f)
    assert err.value.elements == list(range(mesh2.face_count))
    with pytest.raises(DegenerateElementsError):
        pullback_laplace_eigenvalues(f, k=16)


# -- serialization -------------------------------------------------------------------------


def test_rational_map_json_roundtrip():
    g = RationalMap(zeros=(0.5 + 1j, INF), poles=(2.0, -3.0j), scale=1.5 - 0.5j)
    doc = g.to_json_dict()
    back = RationalMap.from_json_dict(doc)
    assert back.zeros == g.zeros and back.poles == g.poles and back.scale == g.scale


def test_conformal_factors_do_not_depend_on_n():
    # the cover lies in R^3 x 0: its factors are those of its live columns,
    # and no per-face array over all n + 1 columns is built
    mesh = build_icosphere(5)
    g = RationalMap.power(2)
    rho4, floored4 = covers_mod._conformal_factors(
        compose_cover(EquatorTargetMap(4), g, mesh), 1e-8)
    f39 = compose_cover(EquatorTargetMap(39), g, mesh)
    tracemalloc.start()
    try:
        rho39, floored39 = covers_mod._conformal_factors(f39, 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(rho39, rho4)
    assert floored39 == floored4
    assert peak < mesh.face_count * 3 * (39 + 1) * 8  # one (F, 3, n + 1) float64 array
