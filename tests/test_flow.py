import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from spherelab import build_icosphere, energy, flow, sphere_mesh
from spherelab.energy import (
    alpha_energy,
    alpha_energy_gradient,
    center_of_mass,
    constant_map,
    dilated_equator_map,
    dirichlet_energy,
    element_energy_integrals,
    equator_map,
    head_map,
    padded,
    perturbed_constant_map,
    project_tangent,
    random_map,
)
from spherelab.errors import PreconditionError
from spherelab.flow import (
    ContinuationResult,
    FlowConfig,
    continue_in_alpha,
    descend,
    detect_concentration,
    harmonic_residual,
    index_semicontinuity_report,
)
from spherelab.spectrum import (assemble_second_variation, calibrate_tau,
                                morse_index_nullity)
from spherelab.sphere_mesh import SphereMesh

FOUR_PI = 4.0 * math.pi


# -- tangential projection ---------------------------------------------------------


def test_project_parallel_field_is_zero(mesh2):
    f = equator_map(mesh2, 4)
    out = project_tangent(f, 2.5 * f.values)
    assert np.max(np.abs(out.values)) < 1e-14


def test_project_idempotent(mesh2, rng):
    f = random_map(mesh2, 4, rng)
    raw = rng.standard_normal(f.values.shape)
    once = project_tangent(f, raw)
    twice = project_tangent(f, once.values)
    assert np.max(np.abs(once.values - twice.values)) <= 1e-14


def test_project_output_tangent(mesh2, rng):
    f = random_map(mesh2, 4, rng)
    out = project_tangent(f, rng.standard_normal(f.values.shape))
    dots = np.abs(np.sum(out.values * f.values, axis=1))
    assert dots.max() <= 1e-10


# -- descent ------------------------------------------------------------------------


def test_descend_from_equator(mesh3):
    # symmetric critical point: the discrete gradient starts at the
    # discretization floor, so an absolute tolerance above it stops at once
    start_grad = alpha_energy_gradient(equator_map(mesh3, 4), 1.1).norm()
    config = FlowConfig(alpha=1.1, grad_tol=0.9, grad_tol_abs=2.0 * start_grad,
                        max_iterations=50)
    record = descend(equator_map(mesh3, 4), config)
    assert record.converged
    assert record.iterations <= 5
    assert record.grad_norm <= 2.0 * start_grad


def test_descend_perturbed_constant(mesh3, rng):
    f0 = perturbed_constant_map(mesh3, 4, rng, eps=0.1)
    record = descend(f0, FlowConfig(alpha=1.1, grad_tol=1e-5,
                                    max_iterations=3000))
    assert record.converged
    assert record.alpha_energy <= 1e-6


def test_descend_degree_one(mesh3, rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    f0 = dilated_equator_map(mesh3, 4, 0.4, axis=axis)
    record = descend(f0, FlowConfig(alpha=1.05, grad_tol=1e-3,
                                    max_iterations=4000))
    assert record.converged
    assert abs(record.energy - FOUR_PI) <= 0.02 * FOUR_PI


def test_energy_strictly_decreasing(mesh3, rng):
    f0 = perturbed_constant_map(mesh3, 4, rng, eps=0.2)
    record = descend(f0, FlowConfig(alpha=1.1, grad_tol=1e-4,
                                    max_iterations=500))
    diffs = np.diff(record.energy_log)
    assert np.all(diffs < 0)


def test_pseudogradient_log_audit(mesh3, rng):
    f0 = perturbed_constant_map(mesh3, 4, rng, eps=0.2)
    record = descend(f0, FlowConfig(alpha=1.1, grad_tol=1e-4,
                                    max_iterations=500))
    assert len(record.pseudogradient_log) == record.iterations
    # the two bounding constants exist and are finite
    for xn, dn, slope in record.pseudogradient_log:
        assert xn <= record.eps1 * dn + 1e-15
        assert dn**2 <= record.eps2 * slope + 1e-15


def test_descend_equivariant_under_mesh_symmetry(mesh2, rng):
    # rotation by 2 pi / 5 about the polar axis permutes the vertices
    theta = 2.0 * math.pi / 5.0
    rot = np.array([
        [math.cos(theta), -math.sin(theta), 0.0],
        [math.sin(theta), math.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    rotated = mesh2.vertices @ rot.T
    dist, perm = cKDTree(mesh2.vertices).query(rotated)
    assert dist.max() < 1e-9  # confirms a genuine mesh symmetry
    f0 = dilated_equator_map(mesh2, 4, 0.3, axis="x")
    config = FlowConfig(alpha=1.1, grad_tol=1e-2, max_iterations=60)
    rec_a = descend(f0, config)
    from spherelab.energy import SphereMap

    f0_rot = SphereMap(mesh2, 4, f0.values[perm])
    rec_b = descend(f0_rot, config)
    la, lb = rec_a.energy_log, rec_b.energy_log
    assert len(la) == len(lb)
    assert np.max(np.abs(np.array(la) - np.array(lb))) <= 1e-8


def test_stagnation_carries_last_record():
    # an unreachable tolerance drives the gradient to the floating-point
    # floor, where the line search can no longer decrease the energy
    from spherelab.errors import StagnationError

    mesh = build_icosphere(1)
    with pytest.raises(StagnationError) as err:
        descend(equator_map(mesh, 4),
                FlowConfig(alpha=1.1, grad_tol=1e-16, max_iterations=3000))
    assert err.value.record is not None
    assert err.value.record.grad_norm <= 1e-10


def test_descend_runs_the_energy_kernel_once_per_map(mesh3, monkeypatch):
    # a map keeps its integrals q: the start map, every Armijo trial and
    # every recentering resample of a flow runs the kernel once, and the
    # gradients, records, centers of mass and the next stage read the kept q
    monkeypatch.setattr(sphere_mesh, "FACE_BLOCK", 300)  # five blocks at level 3
    maps = {}  # id -> map; holding every map keeps the ids distinct
    calls = {"blocks": 0, "resamples": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    integrals = energy.element_energy_integrals

    def recorded_integrals(sphere_map):
        maps[id(sphere_map)] = sphere_map
        return integrals(sphere_map)

    monkeypatch.setattr(energy, "element_energy_integrals", recorded_integrals)
    monkeypatch.setattr(energy, "_block_integrals",
                        counted("blocks", energy._block_integrals))
    monkeypatch.setattr(energy, "sample_map", counted("resamples", energy.sample_map))
    alpha = 1.2
    config = FlowConfig(alpha=alpha, grad_tol=1e-2, max_iterations=200)
    f0 = dilated_equator_map(mesh3, 4, 0.3, axis=np.array([0.36, 0.48, 0.8]))
    result = continue_in_alpha(f0, [alpha, 1.1, 1.05], config)
    assert result.succeeded
    assert calls["resamples"] >= 1  # recentering resampled the map
    assert len(maps) > result.records[0].iterations + calls["resamples"]
    assert calls["blocks"] == 5 * len(maps)
    # no map was evaluated twice under another identity either
    assert len({m.values.tobytes() for m in maps.values()}) == len(maps)
    monkeypatch.undo()
    # the kept values carry the bits of a fresh evaluation of the head, the
    # map the descent ran on; stage 0 is that descent, and its grad_norm is
    # that of its map before recentering
    rec = descend(f0, config)
    assert (rec.iterations, rec.grad_norm) == (result.records[0].iterations,
                                               result.records[0].grad_norm)
    assert rec.map.n == 4
    fresh = head_map(rec.map.copy())
    assert fresh.n == 2
    assert rec.energy == dirichlet_energy(fresh)
    assert rec.center_of_mass_norm == float(np.linalg.norm(center_of_mass(fresh, alpha)))
    assert rec.grad_norm == float(np.linalg.norm(alpha_energy_gradient(fresh, alpha).values))
    last = result.records[-1]
    fresh = head_map(last.map.copy())
    assert last.energy == dirichlet_energy(fresh)
    assert last.alpha_energy == alpha_energy(fresh, 1.05)
    assert last.center_of_mass_norm == float(np.linalg.norm(center_of_mass(fresh, 1.05)))


def test_flow_on_live_columns_is_exact(mesh3):
    # the S^2 map included into S^6 flows as the S^2 map itself: the same
    # stages, iterations and energies, and every record's map lies in S^6
    # with its four trailing columns exactly zero
    config = FlowConfig(alpha=1.2, grad_tol=1e-2, max_iterations=200)
    f2 = dilated_equator_map(mesh3, 2, 0.3, axis=np.array([0.36, 0.48, 0.8]))
    # built from its values, not by padded: the flow finds the head itself
    zeros = np.zeros((mesh3.vertex_count, 4))
    f6 = energy.SphereMap(mesh3, 6, np.hstack([f2.values, zeros]))
    runs = []
    for f0 in (f2, f6):
        runs.append(continue_in_alpha(f0, [1.2, 1.1, 1.05], config).records)
    assert [len(run) for run in runs] == [3, 3]
    for want, got in zip(*runs):
        assert (got.alpha, got.iterations, got.converged) == (want.alpha, want.iterations,
                                                              want.converged)
        assert got.energy == want.energy and got.alpha_energy == want.alpha_energy
        assert got.energy_log == want.energy_log and got.step_log == want.step_log
        assert want.map.n == 2 and got.map.n == 6
        assert np.array_equal(got.map.values[:, :3], want.map.values)
        assert not np.any(got.map.values[:, 3:])


def test_head_map_and_padded(mesh2):
    f = perturbed_constant_map(mesh2, 3, np.random.default_rng(5))
    p = padded(f, 6)
    assert p.n == 6 and head_map(p) is f and padded(f, 3) is f
    assert np.array_equal(p.values[:, :4], f.values) and not np.any(p.values[:, 4:])
    # a map built with zero columns gets the head its values say, at least S^2
    head = head_map(p.copy())
    assert head.n == 3 and np.array_equal(head.values, f.values)
    assert head_map(f) is f  # every column live
    assert head_map(equator_map(mesh2, 5)).n == 2
    assert head_map(constant_map(mesh2, 5)).n == 2
    with pytest.raises(PreconditionError):
        padded(f, 2)


def test_flow_config_guards():
    with pytest.raises(PreconditionError):
        FlowConfig(alpha=0.9)
    with pytest.raises(PreconditionError):
        FlowConfig(grad_tol_abs=-1.0)


# -- continuation -----------------------------------------------------------------------


def test_continuation_from_equator(mesh3):
    start_grad = alpha_energy_gradient(equator_map(mesh3, 4), 1.2).norm()
    config = FlowConfig(alpha=1.2, grad_tol=0.9, grad_tol_abs=3.0 * start_grad,
                        max_iterations=200)
    result = continue_in_alpha(equator_map(mesh3, 4), [1.2, 1.1, 1.05, 1.01], config)
    assert result.succeeded
    energies = [rec.energy for rec in result.records]
    assert all(abs(e - energies[0]) <= 0.01 * energies[0] for e in energies)
    for rec in result.records:
        assert rec.center_of_mass_norm <= 1e-6
        assert rec.harmonic_residual is not None


def test_continuation_reaches_harmonic_limit(mesh3, rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    f0 = dilated_equator_map(mesh3, 4, 0.4, axis=axis)
    config = FlowConfig(alpha=1.2, grad_tol=1e-3, max_iterations=4000)
    result = continue_in_alpha(f0, [1.2, 1.1, 1.05, 1.01], config)
    assert result.succeeded
    reference = harmonic_residual(equator_map(mesh3, 4))
    assert result.records[-1].harmonic_residual <= 10.0 * reference


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_level5_continuation_completes_schedule(seed):
    # the start map and config of `spherelab flow` at level 5, n = 4; with a
    # pairwise-summed alpha-energy, seed 1's last stage stalled: near its end
    # every Armijo trial read one ulp above the current energy
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    f0 = dilated_equator_map(build_icosphere(5), 4, 0.4, axis=axis)
    schedule = [1.2, 1.1, 1.05]
    config = FlowConfig(alpha=schedule[0], max_iterations=4000)
    result = continue_in_alpha(f0, schedule, config)
    assert result.succeeded and len(result.records) == len(schedule)
    assert all(rec.grad_norm <= result.records[0].target for rec in result.records)


def _start_gradient_norm(sphere_map, alpha):
    return float(np.linalg.norm(alpha_energy_gradient(head_map(sphere_map), alpha).values))


def test_stage_at_the_records_alpha_takes_no_step():
    # the level-5, seed-1 flow of `spherelab flow`: a stage 1 that repeats
    # stage 0's alpha starts from the converged, recentered map, which
    # already lies below stage 0's target; a target of grad_tol times the
    # stage's own start norm took 14 more iterations there
    rng = np.random.default_rng(1)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    f0 = dilated_equator_map(build_icosphere(5), 4, 0.4, axis=axis)
    config = FlowConfig(alpha=1.2, max_iterations=4000)
    first, stage = continue_in_alpha(f0, [1.2, 1.2], config).records
    assert first.converged and first.iterations > 0
    assert first.target == config.grad_tol * _start_gradient_norm(f0, 1.2)
    assert stage.iterations == 0 and stage.target == first.target
    assert stage.grad_norm <= first.target


def test_stage_far_in_alpha_still_descends(mesh3):
    # moved from alpha 1.2 to 1.01, stage 0's converged, recentered map
    # starts above stage 0's target, and stage 1 descends to
    # max(grad_tol * its own start norm, stage 0's target)
    rng = np.random.default_rng(1)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    config = FlowConfig(alpha=1.2, max_iterations=4000)
    first, stage = continue_in_alpha(dilated_equator_map(mesh3, 4, 0.4, axis=axis),
                                     [1.2, 1.01], config).records
    start = _start_gradient_norm(first.map, 1.01)
    assert start > first.target
    assert stage.converged and stage.iterations >= 1
    assert stage.target == max(config.grad_tol * start, first.target)
    assert stage.grad_norm <= stage.target


def test_continuation_empty_schedule(mesh2):
    result = continue_in_alpha(equator_map(mesh2, 4), [])
    assert isinstance(result, ContinuationResult)
    assert result.records == [] and result.succeeded


# -- harmonic residual ----------------------------------------------------------------------


def test_harmonic_residual_values(mesh3, rng):
    assert harmonic_residual(constant_map(mesh3, 4)) <= 1e-12
    assert harmonic_residual(random_map(mesh3, 4, rng)) > 1.0


def test_harmonic_residual_equator_refines():
    # exact harmonic map oracle: the residual is pure discretization error
    residuals = {}
    hs = {}
    for level in (3, 4, 5):
        mesh = build_icosphere(level)
        residuals[level] = harmonic_residual(equator_map(mesh, 4))
        hs[level] = mesh.max_edge_length()
    assert residuals[3] > residuals[4] > residuals[5]
    assert residuals[5] <= 0.02
    order = math.log(residuals[3] / residuals[5]) / math.log(hs[3] / hs[5])
    assert order >= 1.0  # observed ~1.45 in the mass-weighted norm


# -- concentration detection ------------------------------------------------------------------


def test_uniform_map_has_no_detection(mesh4):
    assert detect_concentration(equator_map(mesh4, 4), 1.0, 0.2) == []


def test_constant_map_has_no_detection(mesh4):
    assert detect_concentration(constant_map(mesh4, 4), 1.0, 0.2) == []


def test_dilated_family_concentrates():
    # constructed concentration at t = 5; every nonconstant bubble carries
    # at least the 4 pi quantum, so the ball must hold at least 0.9 * 4 pi
    mesh = build_icosphere(8)
    f = dilated_equator_map(mesh, 4, 5.0, axis="z")
    detections = detect_concentration(f, 1.0, 0.2)
    assert len(detections) == 1
    assert detections[0]["local_energy"] >= 0.9 * FOUR_PI
    # attracting pole of the dilation pullback is the south pole
    assert detections[0]["center"] @ np.array([0.0, 0.0, -1.0]) > 0.99


def test_bubble_path_builds_no_stiffness_blocks_or_edge_table(monkeypatch):
    # criterion 8's path: energy, gradient and detection read the (3, F)
    # cotangent rows and centroids; the (F, 3, 3) blocks are for FEM assembly
    # and the (E, 2) edge table for the dissection order
    mesh = build_icosphere(5)
    f = dilated_equator_map(mesh, 4, 5.0, axis="z")
    dirichlet_energy(f)
    alpha_energy_gradient(f, 1.05)
    detect_concentration(f, 1.0, 0.2)
    assert "stiffness" not in mesh._cache
    for value in mesh._cache.values():
        for part in value if isinstance(value, tuple) else (value,):
            assert np.shape(part) not in ((mesh.face_count, 3, 3), (3 * mesh.face_count // 2, 2))
    # the longest edge comes from the cached geometry pass, not a new one
    builds = []
    build = SphereMesh._build_geometry
    monkeypatch.setattr(SphereMesh, "_build_geometry",
                        lambda self: builds.append(self) or build(self))
    longest = mesh.max_edge_length()
    assert mesh.max_edge_length() == longest and builds == []
    edges = sphere_mesh._edge_table(mesh.faces, mesh.vertex_count)[0]
    d = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    assert longest == float(np.max(np.linalg.norm(d, axis=1)))


def detect_concentration_kdtree(sphere_map, epsilon_su, radius):
    """The kd-tree loop detect_concentration replaced, kept as its reference."""
    if not 0.0 < radius < np.pi / 2.0:
        raise PreconditionError("radius must lie in (0, pi/2)")
    mesh = sphere_map.mesh
    face_energy = 0.5 * element_energy_integrals(sphere_map)
    centroids = mesh.face_centroids
    tree = cKDTree(centroids)
    vertex_tree = cKDTree(mesh.vertices)
    chordal = 2.0 * np.sin(radius / 2.0)
    ball_area = 2.0 * np.pi * (1.0 - np.cos(radius + 2.0 * mesh.max_edge_length()))
    remaining = face_energy.copy()
    detections = []
    for _ in range(64):  # energy/epsilon bounds the count long before this
        active = remaining > 0
        if not np.any(active):
            break
        density = np.where(active, remaining / mesh.face_areas, 0.0)
        if float(np.max(density)) * ball_area <= epsilon_su:
            break  # no ball can reach the threshold
        seed_face = int(np.argmax(remaining))
        _, candidate_vertices = vertex_tree.query(
            centroids[seed_face], k=min(64, mesh.vertex_count),
        )
        candidate_vertices = np.atleast_1d(candidate_vertices)
        best_energy = -1.0
        best_center = None
        best_faces = None
        for vi in candidate_vertices:
            center = mesh.vertices[vi]
            members = tree.query_ball_point(center, r=chordal + 1e-12)
            local = float(remaining[members].sum())
            if local > best_energy:
                best_energy = local
                best_center = center
                best_faces = members
        if best_energy <= epsilon_su:
            # the seed region cannot be covered above threshold; drop it so
            # the loop terminates (its faces cannot help any other ball more)
            remaining[seed_face] = 0.0
            continue
        detections.append({"center": np.array(best_center),
                           "local_energy": best_energy})
        remaining[best_faces] = 0.0
    detections.sort(key=lambda d: -d["local_energy"])
    return detections


@pytest.mark.parametrize("level, t, axis, count", [
    (5, 2.0, "z", 4),
    (6, 3.0, "z", 1),  # every one of the 64 rounds runs, most drop their seed
    (5, 2.0, (0.6, -0.48, 0.64), 4),  # the seed is not at a pole
])
def test_detect_concentration_matches_kdtree_loop(level, t, axis, count, monkeypatch):
    axis = axis if isinstance(axis, str) else np.array(axis)
    f = dilated_equator_map(build_icosphere(level), 4, t, axis=axis)
    got = detect_concentration(f, 1.0, 0.2)
    want = detect_concentration_kdtree(f, 1.0, 0.2)
    assert len(got) == len(want) == count
    for g, w in zip(got, want):
        assert np.array_equal(g["center"], w["center"])
        assert g["local_energy"] == pytest.approx(w["local_energy"], rel=1e-12, abs=0)
    # again with the ball test in blocks of 97 faces, which splits a round's
    # region into several blocks: the membership bits, and so the detections,
    # are those of the default block
    rows = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        if subscripts == "fvc,fvc->fv":
            rows.append(len(operands[0]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    monkeypatch.setattr(sphere_mesh, "FACE_BLOCK", 97)
    blocked = detect_concentration(f, 1.0, 0.2)
    monkeypatch.undo()
    blocks, per_region = 0, []
    for r in rows:  # a region ends with a block of fewer than 97 faces
        blocks += 1
        if r < 97:
            per_region.append(blocks)
            blocks = 0
    assert max(rows) == 97 and max(per_region) > 1
    assert len(blocked) == count
    for b, g in zip(blocked, got):
        assert np.array_equal(b["center"], g["center"])
        assert b["local_energy"] == g["local_energy"]


def test_bubble_path_transients_stay_bounded():
    # criterion 8's throwaway arrays, on the level-7 mesh: the ball test runs
    # in FACE_BLOCK slices instead of one (|near|, 64, 3) difference array,
    # and the gradient projects the raw gradient it owns in place instead of
    # a copy.  The face energies and centroids are built before tracing.
    mesh = build_icosphere(7)
    f = dilated_equator_map(mesh, 4, 5.0, axis="z")
    dirichlet_energy(f)
    mesh.face_centroids
    peaks = []
    for call in (lambda: alpha_energy_gradient(f, 1.05),
                 lambda: detect_concentration(f, 1.0, 0.2)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    gradient_peak, detection_peak = peaks
    assert gradient_peak <= 2.4 * f.values.nbytes  # the scatter and its transpose
    assert detection_peak <= 6.5 * mesh.face_count * 8  # 6.5 float64 per face


def test_detection_radius_guard(mesh2):
    with pytest.raises(PreconditionError):
        detect_concentration(equator_map(mesh2, 4), 1.0, 2.0)


@pytest.mark.filterwarnings("ignore:map is far from critical")
def test_index_semicontinuity_report_passes_warnings_on(mesh2):
    # the report filters no warning, so an API caller sees the spectrum's
    # far-from-critical warning on a random map (a CLI run filters it in
    # cli.run)
    f = random_map(mesh2, 4, np.random.default_rng(0))
    with pytest.warns(UserWarning, match="far from critical"):
        index_semicontinuity_report(f, alpha=1.1)


def test_index_semicontinuity_report(mesh3):
    f = dilated_equator_map(mesh3, 4, 1.5, axis="z")
    report = index_semicontinuity_report(f, alpha=1.05, radius=0.4)
    assert set(report) >= {"index", "detections", "bubble_index_bound",
                           "satisfied"}
    assert report["bubble_index_bound"] == report["detections"] * 2
    # oracle: the full reduced pencil at the report's default k and tau
    full = morse_index_nullity(assemble_second_variation(f, 1.05), 2 * 4 + 6 + 10,
                               calibrate_tau(mesh3, 4))
    assert report["index"] == full.index
