"""Projected pseudogradient descent for the alpha-energy.

The descent direction is either the projected gradient or, when
preconditioning is on, the projected solution of (K + M) d = grad per
coordinate.  Steps use Armijo backtracking followed by pointwise
renormalization onto the target sphere, so the accepted energy sequence
never increases.  Per-iteration norms are logged so the two
pseudogradient inequalities can be audited after the fact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import (
    SphereMap,
    TangentField,
    alpha_energy,
    alpha_energy_gradient,
    center_of_mass,
    dirichlet_energy,
    element_energy_integrals,
    normalize_rows,
    recenter,
)
from .errors import PreconditionError, StagnationError
from .sphere_mesh import assemble_pencil, geodesic_distance


@dataclass
class FlowConfig:
    alpha: float = 1.1
    max_iterations: int = 2000
    grad_tol: float = 1e-3        # relative to the initial gradient norm
    grad_tol_abs: float = 0.0     # optional absolute floor on the target
    armijo_c1: float = 1e-4
    step_init: float = 1.0
    step_shrink: float = 0.5
    preconditioned: bool = True

    def __post_init__(self):
        if self.alpha < 1.0:
            raise PreconditionError("alpha must be >= 1")
        if not 0.0 < self.armijo_c1 < 0.5:
            raise PreconditionError("armijo_c1 must lie in (0, 0.5)")
        if min(self.max_iterations, self.grad_tol, self.step_init,
               self.step_shrink) <= 0:
            raise PreconditionError("flow parameters must be positive")


@dataclass
class CriticalRecord:
    map: SphereMap
    alpha: float
    energy: float
    alpha_energy: float
    grad_norm: float
    iterations: int
    center_of_mass_norm: float
    pseudogradient_log: list = field(default_factory=list)  # (|X|, |dF|, dF(X))
    energy_log: list = field(default_factory=list)          # E_alpha per accepted step
    step_log: list = field(default_factory=list)            # accepted step sizes
    converged: bool = False
    eps1: float = float("nan")    # max |X| / |dF| over iterations
    eps2: float = float("nan")    # max |dF|^2 / dF(X) over iterations
    harmonic_residual: float = None

    def to_json_dict(self):
        return {
            "alpha": self.alpha,
            "energy": self.energy,
            "alpha_energy": self.alpha_energy,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "center_of_mass_norm": self.center_of_mass_norm,
            "converged": self.converged,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "harmonic_residual": self.harmonic_residual,
            "pseudogradient_log": [list(entry) for entry in self.pseudogradient_log],
            "energy_log": list(self.energy_log),
            "step_log": list(self.step_log),
        }


@dataclass
class ContinuationResult:
    records: list
    failed_stage: int = None      # index into the schedule, None on full success

    @property
    def succeeded(self):
        return self.failed_stage is None


def project_tangent(sphere_map: SphereMap, field_values: np.ndarray) -> TangentField:
    """Remove the component along the map values at every vertex."""
    field_values = np.asarray(field_values, dtype=float)
    if field_values.shape != sphere_map.values.shape:
        raise PreconditionError("field shape does not match the map")
    dots = np.sum(field_values * sphere_map.values, axis=1)
    return TangentField(sphere_map,
                        field_values - dots[:, None] * sphere_map.values)


def _descent_direction(sphere_map: SphereMap, grad: np.ndarray,
                       preconditioned: bool) -> np.ndarray:
    if not preconditioned:
        return grad
    smoothed = sphere_map.mesh.solve_stiff_plus_mass(grad)
    dots = np.sum(smoothed * sphere_map.values, axis=1)
    return smoothed - dots[:, None] * sphere_map.values


def descend(map0: SphereMap, config: FlowConfig) -> CriticalRecord:
    """Armijo backtracking descent with renormalization onto the sphere.

    Terminates when the gradient norm falls below
    max(grad_tol * initial norm, grad_tol_abs) or at max_iterations.
    Near a critical point a step lowers the energy by less than an ulp, so
    an accepted trial may read the same energy; such a step counts only if
    it lowers the gradient norm.  Raises StagnationError (carrying the last
    record) if the line search cannot decrease the energy at the smallest
    allowed step, or if a step of equal energy does not lower the gradient.
    """
    # a map keeps its element_energy_integrals: the Armijo test computes
    # them for the accepted trial, and its gradient and record reuse them
    f = map0
    energy_val = alpha_energy(f, config.alpha)
    grad = alpha_energy_gradient(f, config.alpha).values
    grad_norm = float(np.linalg.norm(grad))
    target = max(config.grad_tol * grad_norm, config.grad_tol_abs)
    log = []
    energy_log = [energy_val]
    step_log = []
    step = config.step_init
    iterations = 0

    def make_record(converged):
        eps1 = max((x / df for x, df, _ in log if df > 0), default=float("nan"))
        eps2 = max((df * df / dfx for _, df, dfx in log if dfx > 0),
                   default=float("nan"))
        return CriticalRecord(
            map=f,
            alpha=config.alpha,
            energy=dirichlet_energy(f),
            alpha_energy=energy_val,
            grad_norm=grad_norm,
            iterations=iterations,
            center_of_mass_norm=float(np.linalg.norm(center_of_mass(f, config.alpha))),
            pseudogradient_log=log,
            energy_log=energy_log,
            step_log=step_log,
            converged=converged,
            eps1=eps1,
            eps2=eps2,
        )

    while grad_norm > target and iterations < config.max_iterations:
        direction = _descent_direction(f, grad, config.preconditioned)
        slope = float(np.sum(grad * direction))
        if slope <= 0:
            direction, slope = grad, grad_norm**2
        log.append((float(np.linalg.norm(direction)), grad_norm, slope))
        step = min(config.step_init, 4.0 * step)
        accepted = False
        while step > 1e-14 * config.step_init:
            trial = SphereMap(f.mesh, f.n, normalize_rows(f.values - step * direction))
            trial_energy = alpha_energy(trial, config.alpha)
            if trial_energy <= energy_val - config.armijo_c1 * step * slope:
                accepted = True
                break
            step *= config.step_shrink
        if accepted:
            trial_grad = alpha_energy_gradient(trial, config.alpha).values
            trial_grad_norm = float(np.linalg.norm(trial_grad))
            accepted = trial_energy < energy_val or trial_grad_norm < grad_norm
        if not accepted:
            raise StagnationError("line search failed to decrease the energy",
                                  record=make_record(False))
        f, energy_val = trial, trial_energy
        energy_log.append(energy_val)
        step_log.append(step)
        grad, grad_norm = trial_grad, trial_grad_norm
        iterations += 1
    return make_record(grad_norm <= target)


def harmonic_residual(sphere_map: SphereMap) -> float:
    """Mass-weighted norm of the discrete tension field.

    Applies the stiffness matrix coordinatewise, projects tangentially,
    and measures the result in the inverse-mass inner product, which is
    the L2 norm of the discrete Laplacian's tangential part.
    """
    pencil = assemble_pencil(sphere_map.mesh)
    r = pencil.K @ sphere_map.values
    dots = np.sum(r * sphere_map.values, axis=1)
    r = r - dots[:, None] * sphere_map.values
    z = sphere_map.mesh.solve_mass(r)
    return float(np.sqrt(np.sum(r * z)))


def continue_in_alpha(record: CriticalRecord, schedule,
                      config: FlowConfig = None) -> ContinuationResult:
    """Warm-started descent along a decreasing alpha schedule.

    Every converged stage is recentered so the center-of-mass condition
    holds; the harmonic residual is attached to each record.  On a stage
    failure the result carries the records so far and the failing index.
    """
    schedule = list(schedule)
    if not schedule:
        return ContinuationResult(records=[])
    if not record.converged:
        raise PreconditionError("continuation requires a converged record")
    base = config if config is not None else FlowConfig(alpha=schedule[0])
    current = record.map
    records = []
    for stage, alpha in enumerate(schedule):
        cfg = replace(base, alpha=alpha)
        try:
            rec = descend(current, cfg)
        except StagnationError as exc:
            rec = exc.record
        if not rec.converged:
            return ContinuationResult(records=records, failed_stage=stage)
        recentered = recenter(rec.map, alpha)
        rec.map = recentered
        rec.center_of_mass_norm = float(
            np.linalg.norm(center_of_mass(recentered, alpha))
        )
        rec.energy = dirichlet_energy(recentered)
        rec.alpha_energy = alpha_energy(recentered, alpha)
        rec.harmonic_residual = harmonic_residual(recentered)
        records.append(rec)
        current = recentered
    return ContinuationResult(records=records)


# -- concentration detection ------------------------------------------------------

def detect_concentration(sphere_map: SphereMap, epsilon_su: float,
                         radius: float):
    """Greedy cover of the domain by geodesic balls holding excess energy.

    Faces belong to a ball when their centroid lies within the geodesic
    radius of its center (a mesh vertex).  Each round weighs the balls
    centered at the 64 vertices nearest the face of most remaining energy
    and claims the one holding the most; only balls with more than
    ``epsilon_su`` Dirichlet energy are reported, as {center, local_energy}
    dicts sorted by energy.  A density bound certifies termination without
    scanning every center.
    """
    if not 0.0 < radius < np.pi / 2.0:
        raise PreconditionError("radius must lie in (0, pi/2)")
    mesh = sphere_map.mesh
    remaining = 0.5 * element_energy_integrals(sphere_map)  # face energies
    centroids = mesh.face_centroids
    chordal = 2.0 * np.sin(radius / 2.0)
    ball_area = 2.0 * np.pi * (1.0 - np.cos(radius + 2.0 * mesh.max_edge_length()))
    k = min(64, mesh.vertex_count)
    detections = []
    for _ in range(64):  # energy/epsilon bounds the count long before this
        active = remaining > 0
        if not np.any(active):
            break
        density = np.where(active, remaining / mesh.face_areas, 0.0)
        if float(np.max(density)) * ball_area <= epsilon_su:
            break  # no ball can reach the threshold
        seed_face = int(np.argmax(remaining))
        seed = centroids[seed_face]
        # the k vertices nearest the seed, nearest first
        nearest = np.argpartition(-(mesh.vertices @ seed), k - 1)[:k]
        dist = np.linalg.norm(mesh.vertices[nearest] - seed, axis=1)
        order = np.argsort(dist, kind="stable")
        centers = mesh.vertices[nearest[order]]
        # a face in some candidate's ball lies within the farthest candidate's
        # distance plus the ball radius of the seed (triangle inequality); on
        # the unit sphere |c - seed| <= reach is c . seed >= 1 - reach^2 / 2,
        # and the 1e-9 slack covers the rounding of that dot-product form
        reach = dist.max() + chordal + 1e-9
        near = np.flatnonzero(centroids @ seed >= 1.0 - 0.5 * reach * reach)
        d = centroids[near, None, :] - centers[None, :, :]
        members = np.sqrt(np.einsum("fvc,fvc->fv", d, d)) <= chordal + 1e-12
        local = remaining[near] @ members
        best = int(np.argmax(local))  # the nearest of equal balls
        best_energy = float(local[best])
        if best_energy <= epsilon_su:
            # the seed region cannot be covered above threshold; drop it so
            # the loop terminates (its faces cannot help any other ball more)
            remaining[seed_face] = 0.0
            continue
        detections.append({"center": centers[best],
                           "local_energy": best_energy})
        remaining[near[members[:, best]]] = 0.0
    detections.sort(key=lambda d: -d["local_energy"])
    return detections


def index_semicontinuity_report(sphere_map: SphereMap, alpha: float,
                                epsilon_su: float = 1.0, radius: float = 0.2,
                                tau: float = None, k: int = None) -> dict:
    """Experiment record relating measured index to detected bubble count.

    Computes the Morse index of the map and the concentration detections,
    and reports whether index >= detections * (n - 2).  The inequality is
    recorded, never asserted: it can fail near degeneration where the
    discretization under-resolves the concentrating region.
    """
    from .spectrum import calibrate_tau, classify_spectrum, split_spectrum

    n = sphere_map.n
    if tau is None:
        tau = calibrate_tau(sphere_map.mesh, n, alpha=1.0)
    if k is None:
        k = (n - 2) * 4 + 6 + 10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = classify_spectrum(*split_spectrum(sphere_map, alpha, k), k, tau)
    detections = detect_concentration(sphere_map, epsilon_su, radius)
    bound = len(detections) * (n - 2)
    return {
        "index": report.index,
        "detections": len(detections),
        "bubble_index_bound": bound,
        "satisfied": bool(report.index >= bound),
        "local_energies": [d["local_energy"] for d in detections],
    }


def geodesic_ball_energy(sphere_map: SphereMap, center, radius: float) -> float:
    """Dirichlet energy carried by faces whose centroid lies in the ball."""
    face_energy = 0.5 * element_energy_integrals(sphere_map)
    dist = geodesic_distance(sphere_map.mesh.face_centroids,
                             np.asarray(center, dtype=float)[None, :])
    return float(face_energy[dist <= radius].sum())
