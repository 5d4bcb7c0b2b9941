"""Second-variation pencils, Morse index and nullity, and spectral checks.

The Hessian is the exact second derivative of the discrete alpha-energy
restricted to the tangent space of the unit-sphere constraint, with the
standard correction that subtracts, per vertex, the inner product of the
unconstrained gradient with the vertex value.  Pencils are reduced to
per-vertex orthonormal tangent (or normal) frames and solved by a sparse
shift-invert Lanczos iteration with a deterministic start vector.

Every index solve is split_spectrum, which splits the coordinates a map
leaves identically zero off as copies of one scalar pencil.  Only
normal_second_variation and the tests (criterion 02 among them) build
the full pencil of size nV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigs, eigsh

from .energy import SphereMap, element_density_area_one, equator_map
from .errors import DegenerateElementsError, PreconditionError
from .sphere_mesh import (FOUR_PI, MASS_LOCAL, SphereMesh, assemble_faces,
                          assemble_pencil)

_EIG_SEED = 20240


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted low eigenvalues of a symmetric pencil with index/nullity counts."""

    eigenvalues: np.ndarray
    index: int
    nullity: int
    tau: float
    k: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.sort(np.asarray(self.eigenvalues)))

    def to_rows(self):
        rows = []
        for rank, lam in enumerate(self.eigenvalues):
            if lam < -self.tau:
                cls = "negative"
            elif abs(lam) <= self.tau:
                cls = "null"
            else:
                cls = "positive"
            rows.append((rank, float(lam), cls))
        return rows


@dataclass(frozen=True)
class SecondVariationPencil:
    """Reduced pencil (H, M) over a per-vertex orthonormal frame."""

    H: sp.csr_matrix
    M: sp.csr_matrix
    frame: np.ndarray  # (V, C, dim) basis of the admissible subspace
    base: SphereMap
    alpha: float
    kind: str = "tangent"

    @property
    def dim(self) -> int:
        return self.H.shape[0]


def _weighted_stiffness(sphere_map: SphereMap, alpha: float):
    """(K_w, K_w f): the alpha-weighted stiffness and the unconstrained gradient.

    K_w is the stiffness with face f weighted by w_f = alpha (1 + |df|^2)^(alpha-1),
    the alpha-weighted Dirichlet form acting on each coordinate, and K_w f
    is the gradient of the alpha-energy before tangential projection.
    """
    if alpha < 1.0:
        raise PreconditionError("alpha must be >= 1")
    mesh = sphere_map.mesh
    g, _ = element_density_area_one(sphere_map)
    w = alpha * (1.0 + g) ** (alpha - 1.0)
    K_w = assemble_faces(mesh, w[:, None, None] * mesh.face_stiffness)
    return K_w, K_w @ sphere_map.values


def constrained_hessian(sphere_map: SphereMap, alpha: float,
                        weighted=None) -> sp.csr_matrix:
    """Hessian of the discrete alpha-energy with the sphere-constraint correction.

    H = kron(K_w, I_C) + S^T diag(c) S - diag(lambda) in ambient coordinates
    (row v*C + c is coordinate c at vertex v), with (K_w, K_w f) =
    ``weighted``, built here when not given (see _weighted_stiffness).  Row
    f of S holds s_f = k_f f at face f's corners, and c_f >= 0, the
    derivative of w_f along s_f, gives one rank-one term per face; it
    vanishes at alpha = 1.  K_w f is the unconstrained gradient, so
    lambda = <K_w f, f> per vertex.
    """
    K_w, raw = _weighted_stiffness(sphere_map, alpha) if weighted is None else weighted
    mesh = sphere_map.mesh
    values = sphere_map.values
    V, C = values.shape
    lam = np.sum(raw * values, axis=1)
    H = sp.kron(K_w, sp.eye(C), format="csr")
    if alpha > 1.0:
        g, _ = element_density_area_one(sphere_map)
        c = alpha * (alpha - 1.0) * (1.0 + g) ** (alpha - 2.0) \
            * (2.0 * FOUR_PI / mesh.face_areas)
        # S carries sqrt(c_f) s_f, so that the product S^T S is exactly symmetric
        s = np.sqrt(c)[:, None, None] * np.einsum("fij,fjc->fic", mesh.face_stiffness,
                                                  values[mesh.faces])
        S = sp.csr_matrix(
            (s.reshape(-1), (mesh.faces[:, :, None] * C + np.arange(C)).reshape(-1),
             np.arange(0, s.size + 1, 3 * C)),
            shape=(mesh.face_count, V * C),
        )
        H = H + S.T @ S
    return (H - sp.diags(np.repeat(lam, C))).tocsr()


def _frame_matrix(frame: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal sparse matrix from per-vertex frames (V, C, dim)."""
    v, C, dim = frame.shape
    cols = np.arange(v)[:, None, None] * dim + np.arange(dim)
    return sp.csr_matrix(
        (frame.reshape(-1), np.broadcast_to(cols, frame.shape).reshape(-1),
         np.arange(0, frame.size + 1, dim)),
        shape=(v * C, v * dim),
    )


def _reduced_pencil(sphere_map: SphereMap, alpha: float, frames: np.ndarray,
                    kind: str, H: sp.csr_matrix) -> SecondVariationPencil:
    """The constrained Hessian H and the coordinatewise mass matrix, both
    reduced to frames."""
    B = _frame_matrix(frames)
    M = assemble_pencil(sphere_map.mesh).M
    M_amb = sp.kron(M, sp.eye(sphere_map.n + 1, format="csr"), format="csr")
    return SecondVariationPencil(
        H=(B.T @ H @ B).tocsr(),
        M=(B.T @ M_amb @ B).tocsr(),
        frame=frames,
        base=sphere_map,
        alpha=alpha,
        kind=kind,
    )


def _tangent_frames(sphere_map: SphereMap) -> np.ndarray:
    """Orthonormal bases of the per-vertex tangent spaces, shape (V, C, C-1)."""
    vals = sphere_map.values
    v, C = vals.shape
    proj = np.eye(C)[None, :, :] - vals[:, :, None] * vals[:, None, :]
    _, svals, vt = np.linalg.svd(proj)
    frames = vt[:, : C - 1, :].transpose(0, 2, 1)
    if np.min(svals[:, : C - 1]) < 0.5:
        raise PreconditionError("tangent projector unexpectedly degenerate")
    return frames


def _image_tangent_planes(sphere_map: SphereMap):
    """Per-vertex area-weighted projector onto the image tangent plane."""
    mesh = sphere_map.mesh
    faces = mesh.faces
    vals = sphere_map.values[faces]
    C = sphere_map.n + 1
    e1 = vals[:, 1] - vals[:, 0]
    e2 = vals[:, 2] - vals[:, 0]
    # orthonormalize the element image frame
    n1 = np.linalg.norm(e1, axis=1)
    degenerate = n1 < 1e-12
    u1 = np.where(degenerate[:, None], 0.0, e1 / np.where(degenerate, 1.0, n1)[:, None])
    e2p = e2 - np.einsum("fc,fc->f", e2, u1)[:, None] * u1
    n2 = np.linalg.norm(e2p, axis=1)
    degenerate |= n2 < 1e-12
    u2 = np.where(degenerate[:, None], 0.0, e2p / np.where(degenerate, 1.0, n2)[:, None])
    proj = np.einsum("fc,fd->fcd", u1, u1) + np.einsum("fc,fd->fcd", u2, u2)
    acc = np.zeros((mesh.vertex_count, C, C))
    weights = mesh.face_areas
    np.add.at(acc, faces.reshape(-1),
              np.repeat(weights[:, None, None] * proj, 3, axis=0).reshape(-1, C, C))
    return acc, degenerate


def assemble_second_variation(sphere_map: SphereMap, alpha: float,
                              warn_threshold: float = 0.05) -> SecondVariationPencil:
    """Second-variation pencil of the alpha-energy on tangent fields.

    Warns when the map is visibly non-critical (the Hessian then has no
    index interpretation).  The mass side is the consistent mass matrix of
    the domain acting diagonally on coordinates, reduced to the frames.
    """
    weighted = _weighted_stiffness(sphere_map, alpha)
    raw = weighted[1]
    tang = raw - np.sum(raw * sphere_map.values, axis=1)[:, None] * sphere_map.values
    rawn = np.linalg.norm(raw)
    if rawn > 0 and np.linalg.norm(tang) / rawn > warn_threshold:
        warnings.warn("map is far from critical; Hessian spectrum is only formal",
                      stacklevel=2)
    return _reduced_pencil(sphere_map, alpha, _tangent_frames(sphere_map), "tangent",
                           constrained_hessian(sphere_map, alpha, weighted))


def normal_second_variation(sphere_map: SphereMap, alpha: float = 1.0,
                            density_floor: float = 1e-6) -> SecondVariationPencil:
    """Pencil restricted to fields orthogonal to the map and its image plane.

    Requires an immersed map: elements whose image is (numerically) rank
    deficient are collected into a DegenerateElementsError.
    """
    C = sphere_map.n + 1
    if C - 3 <= 0:
        raise PreconditionError("normal bundle is trivial for n < 3")
    g, _ = element_density_area_one(sphere_map)
    low = g < density_floor * float(np.mean(g))
    acc, degenerate = _image_tangent_planes(sphere_map)
    if np.any(low | degenerate):
        bad = np.where(low | degenerate)[0]
        raise DegenerateElementsError(
            f"{len(bad)} elements are not immersed", elements=bad.tolist()
        )
    vals = sphere_map.values
    proj_full = acc / np.trace(acc, axis1=1, axis2=2)[:, None, None]
    # admissible subspace: orthogonal to span{f, image plane}
    killed = proj_full + vals[:, :, None] * vals[:, None, :]
    _, svals, vt = np.linalg.svd(np.eye(C)[None] - killed)
    frames = vt[:, : C - 3, :].transpose(0, 2, 1)
    return _reduced_pencil(sphere_map, alpha, frames, "normal",
                           constrained_hessian(sphere_map, alpha))


def pencil_eigenvalues(H: sp.spmatrix, M: sp.spmatrix, k: int,
                       sigma: float = -8.0):
    """k smallest eigenvalues of H v = lambda M v (M positive definite)."""
    if k < 1:
        raise PreconditionError("need k >= 1 eigenvalues")
    k = min(k, H.shape[0] - 1)
    rng = np.random.default_rng(_EIG_SEED)
    v0 = rng.standard_normal(H.shape[0])
    try:
        vals = eigsh(H.tocsc(), k=k, M=M.tocsc(), sigma=sigma, which="LM", v0=v0,
                     return_eigenvectors=False, maxiter=5000)
        return np.sort(vals), True
    except ArpackNoConvergence as exc:
        vals = np.sort(exc.eigenvalues) if exc.eigenvalues is not None else np.array([])
        return vals, False


def classify_spectrum(vals: np.ndarray, converged: bool, k: int,
                      tau: float) -> SpectrumReport:
    """Index (eigenvalues below -tau) and nullity (|eigenvalue| <= tau)."""
    return SpectrumReport(
        eigenvalues=vals,
        index=int(np.count_nonzero(vals < -tau)),
        nullity=int(np.count_nonzero(np.abs(vals) <= tau)),
        tau=tau,
        k=k,
        converged=converged,
    )


def morse_index_nullity(pencil: SecondVariationPencil, k: int,
                        tau: float) -> SpectrumReport:
    """Classify the k lowest pencil eigenvalues by the threshold tau."""
    vals, converged = pencil_eigenvalues(pencil.H, pencil.M, k)
    return classify_spectrum(vals, converged, k, tau)


def expected_equator_counts(n: int):
    """Analytic index and nullity of the totally geodesic sphere in S^n.

    Each of the n - 2 normal directions contributes one negative direction
    (eigenvalue -2) and three null directions (the tilt rotations); the
    conformal reparametrizations contribute six more null directions.
    """
    return n - 2, 3 * (n - 2) + 6


def split_spectrum(sphere_map: SphereMap, alpha: float, k: int):
    """(eigenvalues, converged): the k lowest of the map's second-variation pencil.

    The pencil splits exactly (Simons 1968).  Let m >= 2 index the last
    column of the values that is not identically zero.  S has nonzeros
    only in columns 0 .. m and lambda is the same for every coordinate, so
    the Hessian is that of the head map into S^m (a pencil of size mV) and
    n - m copies of the scalar pencil (K_w - diag(lambda), M), of which the
    k lowest need only ceil(k / (n - m)) scalar eigenvalues.  A map that
    uses every column is solved as its full pencil.  The read-only list is
    as long as a solve of the full pencil, of size nV, returns: min(k, nV - 1).
    """
    mesh, n = sphere_map.mesh, sphere_map.n
    m = max(2, int(np.flatnonzero(np.any(sphere_map.values != 0.0, axis=0))[-1]))
    head = sphere_map if m == n else SphereMap(mesh, m, sphere_map.values[:, :m + 1])
    tangent = assemble_second_variation(head, alpha)
    vals, converged = _lowest_eigenvalues(tangent.H, tangent.M, k)
    copies = n - m
    if copies:
        K_w, raw = _weighted_stiffness(head, alpha)
        scalar = (K_w - sp.diags(np.sum(raw * head.values, axis=1))).tocsr()
        scalar_vals, scalar_ok = _lowest_eigenvalues(
            scalar, assemble_pencil(mesh).M, -(-k // copies))
        vals = np.concatenate([vals, np.repeat(scalar_vals, copies)])
        converged = converged and scalar_ok
    vals = np.sort(vals)[:min(k, n * mesh.vertex_count - 1)]
    vals.setflags(write=False)
    return vals, converged


def equator_spectrum(mesh: SphereMesh, n: int, alpha: float, k: int):
    """split_spectrum of the equator in S^n, cached on the mesh per (n, alpha, k).

    The tau calibration and a spectrum run with the same k and alpha share
    one solve.  Only the eigenvalues are kept, read-only; the pencils are
    dropped.
    """
    return mesh._cached(("equator_spectrum", n, round(alpha, 12), k),
                        lambda: split_spectrum(equator_map(mesh, n), alpha, k))


def _lowest_eigenvalues(H: sp.spmatrix, M: sp.spmatrix, k: int):
    """pencil_eigenvalues, or every eigenvalue of a pencil too small for
    ARPACK to return k (it returns at most N - 1 of N)."""
    if k < H.shape[0] - 1:
        return pencil_eigenvalues(H, M, k)
    return scipy.linalg.eigh(H.toarray(), M.toarray(), eigvals_only=True), True


def calibrate_tau(mesh: SphereMesh, n: int, alpha: float = 1.0,
                  extra: int = 8) -> float:
    """Nullity threshold from the equator benchmark on this mesh level.

    The analytically null cluster and the first analytically nonzero
    eigenvalue are separated by orders of magnitude at practical levels;
    tau is their geometric mean.
    """
    index, nullity = expected_equator_counts(n)
    vals, converged = equator_spectrum(mesh, n, alpha, index + nullity + extra)
    if not converged:
        raise PreconditionError("eigensolver did not converge during calibration")
    null_block = np.abs(vals[index:index + nullity])
    first_nonzero = abs(vals[index + nullity])
    largest_null = float(np.max(null_block))
    if largest_null >= first_nonzero:
        raise PreconditionError(
            "null cluster is not separated at this level; cannot calibrate tau"
        )
    return math.sqrt(largest_null * first_nonzero)


# -- weight invariance of scalar pencils ---------------------------------------

def weighted_scalar_pencil(mesh: SphereMesh, potential: float,
                           vertex_weight: np.ndarray):
    """Both bilinear forms of the benchmark pencil weighted by mu^2.

    Weighting the integrands of  a(u, v) = int (-Lap u - phi u) v dA  and
    b(u, v) = int u v dA  by a positive factor mu^2 and integrating by
    parts gives

        a_w(u, v) = int [mu^2 grad u . grad v + v grad u . grad mu^2
                         - phi u v mu^2] dA,     b_w(u, v) = int u v mu^2 dA,

    a nonsymmetric pencil whose continuum spectrum equals the unweighted
    one exactly (the weight can be absorbed into the test function).  The
    weight is P1-interpolated from the vertex values, so discretely the
    spectra differ by quadrature error only.
    """
    w = np.asarray(vertex_weight, dtype=float)
    if w.shape != (mesh.vertex_count,) or np.min(w) <= 0:
        raise PreconditionError("weight must be positive per vertex")
    faces = mesh.faces
    elem_w = w[faces].mean(axis=1)
    K_w = assemble_faces(mesh, elem_w[:, None, None] * mesh.face_stiffness)
    M_w = assemble_faces(mesh, (elem_w * mesh.face_areas)[:, None, None] * MASS_LOCAL)
    # advection block: G[i, j] = sum_T (grad lam_j . grad mu^2)_T * A_T / 3, where
    # grad lam_j . grad lam_i = k_ji / (flat area) on the flat triangle
    grad_dots = np.einsum("fji,fi->fj", mesh.face_stiffness, w[faces]) \
        / mesh.face_flat_areas[:, None]
    g_row = (mesh.face_areas / 3.0)[:, None] * grad_dots     # the same for every i
    G = assemble_faces(mesh, np.repeat(g_row[:, None, :], 3, axis=1))
    return (K_w + G - potential * M_w).tocsr(), M_w


def scaling_invariance_check(mesh: SphereMesh, potential: float,
                             vertex_weight: np.ndarray, k: int = 10,
                             mu_min: float = 1e-8) -> float:
    """Spectral distance between a scalar pencil and its weighted version.

    Returns the maximum per-eigenvalue discrepancy between the k smallest
    eigenvalues of the benchmark pencil and of its mu^2-weighted form,
    each difference normalized by max(|lambda|, 1).  Exact equality holds
    only in the continuum; the discrepancy must vanish under refinement.
    """
    w = np.asarray(vertex_weight, dtype=float)
    if np.min(w) < mu_min:
        raise PreconditionError("weight must be bounded away from zero")
    # the baseline runs through the identical assembly and solver path with a
    # unit weight, so a unit input weight yields exact equality
    A0, B0 = weighted_scalar_pencil(mesh, potential, np.ones(mesh.vertex_count))
    A1, B1 = weighted_scalar_pencil(mesh, potential, w)
    k = min(k, mesh.vertex_count - 4)
    sigma = -potential - 3.0
    rng = np.random.default_rng(_EIG_SEED)
    v0 = rng.standard_normal(mesh.vertex_count)
    # a buffer plus a generous Krylov size so degenerate clusters resolve fully
    k_req = min(k + 3, mesh.vertex_count - 2)
    ncv = min(mesh.vertex_count, max(6 * k_req, 60))

    def low_spectrum(A, B):
        lam = eigs(A.tocsc(), k=k_req, M=B.tocsc(), sigma=sigma, which="LM",
                   v0=v0, ncv=ncv, return_eigenvectors=False)
        return np.sort(lam.real)[:k]

    vals0 = low_spectrum(A0, B0)
    vals1 = low_spectrum(A1, B1)
    denom = np.maximum(np.abs(vals0), 1.0)
    return float(np.max(np.abs(vals0 - vals1) / denom))


# -- logarithmic cutoff -----------------------------------------------------------

@dataclass(frozen=True)
class CutoffProfile:
    """Radial cutoff: 0 inside r <= eps^2, log-linear ramp up to 1 at r = eps."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise PreconditionError("epsilon must lie in (0, 1)")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        eps = self.epsilon
        ramp = 2.0 - np.log(np.maximum(r, 1e-300)) / math.log(eps)
        out = np.where(r <= eps * eps, 0.0, np.where(r >= eps, 1.0, ramp))
        return float(out) if np.ndim(r) == 0 else out

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        eps = self.epsilon
        inside = (r > eps * eps) & (r < eps)
        out = np.where(inside, -1.0 / (np.maximum(r, 1e-300) * math.log(eps)), 0.0)
        return float(out) if np.ndim(r) == 0 else out


def cutoff_profile(epsilon: float) -> CutoffProfile:
    return CutoffProfile(epsilon)


def cutoff_dirichlet_energy(epsilon: float) -> float:
    """Flat Dirichlet energy of the cutoff: integral of (d phi/dr)^2 r dr dtheta.

    Evaluated by quadrature on the ramp region; equals -2 pi / log(eps).
    """
    from scipy.integrate import quad  # imported on use: it slows every start-up

    profile = cutoff_profile(epsilon)
    value, _ = quad(lambda r: profile.derivative(r) ** 2 * r,
                    epsilon**2, epsilon, limit=200)
    return 2.0 * math.pi * value


def index_energy_diagnostic(records) -> float:
    """Smallest (index + 1)/energy ratio over measured critical points.

    ``records`` is a nonempty iterable of (energy, index) pairs or of
    objects exposing those attributes.
    """
    ratios = []
    for item in records:
        if isinstance(item, tuple):
            energy, index = item
        else:
            energy, index = item.energy, item.index
        if energy <= 0:
            raise PreconditionError("diagnostic needs positive energies")
        ratios.append((index + 1) / energy)
    if not ratios:
        raise PreconditionError("diagnostic needs at least one record")
    return min(ratios)
