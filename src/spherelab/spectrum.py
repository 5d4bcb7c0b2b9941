"""Second-variation pencils, Morse index and nullity, and spectral checks.

The Hessian is the exact second derivative of the discrete alpha-energy on
the tangent space of the unit-sphere constraint.  Every pencil is built from
two parts made once per map: the scalar Hessian A = K_w - diag(lambda), the
weighted stiffness less the constraint's multiplier, and for alpha > 1 the
face rows S.  In per-vertex orthonormal tangent or normal frames F it is
(A (x) F + (S F)^T (S F), M (x) F), built by _framed_pencil; the ambient
Hessian is its H in identity frames, kron(A, I) + S^T S.
Pencils are solved by shift-invert Lanczos on SphereMesh.factor, from a fixed v0.
Every index solve is split_spectrum: the coordinates a map leaves zero split
off as copies of the scalar pencil (A, M).  Only normal_second_variation and
the tests build the full pencil of size nV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigs, eigsh

from .energy import (SphereMap, _face_blocks, element_density_area_one, equator_map,
                     head_map, project_tangent)
from .errors import DegenerateElementsError, PreconditionError
from .sphere_mesh import (FOUR_PI, MASS_LOCAL, SphereMesh, assemble_faces,
                          assemble_pencil)

_EIG_SEED = 20240
# block rows per slab of _in_frames
FRAME_ROWS = 1 << 9
# a map whose tangent gradient exceeds this fraction of its raw gradient is
# far from critical: its Hessian spectrum is only formal
FAR_FROM_CRITICAL = 0.05
# eigenvalues past the equator's index and nullity in calibrate_tau's solve
EXTRA_K = 8


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
    mesh: SphereMesh

    @property
    def dim(self) -> int:
        return self.H.shape[0]


def _hessian_parts(sphere_map: SphereMap, alpha: float):
    """(A, s, K_w f): the scalar Hessian, the face rows and the raw gradient.

    K_w is the stiffness with face f weighted by w_f = alpha (1 + |df|^2)^(alpha-1)
    and K_w f the raw gradient, so lambda = <K_w f, f> per vertex is the
    multiplier and A = K_w - diag(lambda).  The face rows s (F, 3, C) hold
    sqrt(c_f) k_f f at face f's corners, c_f >= 0 the derivative of w_f along
    k_f f; they vanish at alpha = 1, where s is None."""
    if not alpha >= 1.0:
        raise PreconditionError("alpha must be >= 1")
    mesh, values = sphere_map.mesh, sphere_map.values
    g, _ = element_density_area_one(sphere_map)
    w = alpha * (1.0 + g) ** (alpha - 1.0)
    k = mesh.face_stiffness
    K_w = assemble_faces(mesh, w[:, None, None] * k)
    raw = K_w @ values
    A = (K_w - sp.diags(np.sum(raw * values, axis=1))).tocsr()
    s = None
    if alpha > 1.0:
        c = alpha * (alpha - 1.0) * (1.0 + g) ** (alpha - 2.0) \
            * (2.0 * FOUR_PI / mesh.face_areas)
        s = np.sqrt(c)[:, None, None] * np.einsum("fij,fjc->fic", k, values[mesh.faces])
    return A, s, raw


def _in_frames(X: sp.csr_matrix, frames: np.ndarray) -> sp.csr_matrix:
    """X (x) F: the blocks X[a, b] F_a^T F_b of a symmetric V x V matrix X in
    per-vertex orthonormal frames F (V, C, d).  Those above the diagonal are
    made FRAME_ROWS block rows at a time, zeros dropped, and mirrored; a
    diagonal block is X[a, a] I, as F_a^T F_a = I.  So the result is exactly
    symmetric and stores no zero."""
    V, _, d = frames.shape
    U = sp.triu(X, k=1, format="csr")
    rows = np.repeat(np.arange(V), np.diff(U.indptr))
    slabs = []
    for lo in range(0, V, FRAME_ROWS):
        ptr = U.indptr[lo:lo + FRAME_ROWS + 1]
        part = slice(ptr[0], ptr[-1])
        gram = np.einsum("ncd,nce->nde", frames[rows[part]], frames[U.indices[part]])
        slab = sp.bsr_matrix((U.data[part, None, None] * gram, U.indices[part], ptr - ptr[0]),
                             shape=((len(ptr) - 1) * d, V * d)).tocsr()
        slab.eliminate_zeros()
        slabs.append(slab)
    U = sp.vstack(slabs, format="csr")
    return (U + U.T + sp.diags(np.repeat(X.diagonal(), d))).tocsr()


def _framed_pencil(sphere_map: SphereMap, parts, frames: np.ndarray,
                   warn_threshold: float = None) -> SecondVariationPencil:
    """(A (x) F + (S F)^T (S F), M (x) F) for the _hessian_parts A and S and the
    P1 mass matrix M, in the per-vertex orthonormal frames F (V, C, d).  Given
    warn_threshold, warns when the map's tangent gradient exceeds that fraction
    of its raw gradient: the Hessian of a visibly non-critical map is formal."""
    raw = parts[2]
    if warn_threshold is not None and np.linalg.norm(project_tangent(sphere_map, raw).values) \
            > warn_threshold * np.linalg.norm(raw):
        warnings.warn("map is far from critical; Hessian spectrum is only formal",
                      stacklevel=3)
    mesh = sphere_map.mesh
    H = _framed_hessian(mesh, parts, frames)
    M = _in_frames(assemble_pencil(mesh).M, frames)
    return SecondVariationPencil(H, M, frames, mesh)


def _framed_hessian(mesh: SphereMesh, parts, frames: np.ndarray) -> sp.csr_matrix:
    """A (x) F + (S F)^T (S F): the H of _framed_pencil, without its mass side."""
    A, s, _ = parts
    H = _in_frames(A, frames)
    if s is not None:
        s = np.einsum("fic,ficd->fid", s, frames[mesh.faces])
        d = s.shape[2]
        R = sp.csr_matrix((s.reshape(-1), (mesh.faces[:, :, None] * d + np.arange(d)).reshape(-1),
                           np.arange(0, s.size + 1, 3 * d)),
                          shape=(mesh.face_count, mesh.vertex_count * d))
        H = (H + R.T @ R).tocsr()
    return H


def constrained_hessian(sphere_map: SphereMap, alpha: float) -> sp.csr_matrix:
    """Hessian of the discrete alpha-energy with the sphere-constraint correction
    in ambient coordinates (row v*C + c is coordinate c at vertex v): the
    _framed_pencil Hessian in identity frames, kron(A, I_C) + S^T S for the
    _hessian_parts A and S, built without the pencil's mass side."""
    V, C = sphere_map.values.shape
    return _framed_hessian(sphere_map.mesh, _hessian_parts(sphere_map, alpha),
                           np.broadcast_to(np.eye(C), (V, C, C)))


def _leading_frames(X: np.ndarray, d: int):
    """(frames, singular values): the d leading right singular vectors of each
    (C, C) matrix of X (V, C, C), as the columns of per-vertex orthonormal
    frames (V, C, d), and their (V, d) singular values."""
    _, svals, vt = np.linalg.svd(X)
    return vt[:, :d].transpose(0, 2, 1), svals[:, :d]


def _tangent_frames(sphere_map: SphereMap) -> np.ndarray:
    """Orthonormal bases of the per-vertex tangent spaces, shape (V, C, C-1)."""
    vals = sphere_map.values
    C = vals.shape[1]
    frames, svals = _leading_frames(np.eye(C) - vals[:, :, None] * vals[:, None, :], C - 1)
    if np.min(svals) < 0.5:
        raise PreconditionError("tangent projector unexpectedly degenerate")
    return frames


def _image_tangent_planes(sphere_map: SphereMap):
    """Per-vertex sums of each face's area times the projector onto its image
    plane: ((V, C, C), degenerate faces).  The image edges from corner a,
    -d0 and d2, come from the energy's face walk (energy._face_blocks); each
    block is orthonormalized and added in by SphereMesh.scatter_corners."""
    mesh = sphere_map.mesh
    C = sphere_map.n + 1
    acc = np.zeros((C * C, mesh.vertex_count))
    degenerate = np.empty(mesh.face_count, dtype=bool)
    for faces, d, _ in _face_blocks(sphere_map):
        e1, e2 = -d[:, 0], d[:, 2]
        n1 = np.linalg.norm(e1, axis=0)
        bad = n1 < 1e-12
        u1 = np.where(bad, 0.0, e1 / np.where(bad, 1.0, n1))
        e2p = e2 - np.einsum("cb,cb->b", e2, u1) * u1
        n2 = np.linalg.norm(e2p, axis=0)
        bad |= n2 < 1e-12
        u2 = np.where(bad, 0.0, e2p / np.where(bad, 1.0, n2))
        degenerate[faces] = bad
        proj = u1[:, None] * u1 + u2[:, None] * u2  # (C, C, B)
        mesh.scatter_corners(acc, faces, (mesh.face_areas[faces] * proj).reshape(C * C, -1, 1))
    return acc.T.reshape(-1, C, C), degenerate


def assemble_second_variation(sphere_map: SphereMap, alpha: float) -> SecondVariationPencil:
    """Second-variation pencil of the alpha-energy on tangent fields.

    Warns when the map is visibly non-critical, its tangent gradient above
    FAR_FROM_CRITICAL of its raw gradient (the Hessian then has no index
    interpretation).  The mass side is the consistent mass matrix of
    the domain acting diagonally on coordinates, in the frames.
    """
    return _framed_pencil(sphere_map, _hessian_parts(sphere_map, alpha),
                          _tangent_frames(sphere_map), FAR_FROM_CRITICAL)


def normal_second_variation(sphere_map: SphereMap, alpha: float = 1.0) -> SecondVariationPencil:
    """Pencil restricted to fields orthogonal to the map and its image plane.

    Requires an immersed map: elements whose image is (numerically) rank
    deficient, or whose energy density is below 1e-6 of the mean, are
    collected into a DegenerateElementsError.
    """
    C = sphere_map.n + 1
    if C - 3 <= 0:
        raise PreconditionError("normal bundle is trivial for n < 3")
    g, _ = element_density_area_one(sphere_map)
    low = g < 1e-6 * float(np.mean(g))
    acc, degenerate = _image_tangent_planes(sphere_map)
    if np.any(low | degenerate):
        bad = np.where(low | degenerate)[0]
        raise DegenerateElementsError(f"{len(bad)} elements are not immersed",
                                      elements=bad.tolist())
    vals = sphere_map.values
    proj_full = acc / np.trace(acc, axis1=1, axis2=2)[:, None, None]
    # admissible subspace: orthogonal to span{f, image plane}
    killed = proj_full + vals[:, :, None] * vals[:, None, :]
    frames, _ = _leading_frames(np.eye(C) - killed, C - 3)
    return _framed_pencil(sphere_map, _hessian_parts(sphere_map, alpha), frames)


def pencil_eigenvalues(H: sp.spmatrix, M: sp.spmatrix, k: int, mesh: SphereMesh):
    """(eigenvalues, converged): the k of H v = lambda M v (M > 0) nearest -8, sorted,
    by shift-invert through mesh.factor(H + 8M): not the k lowest where the spectrum
    reaches below -8, as a far-from-critical map's can.  All N if k >= N - 1."""
    if k < 1:
        raise PreconditionError("need k >= 1 eigenvalues")
    if k >= H.shape[0] - 1:  # ARPACK returns at most N - 1 of N: solve a pencil this small densely
        return scipy.linalg.eigh(H.toarray(), M.toarray(), eigvals_only=True), True
    v0 = np.random.default_rng(_EIG_SEED).standard_normal(H.shape[0])
    try:
        vals = eigsh(H, k=k, M=M, sigma=-8.0, which="LM", v0=v0,
                     OPinv=mesh.factor(H + 8.0 * M), return_eigenvectors=False, maxiter=5000)
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
    vals, converged = pencil_eigenvalues(pencil.H, pencil.M, k, pencil.mesh)
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
    the Hessian is that of the head map into S^m (energy.head_map, a pencil
    of size mV) and n - m copies of the scalar pencil (K_w - diag(lambda),
    M), of which the k lowest need only ceil(k / (n - m)) scalar
    eigenvalues.  A map that uses every column is solved as its full
    pencil.  The read-only list is as long as a solve of the full pencil,
    of size nV, returns: min(k, nV - 1).
    """
    mesh, n = sphere_map.mesh, sphere_map.n
    head = head_map(sphere_map)
    m = head.n
    parts = A, _, _ = _hessian_parts(head, alpha)
    tangent = _framed_pencil(head, parts, _tangent_frames(head), FAR_FROM_CRITICAL)
    vals, converged = pencil_eigenvalues(tangent.H, tangent.M, k, mesh)
    copies = n - m
    if copies:
        scalar_vals, scalar_ok = pencil_eigenvalues(
            A, assemble_pencil(mesh).M, -(-k // copies), mesh)
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


def calibrate_tau(mesh: SphereMesh, n: int) -> float:
    """Nullity threshold from the equator benchmark (alpha = 1) on this mesh level.

    The analytically null cluster and the first analytically nonzero
    eigenvalue are separated by orders of magnitude at practical levels;
    tau is their geometric mean.
    """
    index, nullity = expected_equator_counts(n)
    vals, converged = equator_spectrum(mesh, n, 1.0, index + nullity + EXTRA_K)
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
    k = mesh.face_stiffness
    K_w = assemble_faces(mesh, elem_w[:, None, None] * k)
    M_w = assemble_faces(mesh, (elem_w * mesh.face_areas)[:, None, None] * MASS_LOCAL)
    # advection block: G[i, j] = sum_T (grad lam_j . grad mu^2)_T * A_T / 3, where
    # grad lam_j . grad lam_i = k_ji / (flat area) on the flat triangle
    grad_dots = np.einsum("fji,fi->fj", k, w[faces]) \
        / mesh.face_flat_areas[:, None]
    g_row = (mesh.face_areas / 3.0)[:, None] * grad_dots     # the same for every i
    G = assemble_faces(mesh, np.repeat(g_row[:, None, :], 3, axis=1))
    return (K_w + G - potential * M_w).tocsr(), M_w


def scaling_invariance_check(mesh: SphereMesh, potential: float,
                             vertex_weight: np.ndarray) -> float:
    """Spectral distance between a scalar pencil and its weighted version.

    The weight must be at least 1e-8 everywhere.  Returns the maximum
    per-eigenvalue discrepancy between the 10 smallest eigenvalues of the
    benchmark pencil and of its mu^2-weighted form, each difference
    normalized by max(|lambda|, 1).  Exact equality holds only in the
    continuum; the discrepancy must vanish under refinement.
    """
    w = np.asarray(vertex_weight, dtype=float)
    if np.min(w) < 1e-8:
        raise PreconditionError("weight must be bounded away from zero")
    # the baseline runs through the identical assembly and solver path with a
    # unit weight, so a unit input weight yields exact equality
    A0, B0 = weighted_scalar_pencil(mesh, potential, np.ones(mesh.vertex_count))
    A1, B1 = weighted_scalar_pencil(mesh, potential, w)
    k = min(10, mesh.vertex_count - 4)
    sigma = -potential - 3.0
    v0 = np.random.default_rng(_EIG_SEED).standard_normal(mesh.vertex_count)
    # a buffer plus a generous Krylov size so degenerate clusters resolve fully
    k_req = min(k + 3, mesh.vertex_count - 2)
    ncv = min(mesh.vertex_count, max(6 * k_req, 60))

    def low_spectrum(A, B):
        lam = eigs(A, k=k_req, M=B, sigma=sigma, which="LM", v0=v0, ncv=ncv,
                   OPinv=mesh.factor(A - sigma * B), return_eigenvectors=False)
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


def cutoff_dirichlet_energy(epsilon: float) -> float:
    """Flat Dirichlet energy of the cutoff: integral of (d phi/dr)^2 r dr dtheta.

    Evaluated by quadrature on the ramp region; equals -2 pi / log(eps).
    """
    from scipy.integrate import quad  # imported on use: it slows every start-up

    profile = CutoffProfile(epsilon)
    value, _ = quad(lambda r: profile.derivative(r) ** 2 * r,
                    epsilon**2, epsilon, limit=200)
    return 2.0 * math.pi * value

