"""Dirichlet and alpha energies of discretized sphere maps.

A map is stored as one unit (n+1)-vector per mesh vertex and treated as
piecewise linear over the faces.  The energy density is constant per
element; the alpha-energy applies the area-one convention on read (dA is
scaled by 1/(4*pi) and |df|^2 by 4*pi), so maps built on unit-round meshes
need no conversion.  Gradients differentiate the discrete functional
exactly and are then projected pointwise into the tangent space of the
target sphere ("discretize then optimize").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, InvariantViolationError, NumericError,
                     PreconditionError)
from .sphere_mesh import FOUR_PI, SphereMesh

# below this t, psi_alpha sums its Taylor series: the relative error of the
# series through t^5 is about 3e-13 there for alpha in [1, 5]
PSI_SERIES_T = 1e-3

# faces per block of the energy and gradient kernel: a block's few (C, 3, B)
# temporaries stay in cache, and no per-face (C, 3, F) array is ever held
FACE_BLOCK = 1 << 12

_AXES = {"x": np.array([1.0, 0.0, 0.0]),
         "y": np.array([0.0, 1.0, 0.0]),
         "z": np.array([0.0, 0.0, 1.0])}


@dataclass(frozen=True, eq=False)
class SphereMap:
    """Discrete map from the mesh into the unit sphere of R^(n+1).

    The map is immutable: ``values`` is a read-only view of the array it
    was built from (not a copy, so the caller must not write to that
    array afterwards), and element_energy_integrals keeps its result on
    the map.  A map made by padded keeps the map it was padded from, which
    head_map returns.
    """

    mesh: SphereMesh
    n: int
    values: np.ndarray  # (V, n+1), unit rows
    _integrals: np.ndarray = field(default=None, init=False, repr=False)
    _head: SphereMap = field(default=None, init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.n < 2:
            raise PreconditionError("target dimension n must be >= 2")
        if self.values.shape != (self.mesh.vertex_count, self.n + 1):
            raise PreconditionError(
                f"values shape {self.values.shape} does not match mesh/target"
            )
        norms = np.linalg.norm(self.values, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise PreconditionError("map values must be unit vectors (within 1e-10)")

    def copy(self):
        return SphereMap(self.mesh, self.n, self.values.copy())


@dataclass(eq=False)
class TangentField:
    """Per-vertex vectors orthogonal to the corresponding map values."""

    base: SphereMap
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.base.values.shape:
            raise PreconditionError("tangent field shape mismatch")
        dots = np.abs(np.sum(self.values * self.base.values, axis=1))
        if dots.size and dots.max() > 1e-10:
            raise PreconditionError("field is not pointwise tangent (within 1e-10)")

    @property
    def mesh(self):
        return self.base.mesh

    def norm(self):
        return float(np.linalg.norm(self.values))


def normalize_rows(values):
    values = np.asarray(values, dtype=float)
    norms = np.linalg.norm(values, axis=1)
    if np.any(norms == 0):
        raise PreconditionError("cannot normalize a zero row")
    return values / norms[:, None]


# -- map constructors ---------------------------------------------------------

def equator_map(mesh: SphereMesh, n: int) -> SphereMap:
    """Totally geodesic inclusion of the domain sphere into S^n."""
    vals = np.zeros((mesh.vertex_count, n + 1))
    vals[:, :3] = mesh.vertices
    return SphereMap(mesh, n, vals)


def constant_map(mesh: SphereMesh, n: int, point=None) -> SphereMap:
    if point is None:
        point = np.eye(n + 1)[0]
    point = np.asarray(point, dtype=float)
    point = point / np.linalg.norm(point)
    vals = np.tile(point, (mesh.vertex_count, 1))
    return SphereMap(mesh, n, vals)


def random_map(mesh: SphereMesh, n: int, rng) -> SphereMap:
    vals = rng.standard_normal((mesh.vertex_count, n + 1))
    return SphereMap(mesh, n, normalize_rows(vals))


def perturbed_constant_map(mesh: SphereMesh, n: int, rng, eps=0.1) -> SphereMap:
    base = np.eye(n + 1)[0]
    vals = base[None, :] + eps * rng.standard_normal((mesh.vertex_count, n + 1))
    return SphereMap(mesh, n, normalize_rows(vals))


# -- live columns -------------------------------------------------------------

def head_map(sphere_map: SphereMap) -> SphereMap:
    """The same map into S^m, on the columns 0 .. m of its values.

    m is the index of the last column that is not identically zero, or 2
    if that index is smaller.  The energy, its gradient, the (K + M)
    solve, the renormalization and the recentering all keep a zero column
    zero, so a flow or a spectrum of the map can run on its head and be
    padded back.  A map that uses every column is its own head; a map made
    by padded returns the map it was padded from, with what that map keeps.
    """
    if sphere_map._head is not None:
        return sphere_map._head
    values = sphere_map.values
    m = max(2, int(np.flatnonzero(np.any(values != 0.0, axis=0))[-1]))
    if m == sphere_map.n:
        return sphere_map
    return SphereMap(sphere_map.mesh, m, values[:, :m + 1])


def padded(head: SphereMap, n: int) -> SphereMap:
    """The map into S^n whose columns after head.n are zero; head_map of it
    is head.  A map is its own padding to its n."""
    if n == head.n:
        return head
    if n < head.n:
        raise PreconditionError(f"cannot pad a map into S^{head.n} to S^{n}")
    values = np.zeros((head.mesh.vertex_count, n + 1))
    values[:, :head.n + 1] = head.values
    out = SphereMap(head.mesh, n, values)
    object.__setattr__(out, "_head", head)
    return out


def project_tangent(sphere_map: SphereMap, field_values: np.ndarray) -> TangentField:
    """Remove the component along the map values at every vertex."""
    field_values = np.asarray(field_values, dtype=float)
    if field_values.shape != sphere_map.values.shape:
        raise PreconditionError("field shape does not match the map")
    dots = np.sum(field_values * sphere_map.values, axis=1)
    return TangentField(sphere_map, field_values - dots[:, None] * sphere_map.values)


def random_tangent_field(sphere_map: SphereMap, rng) -> TangentField:
    return project_tangent(sphere_map, rng.standard_normal(sphere_map.values.shape))


def dilated_equator_map(mesh: SphereMesh, n: int, t: float, axis="z",
                        rotation=None) -> SphereMap:
    """Equator map precomposed with a conformal dilation of the domain.

    The dilation is applied analytically to the vertex positions before
    sampling, so no interpolation error enters.  An optional domain
    rotation is applied first.
    """
    pts = mesh.vertices
    if rotation is not None:
        pts = pts @ np.asarray(rotation, dtype=float).T
    pts = dilate_points(pts, t, axis=axis)
    vals = np.zeros((mesh.vertex_count, n + 1))
    vals[:, :3] = pts
    return SphereMap(mesh, n, normalize_rows(vals))


# -- densities and energies ---------------------------------------------------

def _face_blocks(sphere_map: SphereMap):
    """Walk the faces FACE_BLOCK at a time in the cotangent edge form.

    Yields (faces, d, c) per block of B faces: the block's slice; the edge
    differences d[:, e] = f_e - f_(e+1), that is f_a - f_b, f_b - f_c and
    f_c - f_a, as a (C, 3, B) array; and their cotangent weights -k_01,
    -k_12, -k_02, a (3, B) view of mesh.face_cotangents.  Faces run along
    the last axis, so every elementwise step works on rows of B contiguous
    values.
    """
    mesh = sphere_map.mesh
    columns = np.ascontiguousarray(sphere_map.values.T)  # (C, V)
    for faces, corners in mesh.corner_blocks(columns, FACE_BLOCK):
        d = np.empty_like(corners)
        for e in range(3):
            np.subtract(corners[:, e], corners[:, (e + 1) % 3], out=d[:, e])
        yield faces, d, mesh.face_cotangents[:, faces]


def _block_integrals(d, c):
    """q_f = sum_e c_e |d_e|^2, the integral of |df|^2 over each face of a block.

    This is the Pinkall-Polthier edge form: the rows of k sum to zero, so
    q_f equals sum_ij k_ij f_i . f_j.
    """
    sq = np.einsum("ceb,ceb->eb", d, d)
    return c[0] * sq[0] + c[1] * sq[1] + c[2] * sq[2]


def element_energy_integrals(sphere_map: SphereMap) -> np.ndarray:
    """Per-element values of the integral of |df|^2 over the element.

    The kernel runs on the first call for a map; the read-only result is
    kept on the map, and every energy, gradient, center of mass and
    density of that map reads it.
    """
    q = sphere_map._integrals
    if q is None:
        q = np.empty(sphere_map.mesh.face_count)
        for faces, d, c in _face_blocks(sphere_map):
            q[faces] = _block_integrals(d, c)
        _keep_integrals(sphere_map, q)
    return q


def _keep_integrals(sphere_map: SphereMap, q: np.ndarray) -> None:
    q.flags.writeable = False
    object.__setattr__(sphere_map, "_integrals", q)


def _density(q, areas):
    """|df|^2 per element in the area-one convention, clipped at zero."""
    return np.maximum(FOUR_PI * q / areas, 0.0)


def element_density_area_one(sphere_map: SphereMap):
    """Per-element (|df|^2, dA) under the area-one convention.

    The density is clipped at zero: it is nonnegative analytically but the
    assembled quadratic form can round to tiny negative values.
    """
    areas = sphere_map.mesh.face_areas
    return _density(element_energy_integrals(sphere_map), areas), areas / FOUR_PI


def dirichlet_energy(sphere_map: SphereMap) -> float:
    """(1/2) * integral of |df|^2; independent of the area convention."""
    return 0.5 * float(element_energy_integrals(sphere_map).sum())


def alpha_energy(sphere_map: SphereMap, alpha: float) -> float:
    """Regularized energy (1/2) * integral of (1 + |df|^2)^alpha dA - 1/2.

    Density and area element are taken in the area-one convention.  The
    constant is subtracted elementwise (the measure has total mass one),
    which makes alpha_energy(f, 1) equal dirichlet_energy(f) to rounding
    and avoids cancellation for near-constant maps.  The face terms are
    summed exactly (math.fsum): a pairwise sum is off by about an ulp, more
    than the decrease of a descent step near a critical point, and the
    Armijo test compares such energies.
    """
    if alpha < 1.0:
        raise PreconditionError("alpha must be >= 1")
    g, da = element_density_area_one(sphere_map)
    return 0.5 * math.fsum((((1.0 + g) ** alpha - 1.0) * da).tolist())


def alpha_energy_raw_gradient(sphere_map: SphereMap, alpha: float) -> np.ndarray:
    """Gradient of the discrete alpha-energy before tangential projection.

    Face f adds w_f sum_j k_ij f_j to its vertex i, with the weight
    w_f = alpha (1 + |df|^2)^(alpha-1); in the edge form that is
    s_a = D_ab - D_ca, s_b = D_bc - D_ab, s_c = D_ca - D_bc for the
    weighted differences D_e = w_f c_e d_e.  The weights read the map's
    element_energy_integrals; a map that has none yet gets them from this
    walk, block by block, before SphereMesh.scatter_corners adds the block in.
    """
    mesh = sphere_map.mesh
    areas = mesh.face_areas
    q = sphere_map._integrals
    fill = q is None
    if fill:
        q = np.empty(mesh.face_count)
    out = np.zeros((sphere_map.values.shape[1], mesh.vertex_count))
    for faces, d, c in _face_blocks(sphere_map):
        if fill:
            q[faces] = _block_integrals(d, c)
        w = alpha * (1.0 + _density(q[faces], areas[faces])) ** (alpha - 1.0)
        d *= w * c
        s = np.empty((d.shape[0], d.shape[2], 3))  # s[:, f, i] for corner i of face f
        for e in range(3):  # s_a = D_ab - D_ca, s_b = D_bc - D_ab, s_c = D_ca - D_bc
            np.subtract(d[:, e], d[:, e - 1], out=s[:, :, e])
        mesh.scatter_corners(out, faces, s)
    if fill:
        _keep_integrals(sphere_map, q)
    return np.ascontiguousarray(out.T)


def alpha_energy_gradient(sphere_map: SphereMap, alpha: float) -> TangentField:
    return project_tangent(sphere_map, alpha_energy_raw_gradient(sphere_map, alpha))


# -- the center-of-mass weight function --------------------------------------

def psi_alpha(t, alpha: float):
    """Weight [alpha (1+t)^(alpha-1) t - (1+t)^alpha + 1] / (alpha - 1).

    Vanishes at t = 0, is strictly increasing for t > 0, and tends to
    t - log(1+t) as alpha -> 1.  With e = alpha - 1 and L = log(1+t) it is
    evaluated as t e^(eL) - expm1(eL)/e, which does not divide a cancelled
    difference by e, so it holds its digits for alpha near 1; alpha = 1
    itself takes t - log1p(t).  Every form cancels at small t, where the
    value is of order t^2, so entries below PSI_SERIES_T take the Taylor
    series instead.
    """
    if alpha < 1.0:
        raise PreconditionError("alpha must be >= 1")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise PreconditionError("psi_alpha requires t >= 0")
    scalar = np.ndim(t) == 0
    if alpha == 1.0:
        out = arr - np.log1p(arr)
    else:
        eps = alpha - 1.0
        el = eps * np.log1p(arr)
        out = arr * np.exp(el) - np.expm1(el) / eps
    out = np.asarray(out)  # the forms give a numpy scalar for scalar t
    small = arr < PSI_SERIES_T
    if np.any(small):  # series on the masked entries only: no full-size temporaries
        out[small] = _psi_series(arr[small], alpha)
    return float(out) if scalar else out


def _psi_series(t, alpha: float):
    """psi_alpha to order t^5: integral_0^t alpha tau (1 + tau)^(alpha-2) dtau.

    alpha t^2/2 + alpha(alpha-2) t^3/3 + alpha(alpha-2)(alpha-3) t^4/8
    + alpha(alpha-2)(alpha-3)(alpha-4) t^5/30, in Horner form.
    """
    inner = 1.0 / 8.0 + t * (alpha - 4.0) / 30.0
    inner = 1.0 / 3.0 + t * (alpha - 3.0) * inner
    return alpha * t * t * (0.5 + t * (alpha - 2.0) * inner)


def center_of_mass(sphere_map: SphereMap, alpha: float) -> np.ndarray:
    """Integral of X psi_alpha(|df|^2) dA, with X the domain position.

    The area-one convention is applied on read.  The integral vanishes at
    alpha-critical points and is used to normalize the conformal gauge.
    """
    g, da = element_density_area_one(sphere_map)
    return sphere_map.mesh.face_centroids.T @ (psi_alpha(g, alpha) * da)


def mean_density_area_one(sphere_map: SphereMap) -> float:
    g, da = element_density_area_one(sphere_map)
    return float(np.sum(g * da) / np.sum(da))


# -- conformal dilations of the domain ---------------------------------------

def dilate_points(points, t: float, axis="z"):
    """Conformal dilation of the sphere along an axis.

    In the cylindrical coordinate u with height = tanh(u) along the axis,
    the dilation sends u to u + t and fixes the angle; the two poles on
    the axis are fixed points.
    """
    a = _AXES[axis] if isinstance(axis, str) else np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    pts = np.atleast_2d(points)
    c = np.clip(pts @ a, -1.0, 1.0)
    out = pts.copy()  # the two poles on the axis stay
    safe = 1.0 - np.abs(c) >= 1e-14
    u = np.arctanh(c[safe])
    c_new = np.tanh(u + t)
    s_old = np.sqrt(np.clip(1.0 - c[safe] ** 2, 0.0, None))
    s_new = np.sqrt(np.clip(1.0 - c_new**2, 0.0, None))
    perp = pts[safe] - c[safe, None] * a[None, :]
    out[safe] = c_new[:, None] * a[None, :] + (s_new / s_old)[:, None] * perp
    out /= np.linalg.norm(out, axis=1)[:, None]
    return out[0] if single else out


def apply_axis_dilations(points, params):
    """Dilations along x, then y, then z (x applied first)."""
    out = dilate_points(points, params[0], axis="x")
    out = dilate_points(out, params[1], axis="y")
    return dilate_points(out, params[2], axis="z")


# -- resampling ----------------------------------------------------------------

def sample_map(sphere_map: SphereMap, points: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise-linear map at arbitrary unit domain points.

    Each point is located down the subdivision (SphereMesh.locate) in a
    face whose flat triangle is pierced by the ray through the point;
    barycentric interpolation is followed by renormalization.
    """
    mesh = sphere_map.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    faces = mesh.faces[mesh.locate(pts)]
    mats = mesh.vertices[faces].transpose(0, 2, 1)  # columns are corners
    b = np.linalg.solve(mats, pts[:, :, None])[..., 0]
    if np.any(b < -1e-10):
        raise InvariantViolationError("a located face does not hold its point")
    b = np.clip(b, 0.0, None)
    b /= b.sum(axis=1)[:, None]
    return normalize_rows(np.einsum("qi,qic->qc", b, sphere_map.values[faces]))


def precompose_with_dilations(sphere_map: SphereMap, params) -> SphereMap:
    """Resample the map after moving the domain by three axis dilations."""
    moved = apply_axis_dilations(sphere_map.mesh.vertices, params)
    return SphereMap(sphere_map.mesh, sphere_map.n, sample_map(sphere_map, moved))


# -- recentering ---------------------------------------------------------------

def conformal_field_jacobian(sphere_map: SphereMap, alpha: float) -> np.ndarray:
    """d center_of_mass / d dilation parameters at zero for the smooth map:
    int [(3 psi - 2 g psi') y y^T - psi I] dA, g = |df|^2, psi = psi_alpha(g).

    The dilation along e_j moves y by the conformal field e_j - (e_j . y) y
    (Hersch 1970) and scales g and dA by its divergence -2 y_j, which adds
    -2 int y y_j (g psi' - psi) dA; a resampled map's differs by rounding
    and the discretization."""
    g, da = element_density_area_one(sphere_map)
    psi = psi_alpha(g, alpha)
    y = sphere_map.mesh.face_centroids
    w = (3.0 * psi - 2.0 * alpha * g * g * (1.0 + g) ** (alpha - 2.0)) * da
    return (y.T * w) @ y - np.sum(psi * da) * np.eye(3)


def fit_centering_dilation(sphere_map: SphereMap, alpha: float,
                           tol: float = 1e-8, max_iter: int = 50):
    """Broyden solve for dilation parameters that zero the center of mass.

    The Jacobian starts from conformal_field_jacobian, and every trial
    resample, accepted or not, updates it by Broyden's rank-one rule.
    Returns (recentered_map, params), the map being the accepted resample.
    Raises ConvergenceError with the final residual if the solve does not
    reach |center_of_mass| <= tol.
    """
    if dirichlet_energy(sphere_map) < 1e-12:
        raise PreconditionError("cannot recenter a constant map")
    com = center_of_mass(sphere_map, alpha)
    res = float(np.linalg.norm(com))
    if res <= tol:
        return sphere_map, np.zeros(3)
    jac = conformal_field_jacobian(sphere_map, alpha)
    params = np.zeros(3)
    for _ in range(max_iter):
        try:
            step = np.linalg.solve(jac, com)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian while recentering",
                                   residual=res) from exc
        scale = 1.0
        for _ in range(30):
            trial = params - scale * step
            moved = precompose_with_dilations(sphere_map, trial)
            com_trial = center_of_mass(moved, alpha)
            s = trial - params
            jac += np.outer(com_trial - com - jac @ s, s / (s @ s))
            if np.linalg.norm(com_trial) < res:
                params, com, recentered = trial, com_trial, moved
                res = float(np.linalg.norm(com))
                break
            scale *= 0.5
        else:
            raise ConvergenceError("recentering stalled", residual=res)
        if res <= tol:
            return recentered, params
    raise ConvergenceError(
        f"recentering did not reach tolerance in {max_iter} iterations",
        residual=res,
    )


def recenter(sphere_map: SphereMap, alpha: float) -> SphereMap:
    """Precompose with conformal dilations so the center of mass vanishes."""
    recentered, _ = fit_centering_dilation(sphere_map, alpha)
    return recentered


# -- axially symmetric reduced energy -----------------------------------------

def axisymmetric_alpha_energy(speed_profile, alpha: float, U: float) -> float:
    """Truncated rotationally symmetric alpha-energy.

    Computes pi * integral_{-U}^{U} [1 + (cosh(u) c(u))^2]^alpha sech(u)^2 du
    by adaptive quadrature, where c(u) >= 0 is the speed profile of the
    generating curve.  No constant shift is applied to the truncation; the
    -1/2 belongs to the full line and is reported separately by callers.
    """
    if alpha <= 1.0:
        raise PreconditionError("axisymmetric reduction requires alpha > 1")
    if U <= 0:
        raise PreconditionError("truncation U must be positive")
    from scipy.integrate import quad  # imported on use: it slows every start-up

    def integrand(u):
        c = speed_profile(u)
        if c < 0:
            raise PreconditionError("speed profile must be nonnegative")
        return (1.0 + (math.cosh(u) * c) ** 2) ** alpha / math.cosh(u) ** 2

    value, err = quad(integrand, -U, U, limit=400)
    if not np.isfinite(value) or err > 1e-6 * max(1.0, abs(value)):
        raise NumericError(f"quadrature did not converge (estimate {err!r})")
    return math.pi * value


def axisymmetric_divergence_minorant(speed: float, alpha: float, U: float) -> float:
    """Lower bound pi * integral c^(2 alpha) cosh(u)^(2 alpha - 2) du on [-U, U]."""
    from scipy.integrate import quad  # imported on use: it slows every start-up

    value, _ = quad(
        lambda u: speed ** (2.0 * alpha) * math.cosh(u) ** (2.0 * alpha - 2.0),
        -U,
        U,
        limit=400,
    )
    return math.pi * value
