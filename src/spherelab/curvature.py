"""Pointwise curvature-operator algebra in an orthonormal frame.

Operators are rank-4 arrays with the full algebraic curvature symmetries.
Complex two-planes are pairs of complex n-vectors; all complex pairings
here are bilinear (no conjugation) except where the Hermitian extension
is explicitly formed for the sectional-curvature quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

ISOTROPY_TOL = 1e-9
# samples evaluated together by the sampling checks; small, since peak
# memory grows with it
SAMPLE_BLOCK = 512

_DEPENDENT_VECTORS = "spanning vectors are (numerically) dependent"
_DEGENERATE_PLANE = "degenerate plane: Hermitian wedge norm too small"
_NOT_REAL = "curvature quotient is not numerically real"
_ZERO_VECTOR = "zero vector has no associated plane"
_NOT_ISOTROPIC = "vector is not isotropic: <v,v> != 0"
_DEGENERATE_REAL_PLANE = "degenerate real plane"


@dataclass(frozen=True)
class CurvatureOperator:
    """Components R[i,j,k,l] of a curvature operator at a point."""

    n: int
    R: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.shape != (self.n,) * 4:
            raise PreconditionError("curvature array must be n^4")
        object.__setattr__(self, "R", R)
        check_curvature_symmetries(R)


@dataclass(frozen=True)
class ComplexPlane:
    """Complex two-plane spanned by z and w in the complexified tangent space."""

    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        w = np.asarray(self.w, dtype=complex)
        if z.shape != w.shape or z.ndim != 1:
            raise PreconditionError("plane vectors must be equal-length 1d arrays")
        gram = np.array(
            [[np.vdot(z, z), np.vdot(z, w)], [np.vdot(w, z), np.vdot(w, w)]]
        )
        if abs(np.linalg.det(gram)) <= 1e-12:
            raise PreconditionError(_DEPENDENT_VECTORS)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)


def check_curvature_symmetries(R, tol=1e-10):
    # each test is "not err <= bound", which a NaN entry fails
    scale = max(1.0, float(np.max(np.abs(R))))
    if not np.max(np.abs(R + np.swapaxes(R, 0, 1))) <= tol * scale:
        raise PreconditionError("missing antisymmetry in the first index pair")
    if not np.max(np.abs(R + np.swapaxes(R, 2, 3))) <= tol * scale:
        raise PreconditionError("missing antisymmetry in the second index pair")
    if not np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1)))) <= tol * scale:
        raise PreconditionError("missing pair-exchange symmetry")
    bianchi = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    if not np.max(np.abs(bianchi)) <= tol * scale:
        raise PreconditionError("first Bianchi identity violated")


# -- constructors --------------------------------------------------------------

def constant_curvature_operator(n: int, c: float = 1.0) -> CurvatureOperator:
    """Space form: R[i,j,k,l] = c (delta_ik delta_jl - delta_il delta_jk)."""
    eye = np.eye(n)
    R = c * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    return CurvatureOperator(n, R)


def product_spheres_operator() -> CurvatureOperator:
    """Product of two unit round two-spheres; mixed-plane curvatures vanish."""
    R = np.zeros((4,) * 4)
    for i, j in ((0, 1), (2, 3)):
        R[i, j, i, j] = R[j, i, j, i] = 1.0
        R[i, j, j, i] = R[j, i, i, j] = -1.0
    return CurvatureOperator(4, R)


def project_to_curvature_symmetries(T: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a rank-4 array onto algebraic curvature tensors."""
    T = 0.5 * (T - np.swapaxes(T, 0, 1))
    T = 0.5 * (T - np.swapaxes(T, 2, 3))
    T = 0.5 * (T + np.transpose(T, (2, 3, 0, 1)))
    bianchi = (T + np.transpose(T, (0, 2, 3, 1)) + np.transpose(T, (0, 3, 1, 2))) / 3.0
    return T - bianchi


def pinched_operator(n: int, delta: float, rng) -> CurvatureOperator:
    """Randomly perturbed space form kept inside the (delta, 1] pinching band.

    A space form at the band midpoint is perturbed by Bianchi-symmetrized
    noise small enough (relative to the band half-width) that all real
    sectional curvatures stay in (delta, 1].
    """
    if not 0 < delta <= 1:
        raise PreconditionError("delta must lie in (0, 1]")
    mid = 0.5 * (1.0 + delta)
    half = 0.5 * (1.0 - delta)
    # |K_r - mid| <= 2 max|noise components| is a crude but safe bound
    raw = 0.2 * half * rng.standard_normal((n,) * 4)
    R = constant_curvature_operator(n, mid).R + project_to_curvature_symmetries(raw)
    return CurvatureOperator(n, R)


# -- predicates and curvature quotients ----------------------------------------

def _bilinear(a, b):
    return complex(np.sum(np.asarray(a) * np.asarray(b)))


def associated_real_plane(v):
    """Real and imaginary parts (x, y) of an isotropic vector v = x + iy.

    Isotropy forces x and y to be orthogonal and of equal length, so they
    span a real two-plane.
    """
    v = np.asarray(v, dtype=complex)
    if np.linalg.norm(v) == 0:
        raise PreconditionError(_ZERO_VECTOR)
    if abs(_bilinear(v, v)) > ISOTROPY_TOL * max(1.0, float(np.vdot(v, v).real)):
        raise PreconditionError(_NOT_ISOTROPIC)
    return v.real.copy(), v.imag.copy()


def complex_sectional_curvature(op: CurvatureOperator, plane: ComplexPlane) -> float:
    """Hermitian curvature quotient of the plane.

    Evaluates <R(z ^ w), conj(z) ^ conj(w)> / <z ^ w, conj(z) ^ conj(w)>;
    the value is real and reduces to the classical sectional curvature on
    real planes.
    """
    z, w = plane.z, plane.w
    zb, wb = np.conj(z), np.conj(w)
    den = np.vdot(z, z) * np.vdot(w, w) - np.vdot(w, z) * np.vdot(z, w)
    den = den.real
    if den <= 1e-12:
        raise PreconditionError(_DEGENERATE_PLANE)
    num = np.einsum("ijkl,i,j,k,l", op.R, z, w, zb, wb)
    if abs(num.imag) > 1e-8 * max(1.0, abs(num.real)):
        raise PreconditionError(_NOT_REAL)
    return float(num.real) / den


def real_sectional_curvature(op: CurvatureOperator, u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    den = np.dot(u, u) * np.dot(v, v) - np.dot(u, v) ** 2
    if den <= 1e-12:
        raise PreconditionError(_DEGENERATE_REAL_PLANE)
    num = np.einsum("ijkl,i,j,k,l", op.R, u, v, u, v)
    return float(num) / den


def pinch_bounds(delta: float):
    """Half-isotropic curvature band ((4 delta - 1)/3, (4 - delta)/3)."""
    if not 0 < delta <= 1:
        raise PreconditionError("delta must lie in (0, 1]")
    return (4.0 * delta - 1.0) / 3.0, (4.0 - delta) / 3.0


# -- sampling ------------------------------------------------------------------

def random_orthonormal_frame(n: int, k: int, rng) -> np.ndarray:
    """k orthonormal vectors in R^n (rows), from a Gaussian QR."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return (q * np.sign(np.diag(r))).T


@dataclass(frozen=True)
class PinchReport:
    delta: float
    samples: int
    violations: int
    worst_margin: float
    seed: int
    hypothesis_satisfied: bool
    hypothesis_note: str = ""

    def to_dict(self):
        return {
            "delta": self.delta,
            "samples": self.samples,
            "violations": self.violations,
            # NaN when the hypothesis fails (hypothesis_note says why); JSON has no NaN
            "worst_margin": self.worst_margin if math.isfinite(self.worst_margin) else None,
            "seed": self.seed,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "hypothesis_note": self.hypothesis_note,
        }


def verify_pinch_implication(op: CurvatureOperator, delta: float,
                             sample_count: int, rng_seed: int,
                             pretest_count: int = 2000) -> PinchReport:
    """Sample half-isotropic planes and count violations of pinch_bounds.

    Two pretests come first: real sectional curvatures of random planes
    must lie in (delta, 1], and the mixed component R[0,1,3,2] over random
    orthonormal 4-frames must obey the Berger bound (2/3)(1 - delta).  If
    either fails, the report flags the hypothesis instead of sampling.

    The sampled planes have the form (e1 + i e2, a e3 + i b e4) over random
    orthonormal 4-frames with log-uniform a, b > 0.  The frames continue the
    pretests' stream; a and b come from a second generator seeded with
    [rng_seed, 1], so neither stream depends on SAMPLE_BLOCK.  Samples are
    evaluated SAMPLE_BLOCK at a time with the per-sample checks of a loop
    over random_orthonormal_frame, ComplexPlane and
    complex_sectional_curvature.
    """
    if op.n < 4:
        raise PreconditionError("need dimension >= 4 to build 4-frames")
    if not 0 < delta <= 1:
        raise PreconditionError("delta must lie in (0, 1]")
    if sample_count < 1:
        raise PreconditionError("sample_count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    R2 = op.R.reshape(op.n ** 2, op.n ** 2)
    slack = 1e-9

    for m in _blocks(pretest_count):
        e = _frames(rng.standard_normal((m, op.n, 2)))
        u, v = e[:, 0], e[:, 1]
        kr, checks = _real_quotients(R2, u, v)
        i = _first_failure(checks, (delta - slack < kr) & (kr <= 1.0 + slack))
        if i is not None:  # the note quotes the per-plane value
            kr = real_sectional_curvature(op, u[i], v[i])
            return PinchReport(delta, 0, 0, float("nan"), rng_seed, False,
                               f"real sectional curvature {kr} outside (delta, 1]")
    berger = (2.0 / 3.0) * (1.0 - delta)
    for m in _blocks(pretest_count):
        e = _frames(rng.standard_normal((m, op.n, 4)))
        mixed = _real_form(R2, e[:, 0], e[:, 1], e[:, 3], e[:, 2])
        i = _first_failure([], np.abs(mixed) <= berger + slack)
        if i is not None:
            mixed = np.einsum("ijkl,i,j,k,l", op.R, *e[i, [0, 1, 3, 2]])
            return PinchReport(delta, 0, 0, float("nan"), rng_seed, False,
                               f"mixed term {mixed} violates the Berger bound {berger}")

    lower, upper = pinch_bounds(delta)
    violations = 0
    worst = float("inf")
    ab_rng = np.random.default_rng([rng_seed, 1])
    for m in _blocks(sample_count):
        e = _frames(rng.standard_normal((m, op.n, 4)))
        ab = np.exp(ab_rng.uniform(-2.0, 2.0, size=(m, 2)))
        ki, checks = _complex_quotients(R2, e[:, 0], e[:, 1],
                                        ab[:, :1] * e[:, 2], ab[:, 1:] * e[:, 3])
        _first_failure(checks)
        margin = np.minimum(ki - lower, upper - ki)
        worst = min(worst, float(margin.min()))
        violations += int(np.count_nonzero(margin < -slack))
    return PinchReport(delta, sample_count, violations, worst, rng_seed, True)


# -- batched kernels -------------------------------------------------------------
#
# Each evaluates a block of samples at once: R contracts against the rows
# vec(a x b) of a (B, n^2) matrix through R2 = R.reshape(n^2, n^2).

def _blocks(count: int):
    """Sizes of the consecutive blocks of at most SAMPLE_BLOCK samples."""
    return [min(SAMPLE_BLOCK, count - s) for s in range(0, count, SAMPLE_BLOCK)]


def _frames(gauss: np.ndarray) -> np.ndarray:
    """random_orthonormal_frame of each (n, k) draw in a stack: shape (B, k, n)."""
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    return np.swapaxes(q * signs[:, None, :], 1, 2)


def _rows_dot(a, b):
    return np.einsum("bi,bi->b", a, b)


def _outer(a, b):
    """Rows vec(a_s x b_s), shape (B, n^2)."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _real_form(R2, a, b, c, d):
    """R[i,j,k,l] a_i b_j c_k d_l for each sample."""
    return _rows_dot(_outer(a, b) @ R2, _outer(c, d))


def _real_quotients(R2, u, v):
    """real_sectional_curvature of each span(u, v), with its check."""
    uv = _rows_dot(u, v)
    den = _rows_dot(u, u) * _rows_dot(v, v) - uv * uv
    with np.errstate(divide="ignore", invalid="ignore"):
        kr = _real_form(R2, u, v, u, v) / den
    return kr, [(den <= 1e-12, _DEGENERATE_REAL_PLANE)]


def _complex_quotients(R2, zr, zi, wr, wi):
    """complex_sectional_curvature of each plane span(zr + i zi, wr + i wi).

    Returns the quotients and the checks of ComplexPlane and
    complex_sectional_curvature as (mask of failing samples, message).
    The numerator sum R_ijkl z_i w_j conj(z_k w_l) is P R2 conj(P) with
    P = vec(z x w), evaluated as real matrix products.
    """
    zz = _rows_dot(zr, zr) + _rows_dot(zi, zi)
    ww = _rows_dot(wr, wr) + _rows_dot(wi, wi)
    zw_re = _rows_dot(zr, wr) + _rows_dot(zi, wi)  # <z, w> = sum conj(z) w
    zw_im = _rows_dot(zr, wi) - _rows_dot(zi, wr)
    den = zz * ww - (zw_re * zw_re + zw_im * zw_im)  # Gram determinant
    p_re = _outer(zr, wr) - _outer(zi, wi)
    p_im = _outer(zr, wi) + _outer(zi, wr)
    q_re, q_im = p_re @ R2, p_im @ R2
    num_re = _rows_dot(q_re, p_re) + _rows_dot(q_im, p_im)
    num_im = _rows_dot(q_im, p_re) - _rows_dot(q_re, p_im)
    checks = [
        (np.abs(den) <= 1e-12, _DEPENDENT_VECTORS),
        (den <= 1e-12, _DEGENERATE_PLANE),
        (np.abs(num_im) > 1e-8 * np.maximum(1.0, np.abs(num_re)), _NOT_REAL),
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        return num_re / den, checks


def _first_failure(checks, passed=None):
    """Apply per-sample checks in the order a loop over the samples meets them.

    ``checks`` lists (mask of failing samples, message) in the order the
    per-plane code applies them, and ``passed`` is the test a sample must
    then pass.  Raises the PreconditionError of the first sample failing a
    check, unless an earlier sample fails ``passed``; returns the index of
    the first sample failing ``passed``, or None.
    """
    masks = [mask for mask, _ in checks]
    if passed is not None:
        masks.append(~passed)
    failed = np.stack(masks)
    hits = np.flatnonzero(failed.any(axis=0))
    if hits.size == 0:
        return None
    i = int(hits[0])
    k = int(np.flatnonzero(failed[:, i])[0])
    if k < len(checks):
        raise PreconditionError(checks[k][1])
    return i
