"""Rational self-maps of the Riemann sphere and branched-cover spectra.

Rational maps are stored by their zero and pole divisors plus a scale,
and evaluated by one polyval pass over an array of points.  The point at
infinity is the complex value inf+0j; arithmetic on the extended plane
goes through the chordal metric where absolute differences would blow
up.  Compositions with analytic target maps are sampled on the mesh
through stereographic charts and kept on their live columns
(energy.head_map).  Pulled-back metrics enter spectral computations
through a per-element conformal factor, read off the energy's face walk,
with a floor at the branch elements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import eigsh

from .energy import SphereMap, _face_blocks, head_map, normalize_rows, padded
from .errors import (
    DegenerateElementsError,
    InvariantViolationError,
    NumericError,
    PreconditionError,
)
from .sphere_mesh import MASS_LOCAL, SphereMesh, assemble_faces, assemble_pencil

INF = complex(math.inf, 0.0)


def is_inf(z: complex) -> bool:
    return cmath.isinf(z)


def chordal_distance(a: complex, b: complex) -> float:
    """Distance between extended-complex points on the Riemann sphere."""
    if is_inf(a) and is_inf(b):
        return 0.0
    if is_inf(a):
        return 2.0 / math.sqrt(1.0 + abs(b) ** 2)
    if is_inf(b):
        return 2.0 / math.sqrt(1.0 + abs(a) ** 2)
    return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def stereographic(points: np.ndarray) -> np.ndarray:
    """Project unit 3-vectors from the north pole to the complex plane."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    z = np.empty(len(points), dtype=complex)
    denom = 1.0 - points[:, 2]
    polar = denom < 1e-14
    z[~polar] = (points[~polar, 0] + 1j * points[~polar, 1]) / denom[~polar]
    z[polar] = INF
    return z


def inverse_stereographic(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    pts = np.empty((len(z), 3))
    infinite = np.isinf(z.real) | np.isinf(z.imag)
    zf = z[~infinite]
    r2 = np.abs(zf) ** 2
    pts[~infinite, 0] = 2.0 * zf.real / (1.0 + r2)
    pts[~infinite, 1] = 2.0 * zf.imag / (1.0 + r2)
    pts[~infinite, 2] = (r2 - 1.0) / (1.0 + r2)
    pts[infinite] = (0.0, 0.0, 1.0)
    return pts


# -- rational maps ---------------------------------------------------------------

@dataclass(frozen=True)
class RationalMap:
    """Degree-d holomorphic self-map with divisor (zeros) - (poles)."""

    zeros: tuple
    poles: tuple
    scale: complex = 1.0
    _num: np.ndarray = field(init=False, repr=False, compare=False)
    _den: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zeros = tuple(complex(z) for z in self.zeros)
        poles = tuple(complex(q) for q in self.poles)
        if len(zeros) != len(poles) or not zeros:
            raise PreconditionError("zeros and poles must have equal positive length")
        if self.scale == 0:
            raise PreconditionError("scale must be nonzero")
        for p in zeros:
            for q in poles:
                if chordal_distance(p, q) < 1e-12:
                    raise PreconditionError(
                        f"zero {p} coincides with pole {q} (common factor)"
                    )
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "poles", poles)
        finite_zeros = [z for z in zeros if not is_inf(z)]
        finite_poles = [q for q in poles if not is_inf(q)]
        num = np.polynomial.polynomial.polyfromroots(finite_zeros) if finite_zeros \
            else np.array([1.0 + 0j])
        den = np.polynomial.polynomial.polyfromroots(finite_poles) if finite_poles \
            else np.array([1.0 + 0j])
        object.__setattr__(self, "_num", self.scale * num)
        object.__setattr__(self, "_den", den)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @classmethod
    def power(cls, d: int) -> "RationalMap":
        """The map z -> z^d."""
        return cls(zeros=(0.0,) * d, poles=(INF,) * d)

    def to_json_dict(self):
        def enc(z):
            return "inf" if is_inf(z) else [z.real, z.imag]

        return {
            "zeros": [enc(z) for z in self.zeros],
            "poles": [enc(q) for q in self.poles],
            "scale_re": self.scale.real,
            "scale_im": self.scale.imag,
        }

    @classmethod
    def from_json_dict(cls, doc):
        def dec(v):
            return INF if v == "inf" else complex(v[0], v[1])

        return cls(
            zeros=tuple(dec(v) for v in doc["zeros"]),
            poles=tuple(dec(v) for v in doc["poles"]),
            scale=complex(doc["scale_re"], doc["scale_im"]),
        )


def evaluate_many(g: RationalMap, zs: np.ndarray) -> np.ndarray:
    """Values of g at extended-complex points, with degree counting at inf.

    Numerator and denominator are one polyval pass over the finite points.
    At inf, a pole there gives inf, a zero there 0, and equal finite
    degrees the ratio of the leading coefficients, the scale.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    infinite = np.isinf(zs.real) | np.isinf(zs.imag)
    z = zs[~infinite]
    num = np.polynomial.polynomial.polyval(z, g._num)
    den = np.polynomial.polynomial.polyval(z, g._den)
    pole = den == 0
    lost = pole & (num == 0)
    if np.any(lost):
        raise InvariantViolationError(
            f"0/0 at z={z[np.argmax(lost)]}: lost common factor")
    out = np.empty(zs.shape, dtype=complex)
    out[~infinite] = np.where(pole, INF, num / np.where(pole, 1.0, den))
    out[infinite] = (INF if any(map(is_inf, g.poles))
                     else 0.0 if any(map(is_inf, g.zeros)) else g.scale)
    return out


def branch_points(g: RationalMap):
    """Ramification points with multiplicities; they always total 2d - 2.

    Finite branch points are the roots of N'D - ND', clustered within a
    relative distance of 1e-6; whatever multiplicity is missing from that
    count sits at infinity.
    """
    P = np.polynomial.polynomial
    wr = P.polysub(P.polymul(P.polyder(g._num), g._den),
                   P.polymul(g._num, P.polyder(g._den)))
    wr = np.asarray(wr, dtype=complex)
    scale = np.max(np.abs(wr)) if wr.size else 0.0
    total = 2 * g.degree - 2
    if scale == 0.0:
        if total == 0:
            return []
        raise NumericError("derivative numerator vanished identically")
    trimmed = np.trim_zeros(np.where(np.abs(wr) > 1e-12 * scale, wr, 0.0), trim="b")
    if len(trimmed) - 1 > total:
        raise NumericError("derivative degree exceeds the ramification budget")
    roots = np.roots(trimmed[::-1]) if len(trimmed) > 1 else np.array([])
    if not np.all(np.isfinite(roots)):
        raise NumericError("root finder returned non-finite branch points")
    points = []
    used = np.zeros(len(roots), dtype=bool)
    order = np.argsort([(r.real, r.imag) for r in roots], axis=0)[:, 0] if len(roots) \
        else []
    for idx in order:
        if used[idx]:
            continue
        r = roots[idx]
        close = ~used & (np.abs(roots - r) <= 1e-6 * (1.0 + np.abs(r)))
        mult = int(np.count_nonzero(close))
        used |= close
        points.append((complex(np.mean(roots[close])), mult))
    at_inf = total - sum(m for _, m in points)
    if at_inf < 0:
        raise NumericError("branch multiplicities exceed 2d - 2")
    if at_inf > 0:
        points.append((INF, at_inf))
    return points


# -- analytic target maps and composition ----------------------------------------

class EquatorTargetMap:
    """Totally geodesic analytic embedding of the domain sphere into S^n."""

    def __init__(self, n: int):
        if n < 2:
            raise PreconditionError("target dimension must be >= 2")
        self.n = n

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.zeros((len(points), self.n + 1))
        vals[:, :3] = points
        return normalize_rows(vals)


def _rotation_taking(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """A 3x3 rotation with R src = dst (Rodrigues)."""
    src = src / np.linalg.norm(src)
    dst = dst / np.linalg.norm(dst)
    v = np.cross(src, dst)
    c = float(np.dot(src, dst))
    if np.linalg.norm(v) < 1e-14:
        if c > 0:
            return np.eye(3)
        # antipodal: rotate by pi about any perpendicular axis
        axis = np.eye(3)[np.argmin(np.abs(src))]
        axis -= np.dot(axis, src) * src
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def branch_alignment_rotation(g: RationalMap, mesh: SphereMesh) -> np.ndarray:
    """Domain rotation snapping the leading branch point onto a mesh vertex."""
    bps = branch_points(g)
    if not bps:
        return np.eye(3)
    bp = max(bps, key=lambda pm: pm[1])[0]
    target = inverse_stereographic([bp])[0]
    nearest = int(np.argmax(mesh.vertices @ target))
    return _rotation_taking(target, mesh.vertices[nearest])


def compose_cover(h, g: RationalMap, mesh: SphereMesh) -> SphereMap:
    """Sample the branched cover h(g(.)) at the mesh vertices.

    The domain is rotated first so the leading branch point of g coincides
    with a mesh vertex, concentrating the degenerate conformal factor where
    it can be floored and reported.  The cover is kept on its live columns
    (energy.head_map) and padded back to h's target, as a flow's records are.
    """
    rot = branch_alignment_rotation(g, mesh)
    z = stereographic(mesh.vertices @ rot)  # evaluate at rot^T v: rotate the chart
    vals = h(inverse_stereographic(evaluate_many(g, z)))
    f = SphereMap(mesh, vals.shape[1] - 1, normalize_rows(vals))
    # a copy, so the padded map does not keep the full array alive
    return padded(head_map(f).copy(), f.n)


# -- pulled-back metric spectra ----------------------------------------------------

@dataclass(frozen=True)
class PullbackSpectrumResult:
    lambda1: float
    eigenvalues: np.ndarray
    floor_activations: int
    degeneracy_warning: bool


def _conformal_factors(f: SphereMap, eps_reg: float):
    """Per-element area ratio of the image to the domain, floored.

    The image metric is read off the energy's face walk over the map's
    live columns (energy.head_map): the edges from corner a are -d0 and
    d2, so g11 = |d0|^2, g22 = |d2|^2 and g12 = -d0 . d2.
    """
    mesh = f.mesh
    gram = np.empty(mesh.face_count)
    for faces, d, _ in _face_blocks(head_map(f)):
        g11 = np.einsum("cb,cb->b", d[:, 0], d[:, 0])
        g22 = np.einsum("cb,cb->b", d[:, 2], d[:, 2])
        g12 = -np.einsum("cb,cb->b", d[:, 0], d[:, 2])
        gram[faces] = g11 * g22 - g12**2
    image_area = 0.5 * np.sqrt(np.clip(gram, 0.0, None))
    rho = image_area / mesh.face_flat_areas
    floor = eps_reg * float(np.mean(rho))
    floored = rho < floor
    rho = np.maximum(rho, floor)
    return rho, int(np.count_nonzero(floored))


def pullback_laplace_eigenvalues(f: SphereMap, k: int = 8,
                                 eps_reg: float = 1e-8):
    """Low generalized eigenvalues of the Laplacian of the pulled-back metric.

    In two dimensions the Dirichlet form is conformally invariant, so the
    pencil is the flat-domain stiffness against a mass matrix weighted by
    the per-element conformal factor (floored at eps_reg times its mean).
    Raises DegenerateElementsError when the image is degenerate on every
    element: the floored factor is then zero everywhere.
    """
    mesh = f.mesh
    rho, floored = _conformal_factors(f, eps_reg)
    if np.max(rho) <= 0:
        raise DegenerateElementsError("map image is degenerate on every element",
                                      elements=list(range(mesh.face_count)))
    pencil = assemble_pencil(mesh)
    M_rho = assemble_faces(mesh, (rho * mesh.face_areas)[:, None, None] * MASS_LOCAL)
    v = mesh.vertex_count
    if k >= v - 1:  # ARPACK returns at most V - 1: solve a pencil this small densely
        return scipy.linalg.eigh(pencil.K.toarray(), M_rho.toarray(), eigvals_only=True), floored
    v0 = np.random.default_rng(1234).standard_normal(v)
    # shift-invert at sigma = -0.1 applies (K + 0.1 M_rho)^-1
    vals = eigsh(pencil.K, k=k, M=M_rho, sigma=-0.1, which="LM", v0=v0,
                 OPinv=mesh.factor(pencil.K + 0.1 * M_rho), return_eigenvectors=False)
    return np.sort(vals), floored


def induced_metric_lambda1(f: SphereMap, k: int = 8) -> PullbackSpectrumResult:
    """First nonzero eigenvalue of the pulled-back Laplace pencil.

    Raises DegenerateElementsError when the map is nowhere close to an
    immersion; a floored-element fraction above 1% only sets the warning
    flag, since flooring adds mass on a small set and can only lower the
    Rayleigh quotients this eigenvalue bounds from above.
    """
    vals, floored = pullback_laplace_eigenvalues(f, k=k)
    nonzero = vals[np.abs(vals) > 1e-8]
    if nonzero.size == 0:
        raise NumericError("no nonzero eigenvalue among the computed batch")
    frac = floored / f.mesh.face_count
    return PullbackSpectrumResult(
        lambda1=float(nonzero[0]),
        eigenvalues=vals,
        floor_activations=floored,
        degeneracy_warning=frac > 0.01,
    )


def normal_index_count(vals: np.ndarray, n: int) -> int:
    """Normal Morse index of a cover of a totally geodesic sphere in S^n: its
    normal second variation is n - 2 copies of the pulled-back Laplacian
    shifted by -2, so (n - 2) times the number of pulled-back eigenvalues
    below 1.9, those below 2 with a margin of 0.1 against discretization."""
    return int(np.count_nonzero(vals < 1.9)) * (n - 2)

