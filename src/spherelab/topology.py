"""Schubert cell censuses and a mod-2 Morse chain-complex engine.

Cell counts of real Grassmannians come from exhaustive enumeration of
partitions in a box, cross-checked against the exact q-binomial
recurrence.  The chain complex stores generators per degree together
with labels that record whether the coefficient-module action on a
generator is trivial ("A") or not ("B"); boundary data is supplied by
the caller, the engine enforces d d = 0 and computes mod-2 homology.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import (
    ClosureViolationError,
    InconsistentComplexError,
    PreconditionError,
)


# -- partitions and censuses -----------------------------------------------------

MAX_N = 40  # size guard on the ambient dimension N of a census of G_m(R^N)


def _partitions_in_box(parts: int, width: int):
    """Yield all partitions with at most ``parts`` parts, each <= ``width``."""

    def rec(prefix, remaining_parts, cap):
        yield tuple(prefix)
        if remaining_parts == 0:
            return
        for first in range(1, cap + 1):
            prefix.append(first)
            yield from rec(prefix, remaining_parts - 1, first)
            prefix.pop()

    yield from rec([], parts, width)


@dataclass(frozen=True)
class SchubertCensus:
    """Cell counts p_m(k) of the Grassmannian of m-planes in R^N."""

    m: int
    N: int
    counts: tuple

    def __post_init__(self):
        total = sum(self.counts)
        if total != comb(self.N, self.m):
            raise PreconditionError(
                f"census total {total} != C({self.N},{self.m})"
            )
        if tuple(reversed(self.counts)) != tuple(self.counts):
            raise PreconditionError("census is not palindromic")

    def __getitem__(self, k):
        return self.counts[k]

    def to_csv_rows(self):
        return [(k, c) for k, c in enumerate(self.counts)]


def _check_range(m, N):
    if not 1 <= m < N:
        raise PreconditionError("need 1 <= m < N")
    if N > MAX_N:
        raise PreconditionError(f"N > {MAX_N} exceeds the size guard")


def schubert_cell_counts(m: int, N: int) -> SchubertCensus:
    """Count k-cells of the Grassmannian by enumerating box partitions.

    Cells correspond to partitions with at most m parts, each at most
    N - m; the k-cells are the partitions of total size k.
    """
    _check_range(m, N)
    width = N - m
    counts = [0] * (m * width + 1)
    for part in _partitions_in_box(m, width):
        counts[sum(part)] += 1
    return SchubertCensus(m=m, N=N, counts=tuple(counts))


def gaussian_binomial(m: int, N: int) -> tuple:
    """Coefficients of the q-binomial [N choose m]_q by exact recurrence."""
    _check_range(m, N)
    # table[j] holds coefficients of [i choose j]_q while i grows
    table = [[1]] + [[0] for _ in range(m)]
    for i in range(1, N + 1):
        for j in range(min(i, m), 0, -1):
            lower = table[j - 1]
            same = table[j]
            shifted = [0] * j + same  # q^j * [i-1 choose j]_q
            out = [0] * max(len(lower), len(shifted))
            for idx, c in enumerate(lower):
                out[idx] += c
            for idx, c in enumerate(shifted):
                out[idx] += c
            table[j] = out
    length = m * (N - m) + 1
    coeffs = table[m]
    if any(c != 0 for c in coeffs[length:]):
        raise PreconditionError("q-binomial degree exceeded the expected bound")
    return tuple((coeffs + [0] * length)[:length])


def predicted_minimum_counts(n: int) -> dict:
    """Predicted lower bounds: degree -> p_3(degree - n + 2) in the window.

    The window is n - 2 <= degree <= 2n - 5, mapped to the lowest cells
    of the Grassmannian of 3-planes in R^(n+1).
    """
    if n < 4:
        raise PreconditionError("need n >= 4")
    census = schubert_cell_counts(3, n + 1)
    return {lam: census[lam - n + 2] for lam in range(n - 2, 2 * n - 4)}


# -- mod-2 Morse chain complex -----------------------------------------------------

@dataclass(frozen=True)
class Generator:
    id: str
    degree: int
    label: str = "A"

    def __post_init__(self):
        if self.label not in ("A", "B"):
            raise PreconditionError(f"label must be 'A' or 'B', got {self.label!r}")
        if self.degree < 0:
            raise PreconditionError("degree must be nonnegative")


@dataclass
class MorseComplexZ2:
    """Chain complex over Z/2 with labeled generators.

    ``generators`` maps degree -> list of Generators; ``boundaries`` maps
    degree -> uint8 matrix of shape (#gens in degree-1, #gens in degree).
    """

    generators: dict
    boundaries: dict = field(default_factory=dict)

    def degrees(self):
        return sorted(self.generators)

    def generator_count(self, degree):
        return len(self.generators.get(degree, []))

    def boundary(self, degree):
        rows = self.generator_count(degree - 1)
        cols = self.generator_count(degree)
        return self.boundaries.get(degree,
                                   np.zeros((rows, cols), dtype=np.uint8))

    def euler_characteristic(self):
        return sum((-1) ** d * self.generator_count(d) for d in self.degrees())


def build_complex(generators, trajectory_counts) -> MorseComplexZ2:
    """Assemble the complex from generators and connecting-trajectory counts.

    ``trajectory_counts`` maps (source_id, target_id) to a count; sources
    must sit one degree above targets.  Counts enter mod 2 and the square
    of the boundary is verified degree by degree.
    """
    by_degree = {}
    degree_of = {}
    for gen in generators:
        if gen.id in degree_of:
            raise PreconditionError(f"duplicate generator id {gen.id!r}")
        degree_of[gen.id] = gen.degree
        by_degree.setdefault(gen.degree, []).append(gen)
    position = {
        gen.id: i for degree in by_degree for i, gen in enumerate(by_degree[degree])
    }
    boundaries = {}
    for (src, dst), count in trajectory_counts.items():
        if src not in degree_of or dst not in degree_of:
            raise PreconditionError(f"unknown generator in pair ({src!r}, {dst!r})")
        d_src = degree_of[src]
        if degree_of[dst] != d_src - 1:
            raise PreconditionError(
                f"trajectory counts must connect adjacent degrees: "
                f"{src!r} ({d_src}) -> {dst!r} ({degree_of[dst]})"
            )
        mat = boundaries.setdefault(
            d_src,
            np.zeros((len(by_degree[d_src - 1]), len(by_degree[d_src])),
                     dtype=np.uint8),
        )
        mat[position[dst], position[src]] ^= count % 2
    complex_ = MorseComplexZ2(generators=by_degree, boundaries=boundaries)
    verify_complex(complex_)
    return complex_


def verify_complex(complex_: MorseComplexZ2) -> None:
    for degree in complex_.degrees():
        d1 = complex_.boundary(degree)
        d2 = complex_.boundary(degree - 1)
        if d1.size and d2.size:
            square = (d2 @ d1) % 2
            if np.any(square):
                raise InconsistentComplexError(
                    f"boundary squared is nonzero from degree {degree} "
                    f"to degree {degree - 2}",
                    degrees=(degree, degree - 2),
                )


def _gf2_rank(mat: np.ndarray) -> int:
    a = (mat % 2).astype(np.uint8).copy()
    rank = 0
    rows, cols = a.shape
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if a[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        mask = a[:, col].copy()
        mask[rank] = 0
        a[mask == 1] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def homology_z2(complex_: MorseComplexZ2) -> dict:
    """Betti numbers over Z/2 per degree, via Gaussian elimination."""
    verify_complex(complex_)
    betti = {}
    for degree in complex_.degrees():
        dim = complex_.generator_count(degree)
        rank_out = _gf2_rank(complex_.boundary(degree)) if dim else 0
        rank_in = _gf2_rank(complex_.boundary(degree + 1))
        betti[degree] = dim - rank_out - rank_in
    euler_from_betti = sum((-1) ** d * b for d, b in betti.items())
    if euler_from_betti != complex_.euler_characteristic():
        raise InconsistentComplexError("Euler characteristic mismatch")
    return betti


def split_by_action(complex_: MorseComplexZ2, n: int = None):
    """Split off the subcomplex of trivially-acted ("A") generators.

    Checks that the boundary of every A-generator involves only
    A-generators; on success returns (a_subcomplex, b_quotient, report),
    where the report compares per-degree A-counts with the predicted
    minimum counts when ``n`` is given.  Raises ClosureViolationError if
    the boundary maps the A block into the B block.
    """
    degrees, gens = complex_.degrees(), complex_.generators
    mats = {d: complex_.boundary(d) for d in degrees}
    positions = {label: {d: [i for i, g in enumerate(gens[d]) if g.label == label]
                         for d in degrees}
                 for label in ("A", "B")}
    for degree in degrees:
        rows_b, cols_a = positions["B"].get(degree - 1, []), positions["A"][degree]
        if rows_b and cols_a and np.any(mats[degree][np.ix_(rows_b, cols_a)]):
            raise ClosureViolationError(
                f"boundary maps an A-generator of degree {degree} into the "
                f"B block (inconsistent with a trivial module action)"
            )
    a_complex, b_complex = (
        MorseComplexZ2(
            generators={d: [gens[d][i] for i in pos[d]] for d in degrees if pos[d]},
            boundaries={d: mats[d][np.ix_(pos.get(d - 1, []), pos[d])].copy()
                        for d in degrees if pos[d] and mats[d].size},
        )
        for pos in (positions["A"], positions["B"])
    )
    verify_complex(a_complex)
    report = None
    if n is not None:
        predicted = predicted_minimum_counts(n)
        report = {
            lam: {
                "a_generators": a_complex.generator_count(lam),
                "predicted_minimum": bound,
                "satisfied": a_complex.generator_count(lam) >= bound,
            }
            for lam, bound in predicted.items()
        }
    return a_complex, b_complex, report


def desk_model(n: int, with_b_generators: bool = False) -> MorseComplexZ2:
    """Model complex with p_3(k) generators in degree n - 2 + k and zero maps,
    for each degree of the window of predicted_minimum_counts.

    Mirrors the low-degree critical-point structure over the round metric:
    all differentials vanish, so Betti numbers equal generator counts.
    With ``with_b_generators`` a few nontrivially-acted generators are
    appended above the window (degree 2n - 4 and up).
    """
    generators = [Generator(id=f"a{degree}_{j}", degree=degree, label="A")
                  for degree, count in predicted_minimum_counts(n).items()
                  for j in range(count)]
    if with_b_generators:
        for j in range(2):
            generators.append(Generator(id=f"b{2*n-4}_{j}", degree=2 * n - 4,
                                        label="B"))
    return build_complex(generators, {})


# -- serialization ------------------------------------------------------------------

def complex_to_json(complex_: MorseComplexZ2) -> str:
    gens = [
        {"id": g.id, "degree": g.degree, "label": g.label}
        for d in complex_.degrees()
        for g in complex_.generators[d]
    ]
    boundaries = []
    for degree in complex_.degrees():
        mat = complex_.boundary(degree)
        if not mat.size:
            continue
        lower = complex_.generators[degree - 1]
        upper = complex_.generators[degree]
        for r, c in zip(*np.nonzero(mat)):
            boundaries.append(
                {"from": upper[c].id, "to": lower[r].id, "count_mod2": 1}
            )
    return json.dumps({"generators": gens, "boundaries": boundaries},
                      sort_keys=True)


def complex_from_json(doc: str) -> MorseComplexZ2:
    """The complex of a document {"generators": [{"id", "degree", "label"?}],
    "boundaries"?: [{"from", "to", "count_mod2"}]}.  A document of another
    shape raises PreconditionError naming the key at fault."""
    data = json.loads(doc)
    if not isinstance(data, dict):
        raise PreconditionError("complex document is not an object with the key 'generators'")
    generators = [Generator(id=_entry(g, "id", str), degree=_entry(g, "degree", int),
                            label=g.get("label", "A"))
                  for g in _entry(data, "generators", list)]
    counts = {(_entry(b, "from", str), _entry(b, "to", str)): _entry(b, "count_mod2", int)
              for b in _entry(data, "boundaries", list, default=[])}
    return build_complex(generators, counts)


def _entry(obj, key, kind, default=None):
    """obj[key], of the JSON type kind (a list of objects for list; a boolean
    is no integer), or default if the key is absent and a default is given.
    A missing or ill-typed entry raises PreconditionError naming its key."""
    if key not in obj:
        if default is None:
            raise PreconditionError(f"complex document lacks the key {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool) \
            or kind is list and not all(isinstance(x, dict) for x in value):
        raise PreconditionError(f"complex document: {key!r} must be "
                                + {str: "a string", int: "an integer",
                                   list: "a list of objects"}[kind])
    return value
