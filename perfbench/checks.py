"""Output checks computed outside spherelab.

Each ``check_*`` function takes an operation's parsed outputs and returns
the names of the checks that failed (an empty list means the operation
passed).  The oracles are the benchmark's own: an icosphere area built
here, a partition count by dynamic programming, and the analytic Jacobi
spectrum of the totally geodesic two-sphere.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

FOUR_PI = 4.0 * math.pi


def partitions_in_box(parts: int, width: int) -> list[int]:
    """Counts, by size k = 0 .. parts*width, of partitions in a parts x width box.

    A partition with at most ``parts`` parts, each at most ``width``, either
    has fewer than ``parts`` parts, or all of its parts are positive and
    taking one from each leaves a partition in a parts x (width - 1) box.
    """

    @functools.lru_cache(maxsize=None)
    def count(m, w, k):
        if k < 0:
            return 0
        if m == 0 or w == 0:
            return int(k == 0)
        return count(m - 1, w, k) + count(m, w - 1, k - m)

    return [count(parts, width, k) for k in range(parts * width + 1)]


def icosphere_area(level: int) -> float:
    """Polyhedral area of the icosahedron subdivided ``level`` times.

    Each round splits every triangle into four at its edge midpoints pushed
    out to the unit sphere.  The midpoint positions do not depend on how
    vertices are shared or numbered, so the triangles are subdivided one by
    one and the flat areas summed.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([p for a, b in itertools.product((-1.0, 1.0), repeat=2)
                      for p in ((0, a, b * phi), (a, b * phi, 0), (b * phi, 0, a))])
    # the faces are the triples of mutually adjacent vertices (edge length 2)
    adjacent = np.isclose(np.linalg.norm(verts[:, None] - verts[None], axis=2), 2.0)
    faces = [t for t in itertools.combinations(range(12), 3)
             if adjacent[t[0], t[1]] and adjacent[t[1], t[2]] and adjacent[t[0], t[2]]]
    tris = verts[np.array(faces)]
    tris /= np.linalg.norm(tris, axis=2, keepdims=True)
    for _ in range(level):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab, bc, ca = (x / np.linalg.norm(x, axis=1, keepdims=True)
                      for x in (a + b, b + c, c + a))
        tris = np.stack([np.stack(t, axis=1) for t in
                         ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca))],
                        axis=1).reshape(-1, 3, 3)
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return float(0.5 * np.linalg.norm(cross, axis=1).sum())


def _metric(report, name):
    return report["metrics"][name]["value"]


def _check_value(report, name):
    return next(c["value"] for c in report["checks"] if c["name"] == name)


def check_flow(report, telemetry, schedule, area):
    """``telemetry``: rows of telemetry.csv as dicts; ``area``: icosphere area."""
    failed = []
    checks = {c["name"]: c["passed"] for c in report["checks"]}
    if not checks.get("all_stages_converged") or _metric(report, "stages_completed") != len(schedule):
        failed.append("flow.stages_converged")
    last = {}
    for row in telemetry:
        stage, energy = int(row["stage"]), float(row["alpha_energy"])
        if stage in last and energy > last[stage]:
            failed.append("flow.armijo_monotone")
            break
        last[stage] = energy
    if abs(_metric(report, "final_energy") - area) > 1e-6 * area:
        failed.append("flow.final_energy_is_mesh_area")
    return failed


def check_spectrum(report, n):
    failed = []
    if _metric(report, "index") != n - 2:
        failed.append("spectrum.index_n_minus_2")
    if _metric(report, "nullity") != 3 * (n - 2) + 6:
        failed.append("spectrum.nullity_3n_minus_6_plus_6")
    if abs(_metric(report, "leading_eigenvalue") + 2.0) > 0.1:
        failed.append("spectrum.leading_eigenvalue_near_minus_2")
    return failed


def check_covers(report, n, degree):
    failed = []
    energy = _metric(report, "energy")
    if abs(energy - FOUR_PI * degree) > 0.02 * FOUR_PI * degree:
        failed.append("covers.energy_is_degree_times_4pi")
    if _metric(report, "lambda1") * energy > 8.0 * math.pi:
        failed.append("covers.hersch_bound")
    if _metric(report, "normal_index") < 2 * (n - 2):
        failed.append("covers.normal_index_bound")
    if _check_value(report, "riemann_hurwitz") != 2 * degree - 2:
        failed.append("covers.total_branching")
    return failed


def check_pinch(report):
    failed = []
    if _metric(report, "violations") != 0:
        failed.append("pinch.zero_violations")
    if _metric(report, "hypothesis_satisfied") is not True:
        failed.append("pinch.hypotheses_satisfied")
    if not _metric(report, "worst_margin") >= 0.0:
        failed.append("pinch.worst_margin_nonnegative")
    return failed


def check_census(rows, m, n_min, n_max):
    """``rows``: (N, k, count) integer triples from census.csv."""
    got = {}
    for N, k, c in rows:
        got.setdefault(N, {})[k] = c
    want = {N: dict(enumerate(partitions_in_box(m, N - m)))
            for N in range(n_min, n_max + 1)}
    return [] if got == want else ["census.partition_counts"]


def check_morse(report, n):
    betti = {int(k): v for k, v in _metric(report, "betti").items()}
    counts = partitions_in_box(3, n - 2)  # the census for N = n + 1
    if any(betti.get(k, 0) != counts[k - n + 2] for k in range(n - 2, 2 * n - 4)):
        return ["morse.betti_window_is_census"]
    return []


def check_bubble(result):
    failed = []
    dets = result["detections"]
    if len(dets) != 1:
        return ["bubble.one_detection"]
    south = np.array([0.0, 0.0, -1.0])
    if not float(np.dot(dets[0]["center"], south)) > 0.99:
        failed.append("bubble.center_at_south_pole")
    if not dets[0]["local_energy"] >= 0.9 * FOUR_PI:
        failed.append("bubble.local_energy_quantum")
    if abs(result["energy"] - FOUR_PI) > 0.03 * FOUR_PI:
        failed.append("bubble.energy_near_4pi")
    return failed


def check_same_report(doc, reference):
    """Reruns agree exactly except for the timestamp."""
    def canonical(d):
        return json.dumps({k: v for k, v in d.items() if k != "timestamp"},
                          sort_keys=True)

    return [] if canonical(doc) == canonical(reference) else ["determinism.report_differs"]
