"""Fast tests of the benchmark's own machinery: spans, oracles and checks."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, run, tracing

REPO = Path(__file__).resolve().parents[2]


# -- spans -------------------------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    names = ["a", "b", "c"]
    spans = [            # [function id, parent span, start, duration]
        [0, -1, 0.0, 10.0],   # a
        [1, 0, 1.0, 4.0],     #   b
        [2, 1, 2.0, 1.0],     #     c
        [1, 0, 5.0, 3.0],     #   b
        [0, 0, 8.0, 2.0],     #   a (recursive)
        [2, -1, 20.0, 0.5],   # c
    ]
    out = tracing.summarize(names, spans)
    assert out["a"] == {"s": 10.0, "self_s": (10.0 - 4.0 - 3.0 - 2.0) + 2.0, "calls": 2}
    assert out["b"] == {"s": 7.0, "self_s": (4.0 - 1.0) + 3.0, "calls": 2}
    assert out["c"] == {"s": 1.5, "self_s": 1.5, "calls": 2}
    assert tracing.count_within(names, spans, "c", ("a", "b")) == 1
    assert tracing.count_within(names, spans, "c", ("a",)) == 1
    assert tracing.count_within(names, spans, "b", ()) == 2


def test_recorder_nests_spans_and_closes_them_on_exceptions():
    ticks = iter(range(100))
    rec = tracing.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda: 1)

    def outer_fn():
        inner()
        raise ValueError

    outer = rec.wrap("outer", outer_fn)
    with pytest.raises(ValueError):
        outer()
    assert [s[:2] for s in rec.spans] == [[1, -1], [0, 0]]
    out = tracing.summarize(rec.names, rec.spans)
    assert out["outer"]["calls"] == out["inner"]["calls"] == 1
    assert out["outer"]["self_s"] == out["outer"]["s"] - out["inner"]["s"]


def test_wrapped_function_counted_once_per_call_whichever_module_calls(tmp_path):
    script = tmp_path / "calls.py"
    script.write_text(
        "import spherelab, spherelab.cli, spherelab.flow\n"
        "from spherelab import energy, sphere_mesh\n"
        "mesh = spherelab.build_icosphere(1)\n"          # package re-export
        "sphere_mesh.build_icosphere(1)\n"              # defining module
        "spherelab.cli.build_icosphere(1)\n"            # bound by name in cli
        "f = energy.equator_map(mesh, 3)\n"
        "energy.alpha_energy(f, 1.1)\n"
        "spherelab.flow.alpha_energy(f, 1.1)\n"         # bound by name in flow
        "mesh.solve_mass(mesh.vertices[:, 0])\n"        # method, wrapped on the class
    )
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    subprocess.run([sys.executable, "-m", "perfbench.tracing", "--spans", str(spans_file),
                    "script", str(script)], check=True, env=env, cwd=tmp_path, timeout=120)
    doc = json.loads(spans_file.read_text())
    out = tracing.summarize(doc["names"], doc["spans"])
    assert out["sphere_mesh.build_icosphere"]["calls"] == 3
    assert out["sphere_mesh.validate_mesh"]["calls"] == 3
    assert out["energy.alpha_energy"]["calls"] == 2
    assert out["energy.element_energy_integrals"]["calls"] == 2
    assert out["sphere_mesh.solve_mass"]["calls"] == 1
    assert out["sphere_mesh.assemble_pencil"]["calls"] == 1
    assert set(tracing.traced_labels()) <= set(out)
    assert doc["import_s"] > 0


# -- oracles -----------------------------------------------------------------------

@pytest.mark.parametrize("parts, width, counts", [
    (1, 1, [1, 1]),
    (1, 3, [1, 1, 1, 1]),
    (3, 1, [1, 1, 1, 1]),
    (2, 2, [1, 1, 2, 1, 1]),              # {}, 1, 2 | 11, 21, 22
    (2, 3, [1, 1, 2, 2, 2, 1, 1]),
    (3, 2, [1, 1, 2, 2, 2, 1, 1]),
    (3, 3, [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]),
])
def test_partition_counts_match_small_boxes_counted_by_hand(parts, width, counts):
    assert checks.partitions_in_box(parts, width) == counts
    assert sum(counts) == math.comb(parts + width, parts)


def test_icosphere_area_approaches_sphere_from_below():
    areas = [checks.icosphere_area(level) for level in range(4)]
    assert areas == sorted(areas) and areas[-1] < 4 * math.pi
    # the icosahedron with unit circumradius: 20 faces of edge 4 / sqrt(10 + 2 sqrt 5)
    edge = 4.0 / math.sqrt(10.0 + 2.0 * math.sqrt(5.0))
    assert areas[0] == pytest.approx(20 * math.sqrt(3) / 4 * edge**2, rel=1e-12)


# -- output checks: pass on good outputs, fail on perturbed ones -------------------

def _report(metrics, checks_=()):
    return {"timestamp": "t", "metrics": {k: {"value": v} for k, v in metrics.items()},
            "checks": [{"name": n, "passed": p, "value": v} for n, p, v in checks_]}


def _perturbed(doc, metric, value):
    doc = copy.deepcopy(doc)
    doc["metrics"][metric]["value"] = value
    return doc


def test_flow_check_fails_on_perturbed_outputs():
    area = checks.icosphere_area(2)
    good = _report({"stages_completed": 2, "final_energy": area},
                   [("all_stages_converged", True, None)])
    rows = [{"stage": "0", "alpha_energy": "5.0"}, {"stage": "0", "alpha_energy": "4.0"},
            {"stage": "1", "alpha_energy": "6.0"}, {"stage": "1", "alpha_energy": "6.0"}]
    assert checks.check_flow(good, rows, [1.2, 1.1], area) == []
    assert checks.check_flow(_perturbed(good, "final_energy", area * (1 + 1e-5)),
                             rows, [1.2, 1.1], area) == ["flow.final_energy_is_mesh_area"]
    assert checks.check_flow(_perturbed(good, "stages_completed", 1),
                             rows, [1.2, 1.1], area) == ["flow.stages_converged"]
    rising = rows + [{"stage": "1", "alpha_energy": "6.000001"}]
    assert checks.check_flow(good, rising, [1.2, 1.1], area) == ["flow.armijo_monotone"]
    unconverged = copy.deepcopy(good)
    unconverged["checks"][0]["passed"] = False
    assert checks.check_flow(unconverged, rows, [1.2, 1.1], area) == ["flow.stages_converged"]


def test_spectrum_check_fails_on_perturbed_outputs():
    good = _report({"index": 3, "nullity": 15, "leading_eigenvalue": -1.99})
    assert checks.check_spectrum(good, 5) == []
    assert checks.check_spectrum(_perturbed(good, "index", 2), 5)
    assert checks.check_spectrum(_perturbed(good, "nullity", 16), 5)
    assert checks.check_spectrum(_perturbed(good, "leading_eigenvalue", -1.85), 5)


def test_covers_check_fails_on_perturbed_outputs():
    good = _report({"energy": 8 * math.pi, "lambda1": 0.75, "normal_index": 4},
                   [("riemann_hurwitz", True, 2)])
    assert checks.check_covers(good, 4, 2) == []
    assert checks.check_covers(_perturbed(good, "energy", 8 * math.pi * 1.03), 4, 2)
    assert checks.check_covers(_perturbed(good, "lambda1", 1.01), 4, 2)
    assert checks.check_covers(_perturbed(good, "normal_index", 3), 4, 2)
    odd = copy.deepcopy(good)
    odd["checks"][0]["value"] = 3
    assert checks.check_covers(odd, 4, 2) == ["covers.total_branching"]


def test_pinch_check_fails_on_perturbed_outputs():
    good = _report({"violations": 0, "hypothesis_satisfied": True, "worst_margin": 0.3})
    assert checks.check_pinch(good) == []
    assert checks.check_pinch(_perturbed(good, "violations", 1))
    assert checks.check_pinch(_perturbed(good, "hypothesis_satisfied", False))
    assert checks.check_pinch(_perturbed(good, "worst_margin", -1e-6))
    assert checks.check_pinch(_perturbed(good, "worst_margin", float("nan")))


def test_census_check_fails_on_a_count_off_by_one():
    rows = [(N, k, c) for N in range(5, 9)
            for k, c in enumerate(checks.partitions_in_box(3, N - 3))]
    assert checks.check_census(rows, 3, 5, 8) == []
    N, k, c = rows[7]
    assert checks.check_census(rows[:7] + [(N, k, c + 1)] + rows[8:], 3, 5, 8)
    assert checks.check_census([r for r in rows if r[0] != 8], 3, 5, 8)


def test_morse_check_fails_on_a_betti_number_off_by_one():
    n = 6
    census = checks.partitions_in_box(3, n - 2)
    betti = {str(k): census[k - n + 2] for k in range(n - 2, 2 * n - 4)}
    good = _report({"betti": betti})
    assert checks.check_morse(good, n) == []
    bad = copy.deepcopy(betti)
    bad[str(n)] += 1
    assert checks.check_morse(_perturbed(good, "betti", bad), n)


def test_bubble_check_fails_on_perturbed_outputs():
    det = {"center": [0.0, 0.0, -1.0], "local_energy": 12.3}
    good = {"energy": 12.34, "detections": [det]}
    assert checks.check_bubble(good) == []
    assert checks.check_bubble(dict(good, detections=[det, det]))
    assert checks.check_bubble(dict(good, detections=[dict(det, center=[0.0, 0.2, -0.97])]))
    assert checks.check_bubble(dict(good, detections=[dict(det, local_energy=11.0)]))
    assert checks.check_bubble(dict(good, energy=4 * math.pi * 1.04))


def test_determinism_check_ignores_only_the_timestamp():
    doc = _report({"index": 2, "leading_eigenvalue": -1.9976106026770175})
    assert checks.check_same_report(dict(doc, timestamp="later"), doc) == []
    assert checks.check_same_report(
        _perturbed(doc, "leading_eigenvalue", -1.9976106026770166), doc)


# -- metric names match BENCHMARK.json --------------------------------------------

def test_printed_metrics_are_the_ones_benchmark_json_declares():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    op = run.Op("spectrum_n4", "spectrum", {"n": 4})
    traced = run.OpResult(op, 0, 2.0, 2.0, 100.0, spans={
        "names": ["spectrum.eigsh", "energy.alpha_energy"],
        "spans": [[0, -1, 0.0, 1.0], [0, -1, 1.0, 1.0]], "import_s": 0.5})
    plain = run.OpResult(op, 0, 1.0, 1.0, 90.0)
    per_layer = run.with_units(run.trace_metrics([[plain]], [[traced]]))
    assert list(per_layer) == [m["name"] for m in bench["per_layer"]]
    assert {k: v["unit"] for k, v in per_layer.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer["spectrum.eigensolves_per_op"]["value"] == 2
    assert per_layer["trace.overhead_pct"]["value"] == pytest.approx(100.0)
    end_to_end = run.with_units(run.end_to_end_metrics([0.7, 0.8, 0.9], [[plain]]))
    assert {k: v["unit"] for k, v in end_to_end.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
