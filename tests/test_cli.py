import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from conftest import assert_spectra_close, count_eigsh, p1_scatter_reference
from spherelab import assemble_pencil, build_icosphere
from spherelab import covers as covers_mod
from spherelab import flow as flow_mod
from spherelab import sphere_mesh as sphere_mesh_mod
from spherelab import spectrum as spectrum_mod
from spherelab.cli import (
    CENSUS_MAX_PARTITIONS,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_NUMERIC,
    EXIT_OK,
    FACTORED_MAX_LEVEL,
    MORSE_MAX_N,
    PINCH_MAX_N,
    PINCH_MAX_SAMPLES,
    SPECTRUM_MAX_K,
    SPECTRUM_MAX_LEVEL,
    main,
    run,
    validate_config,
)
from spherelab.energy import project_tangent
from spherelab.errors import NumericError

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


# -- validation -----------------------------------------------------------------


def test_validate_ok(tmp_path):
    path = write_config(tmp_path, "census.json",
                        {"kind": "census", "m": 3, "N_min": 5, "N_max": 9})
    assert main(["validate", "--config", path]) == EXIT_OK


def test_validate_missing_field(tmp_path, capsys):
    path = write_config(tmp_path, "flow.json",
                        {"kind": "flow", "level": 2, "n": 4})
    assert main(["validate", "--config", path]) == EXIT_CONFIG
    assert "alpha_schedule" in capsys.readouterr().err


def test_validate_negative_level(tmp_path, capsys):
    path = write_config(
        tmp_path, "flow.json",
        {"kind": "flow", "level": -1, "n": 4, "alpha_schedule": [1.1]},
    )
    assert main(["validate", "--config", path]) == EXIT_CONFIG
    assert "level" in capsys.readouterr().err


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "census",')
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line" in err


def test_validate_config_unit():
    assert validate_config({"kind": "pinch", "delta": 0.5, "samples": 10,
                            "n": 4}) == []
    diags = validate_config({"kind": "pinch", "delta": 1.5, "samples": 10,
                             "n": 4})
    assert any("delta" in d for d in diags)


@pytest.mark.parametrize("cfg, field", [
    ({"kind": "flow", "level": True, "n": 4, "alpha_schedule": [1.1]}, "level"),
    ({"kind": "flow", "level": 2, "n": 4, "alpha_schedule": [True]}, "alpha_schedule"),
    ({"kind": "spectrum", "level": 2, "n": 4, "alpha": False}, "alpha"),
    ({"kind": "pinch", "delta": True, "samples": 10, "n": 4}, "delta"),
])
def test_validate_rejects_bools(tmp_path, capsys, cfg, field):
    # bool subclasses int, but true/false is never a level, count or alpha
    diags = validate_config(cfg)
    assert diags and all(field in d for d in diags)
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["validate", "--config", path]) == EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("cfg, fields", [
    ({"kind": "pinch", "delta": 0.5, "samples": 10, "n": PINCH_MAX_N + 1}, ["n"]),
    ({"kind": "pinch", "delta": 0.5, "samples": PINCH_MAX_SAMPLES + 1, "n": 4},
     ["samples"]),
    # C(40, 20) ~ 1.4e11 partitions
    ({"kind": "census", "m": 20, "N_min": 40, "N_max": 40}, ["m", "N_min", "N_max"]),
    ({"kind": "spectrum", "level": 3, "n": MORSE_MAX_N + 1}, ["n"]),
    ({"kind": "spectrum", "level": 3, "n": 4, "k": 0}, ["k"]),
    ({"kind": "spectrum", "level": 3, "n": 4, "k": SPECTRUM_MAX_K + 1}, ["k"]),
    ({"kind": "spectrum", "level": 3, "n": 4, "k": 22.0}, ["k"]),
    ({"kind": "spectrum", "level": 3, "n": 4, "k": True}, ["k"]),
    ({"kind": "spectrum", "level": 3, "n": 4, "tau": 0}, ["tau"]),
    ({"kind": "spectrum", "level": 3, "n": 4, "tau": -1e-3}, ["tau"]),
    ({"kind": "spectrum", "level": 3, "n": 4, "tau": "1e-3"}, ["tau"]),
    ({"kind": "spectrum", "level": 3, "n": 4, "tau": True}, ["tau"]),
    # a spectrum's cost is in its level, not in n: level 7 was not measured
    ({"kind": "spectrum", "level": SPECTRUM_MAX_LEVEL + 1, "n": 3}, ["level"]),
    ({"kind": "spectrum", "level": 8, "n": 3}, ["level"]),
    ({"kind": "spectrum", "level": SPECTRUM_MAX_LEVEL, "n": MORSE_MAX_N + 1}, ["n"]),
    # collapses to a constant map, which cannot be recentered
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "start": "perturbed_constant"}, ["start"]),
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "start": "constant"}, ["start"]),
    # one diagnostic per field, also where a kind checks level or n itself
    ({"kind": "flow", "level": 9, "n": 4, "alpha_schedule": [1.2]}, ["level"]),
    ({"kind": "flow", "level": True, "n": 4, "alpha_schedule": [1.2]}, ["level"]),
    ({"kind": "flow", "level": 3, "n": 1, "alpha_schedule": [1.2]}, ["n"]),
    ({"kind": "spectrum", "level": 9, "n": 4}, ["level"]),
    ({"kind": "spectrum", "level": 3, "n": True}, ["n"]),
    ({"kind": "covers", "level": 9, "n": 4, "degree": 2}, ["level"]),
    ({"kind": "covers", "level": 3, "n": 1, "degree": 2}, ["n"]),
    ({"kind": "pinch", "delta": 0.5, "samples": 10, "n": 1}, ["n"]),
    # flow's optional fields
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "max_iterations": 2.5}, ["max_iterations"]),
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "max_iterations": 0}, ["max_iterations"]),
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "grad_tol": -1}, ["grad_tol"]),
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "grad_tol": 0.0}, ["grad_tol"]),
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "grad_tol": "1e-3"}, ["grad_tol"]),
    # flow and covers factor a V x V P1 matrix: level 8 exhausts memory
    ({"kind": "flow", "level": FACTORED_MAX_LEVEL + 1, "n": 4, "alpha_schedule": [1.2]},
     ["level"]),
    ({"kind": "covers", "level": FACTORED_MAX_LEVEL + 1, "n": 4, "degree": 2}, ["level"]),
    # a V x (n+1) start map at n = 1e8 would take 131 TB at level 7
    ({"kind": "flow", "level": 7, "n": 100_000_000, "alpha_schedule": [1.2]}, ["n"]),
    ({"kind": "flow", "level": 3, "n": MORSE_MAX_N + 1, "alpha_schedule": [1.2]}, ["n"]),
    ({"kind": "covers", "level": 7, "n": 100_000_000, "degree": 2}, ["n"]),
    ({"kind": "covers", "level": 3, "n": MORSE_MAX_N + 1, "degree": 2}, ["n"]),
    # a key no runner reads is refused by name, census n included
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "grad_tolerance": 1e-3}, ["grad_tolerance"]),
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "preconditioned": 1}, ["preconditioned"]),
    ({"kind": "census", "m": 3, "N_min": 5, "N_max": 9, "n": 4}, ["n"]),
    # flags that were read as truthy
    ({"kind": "spectrum", "level": 3, "n": 4, "export_mesh": 1}, ["export_mesh"]),
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2],
      "semicontinuity_experiment": "yes"}, ["semicontinuity_experiment"]),
    # np.random.default_rng refuses a negative seed
    ({"kind": "pinch", "delta": 0.5, "samples": 10, "n": 4, "seed": -1}, ["seed"]),
    # an infinite alpha makes the weighted pencil singular
    ({"kind": "spectrum", "level": 2, "n": 4, "alpha": math.inf}, ["alpha"]),
    ({"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2, math.inf]},
     ["alpha_schedule"]),
])
def test_validate_cost_guards(tmp_path, capsys, cfg, fields):
    diags = validate_config(cfg)
    assert len(diags) == 1 and all(f"'{f}'" in diags[0] for f in fields)
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["validate", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(f"'{f}'" in err for f in fields)


def test_cost_guards_admit_their_bounds(tmp_path):
    assert validate_config({"kind": "pinch", "delta": 0.5,
                            "samples": PINCH_MAX_SAMPLES, "n": PINCH_MAX_N}) == []
    # sum of C(N, 4) for N = 5..47 is C(48, 5) - 1 = 1712303; N_max stays <= 40
    total = sum(math.comb(N, 4) for N in range(5, 41))
    assert total <= CENSUS_MAX_PARTITIONS
    assert validate_config({"kind": "census", "m": 4, "N_min": 5, "N_max": 40}) == []
    assert validate_config({"kind": "spectrum", "level": 4, "n": 16,
                            "k": SPECTRUM_MAX_K, "tau": 1e-6}) == []
    assert validate_config({"kind": "spectrum", "level": 4, "n": 3, "k": 1,
                            "tau": 2}) == []
    # refused by the bound on faces x (n+1)^2 that the full pencil needed
    assert validate_config({"kind": "spectrum", "level": 5, "n": 8}) == []
    assert validate_config({"kind": "spectrum", "level": 6, "n": 4}) == []
    assert SPECTRUM_MAX_LEVEL == 6
    assert validate_config({"kind": "spectrum", "level": 5, "n": 16}) == []
    assert validate_config({"kind": "spectrum", "level": SPECTRUM_MAX_LEVEL,
                            "n": MORSE_MAX_N, "k": SPECTRUM_MAX_K}) == []
    # the accepted side at n = 39, run at a small level
    out = str(tmp_path / "spectrum")
    assert run({"kind": "spectrum", "level": 2, "n": MORSE_MAX_N}, out) == EXIT_OK
    assert read_report(out)["metrics"]["index"]["value"] == MORSE_MAX_N - 2
    assert FACTORED_MAX_LEVEL == 7
    assert validate_config({"kind": "flow", "level": 7, "n": 4,
                            "alpha_schedule": [1.2]}) == []
    assert validate_config({"kind": "covers", "level": 7, "n": 4, "degree": 2}) == []


@pytest.mark.parametrize("kind, cfg, flags", [
    ("spectrum", {"kind": "spectrum", "level": 3, "n": 4}, ["--level", "9"]),
    ("flow", {"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2]},
     ["--level", "8"]),
    ("pinch", {"kind": "pinch", "delta": 0.5, "samples": 10, "n": 4}, ["--seed", "-1"]),
])
def test_level_override_validated_with_the_config(tmp_path, capsys, kind, cfg, flags):
    # the overrides (--level, --seed) are applied before the one validation,
    # not checked after it; the diagnostic names the overridden field
    path = write_config(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "out")
    assert main([kind, "--config", path, "--out", out, *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{flags[0][2:]}'" in err
    assert not os.path.exists(out)


def test_census_plane_dimension_below_n_min(tmp_path, capsys):
    cfg = {"kind": "census", "m": 5, "N_min": 3, "N_max": 9}
    diags = validate_config(cfg)
    assert len(diags) == 1 and "'m'" in diags[0] and "'N_min'" in diags[0]
    path = write_config(tmp_path, "census.json", cfg)
    for command in ("validate", "census"):
        assert main([command, "--config", path,
                     *(["--out", str(tmp_path / "out")] if command == "census" else [])]
                    ) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'m'" in err and "'N_min'" in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("cfg", [
    # n = 40 validated, then failed topology's N = n + 1 <= 40 guard at run time
    {"kind": "morse", "n": MORSE_MAX_N + 1},
    {"kind": "morse", "n": 3},
    # with a complex_path, n still feeds the predicted counts and the census
    {"kind": "morse", "complex_path": "complex.json", "n": 3},
    {"kind": "morse", "complex_path": "complex.json", "n": 2},
    {"kind": "morse", "complex_path": "complex.json", "n": MORSE_MAX_N + 1},
])
def test_morse_n_outside_guard_exits_3(tmp_path, capsys, cfg):
    diags = validate_config(cfg)
    assert len(diags) == 1 and "'n'" in diags[0]
    path = write_config(tmp_path, "morse.json", cfg)
    out = str(tmp_path / "out")
    for command in ("validate", "morse"):
        assert main([command, "--config", path,
                     *(["--out", out] if command == "morse" else [])]) == EXIT_CONFIG
        assert "'n'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_morse_guard_admits_its_bounds():
    assert MORSE_MAX_N == 39
    for n in (4, MORSE_MAX_N):
        assert validate_config({"kind": "morse", "n": n}) == []
        assert validate_config({"kind": "morse", "complex_path": "c.json", "n": n}) == []
    assert validate_config({"kind": "morse", "complex_path": "c.json"}) == []


def readme_example_configs():
    with open(README) as fh:
        text = fh.read()
    block = text.split("Example configs:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    decoder, configs, pos = json.JSONDecoder(), [], 0
    block = block.strip()
    while pos < len(block):
        cfg, pos = decoder.raw_decode(block, pos)
        configs.append(cfg)
        while pos < len(block) and block[pos].isspace():
            pos += 1
    return configs


def test_example_and_benchmark_configs_validate():
    examples = readme_example_configs()
    assert {cfg["kind"] for cfg in examples} == {"census", "spectrum", "covers",
                                                 "pinch", "morse", "flow"}
    certify = [
        {"kind": "pinch", "delta": 0.5, "n": 5, "samples": 100000, "seed": 42},
        {"kind": "census", "m": 3, "N_min": 5, "N_max": 40},
        {"kind": "morse", "n": 12},
    ]
    spectra = [
        {"kind": "spectrum", "level": 4, "n": 4},
        {"kind": "spectrum", "level": 4, "n": 5},
        {"kind": "covers", "level": 6, "n": 4, "degree": 2},
    ]
    assert sum(math.comb(N, 3) for N in range(5, 41)) == 101265
    for cfg in examples + certify + spectra:
        assert validate_config(cfg) == [], cfg


# -- runs ------------------------------------------------------------------------


def test_census_run(tmp_path):
    path = write_config(tmp_path, "census.json",
                        {"kind": "census", "m": 3, "N_min": 5, "N_max": 9})
    out = str(tmp_path / "out")
    assert main(["census", "--config", path, "--out", out]) == EXIT_OK
    report = read_report(out)
    assert all(c["passed"] for c in report["checks"])
    assert os.path.exists(os.path.join(out, "census.csv"))


def test_spectrum_run(tmp_path):
    path = write_config(tmp_path, "spectrum.json",
                        {"kind": "spectrum", "level": 3, "n": 4})
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", path, "--out", out]) == EXIT_OK
    report = read_report(out)
    assert report["metrics"]["index"]["value"] == 2
    assert os.path.exists(os.path.join(out, "spectra.csv"))


def test_covers_run(tmp_path):
    path = write_config(tmp_path, "covers.json",
                        {"kind": "covers", "level": 4, "n": 4, "degree": 2})
    out = str(tmp_path / "out")
    assert main(["covers", "--config", path, "--out", out]) == EXIT_OK
    report = read_report(out)
    assert report["metrics"]["lambda1"]["value"] <= 1.05
    assert report["metrics"]["normal_index"]["value"] >= 4
    (converged,) = [c for c in report["checks"] if c["name"] == "eigensolver_converged"]
    assert converged["passed"] is True and converged["anchor"] == "covers.solver_converged"


def test_covers_on_a_pencil_smaller_than_k_solves_densely(tmp_path, monkeypatch):
    # level 0 has 12 vertices, fewer than the k = 16 of a double cover: the
    # pullback pencil is solved densely, and the run ends with a report (its
    # coarse-mesh checks may fail)
    solves = []
    solve = covers_mod.pullback_laplace_eigenvalues

    def recorded(f, **kwargs):
        solves.append((f, solve(f, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(covers_mod, "pullback_laplace_eigenvalues", recorded)
    path = write_config(tmp_path, "covers.json",
                        {"kind": "covers", "level": 0, "n": 4, "degree": 2})
    out = str(tmp_path / "out")
    assert main(["covers", "--config", path, "--out", out]) in (EXIT_OK, EXIT_NUMERIC)
    ((f, (vals, _, _)),) = solves
    mesh = f.mesh
    rho, _ = covers_mod._conformal_factors(f, 1e-8)
    m_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    M_rho = p1_scatter_reference(mesh, (rho * mesh.face_areas)[:, None, None] * m_local,
                                 symmetrize=True)
    dense = scipy.linalg.eigh(assemble_pencil(mesh).K.toarray(), M_rho.toarray(),
                              eigvals_only=True)
    assert np.array_equal(vals, dense) and len(vals) == mesh.vertex_count
    assert read_report(out)["metrics"]["lambda1"]["value"] == dense[np.abs(dense) > 1e-8][0]


def test_covers_run_whose_eigensolve_does_not_converge_writes_its_report(tmp_path, capsys,
                                                                          monkeypatch):
    # the covers solve is spectrum.pencil_eigenvalues: an ARPACK stall with an
    # empty partial batch leaves lambda1 null and fails every check that reads
    # it, without a NaN in the report, and the run exits 2 with its report
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([]), None)

    monkeypatch.setattr(spectrum_mod, "eigsh", stalled)
    path = write_config(tmp_path, "covers.json",
                        {"kind": "covers", "level": 2, "n": 4, "degree": 2})
    out = str(tmp_path / "out")
    assert main(["covers", "--config", path, "--out", out]) == EXIT_NUMERIC
    assert "numeric failure" not in capsys.readouterr().err
    with open(os.path.join(out, "report.json")) as fh:
        assert "NaN" not in fh.read()
    report = read_report(out)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["eigensolver_converged"]["passed"] is False
    assert report["metrics"]["lambda1"]["value"] is None
    for name in ("yang_yau", "double_cover_lambda1"):
        assert checks[name]["passed"] is False and checks[name]["value"] is None
    assert checks["riemann_hurwitz"]["passed"] is True


@pytest.mark.parametrize("doc, key", [
    ({}, "generators"),
    ({"generators": [{"id": "a", "degree": 1}, {"id": "b", "degree": 0}],
      "boundaries": [{"from": "a", "count_mod2": 1}]}, "to"),
    ([], "generators"),
    ({"generators": [3]}, "generators"),
    ({"generators": {"id": "a"}}, "generators"),
    ({"generators": [{"id": "a", "degree": "x"}]}, "degree"),
    ({"generators": [{"id": "a", "degree": 1}], "boundaries": 3}, "boundaries"),
    # JSON true is no integer
    ({"generators": [{"id": "a", "degree": True}, {"id": "b", "degree": 0}],
      "boundaries": [{"from": "a", "to": "b", "count_mod2": 1}]}, "degree"),
    ({"generators": [{"id": "a", "degree": 1}, {"id": "b", "degree": 0}],
      "boundaries": [{"from": "a", "to": "b", "count_mod2": True}]}, "count_mod2"),
])
def test_morse_complex_of_the_wrong_shape_exits_2(tmp_path, capsys, doc, key):
    # a complex document without a required key, or of another shape, is a
    # complex-content error, as a missing file is: exit 2 with the key at
    # fault named, no traceback
    complex_path = write_config(tmp_path, "complex.json", doc)
    path = write_config(tmp_path, "morse.json",
                        {"kind": "morse", "complex_path": complex_path, "n": 4})
    assert main(["morse", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.search(rf"PreconditionError: complex document\b.*{re.escape(repr(key))}", err)
    assert "Traceback" not in err


def test_spectrum_run_solves_once(tmp_path, monkeypatch):
    calls = count_eigsh(monkeypatch, spectrum_mod)
    path = write_config(tmp_path, "spectrum.json",
                        {"kind": "spectrum", "level": 3, "n": 4})
    assert main(["spectrum", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    # the tau calibration and the index share one split solve: the tangential
    # pencil at k = 22 and the scalar one at ceil(22 / (n - 2)) = 11
    assert calls == [22, 11]


def test_spectrum_run_with_own_k_solves_twice(tmp_path, monkeypatch):
    calls = count_eigsh(monkeypatch, spectrum_mod)
    path = write_config(tmp_path, "spectrum.json",
                        {"kind": "spectrum", "level": 3, "n": 4, "k": 25})
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", path, "--out", out]) == EXIT_OK
    assert calls == [22, 11, 25, 13]
    assert read_report(out)["metrics"]["nullity"]["value"] == 12


def test_spectrum_run_matches_separate_solves(tmp_path, dense_equator_spectrum):
    path = write_config(tmp_path, "spectrum.json",
                        {"kind": "spectrum", "level": 3, "n": 5})
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", path, "--out", out]) == EXIT_OK
    # the pre-sharing path: calibration and index each make a fresh split
    # solve, on meshes of their own
    mesh = build_icosphere(3)
    tau = spectrum_mod.calibrate_tau(mesh, 5)
    vals, converged = spectrum_mod.equator_spectrum(build_icosphere(3), 5, 1.0, 26)
    rep = spectrum_mod.classify_spectrum(vals, converged, 26, tau)
    metrics = read_report(out)["metrics"]
    assert metrics["tau"]["value"] == tau
    assert (metrics["index"]["value"], metrics["nullity"]["value"]) == (rep.index,
                                                                        rep.nullity)
    with open(os.path.join(out, "spectra.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(int(r), float(v), c) for r, v, c in rows] == rep.to_rows()
    # and the full reduced pencil, to 1e-10, with the same index and nullity
    full = spectrum_mod.classify_spectrum(dense_equator_spectrum(mesh, 5, 1.0)[:26],
                                          True, 26, tau)
    assert_spectra_close(rep.eigenvalues, full.eigenvalues)
    assert (full.index, full.nullity) == (rep.index, rep.nullity)


def test_spectrum_run_away_from_alpha_one_checks_the_index_only(tmp_path):
    # the nullity 3(n - 2) + 6 and the leading eigenvalue -2 are the equator's
    # values at alpha = 1; at alpha = 1.1 it reads nullity 9 and leading -3.04
    out = str(tmp_path / "out")
    assert run({"kind": "spectrum", "level": 4, "n": 4, "alpha": 1.1, "k": 60}, out) == EXIT_OK
    report = read_report(out)
    assert report["metrics"]["index"]["value"] == 2
    assert "nullity" in report["metrics"]
    assert [c["name"] for c in report["checks"]] == ["index_equals_n_minus_2",
                                                     "eigensolver_converged"]


def test_double_cover_run_solves_once(tmp_path, monkeypatch):
    calls = count_eigsh(monkeypatch, spectrum_mod)
    path = write_config(tmp_path, "covers.json",
                        {"kind": "covers", "level": 3, "n": 4, "degree": 2})
    out = str(tmp_path / "out")
    assert main(["covers", "--config", path, "--out", out]) == EXIT_OK
    assert calls == [16]
    # the pre-sharing path: lambda1 from a k = 8 solve, the index from k = 16
    f = covers_mod.compose_cover(covers_mod.EquatorTargetMap(4),
                                 covers_mod.RationalMap.power(2), build_icosphere(3))
    metrics = read_report(out)["metrics"]
    vals, _, _ = covers_mod.pullback_laplace_eigenvalues(f, k=16)
    assert metrics["normal_index"]["value"] == covers_mod.normal_index_count(vals, 4)
    assert metrics["lambda1"]["value"] == pytest.approx(
        covers_mod.induced_metric_lambda1(f).lambda1, rel=1e-12)


def test_pinch_run(tmp_path):
    path = write_config(tmp_path, "pinch.json",
                        {"kind": "pinch", "delta": 0.5, "samples": 2000,
                         "n": 4, "seed": 0})
    out = str(tmp_path / "out")
    assert main(["pinch", "--config", path, "--out", out]) == EXIT_OK
    report = read_report(out)
    assert report["metrics"]["violations"]["value"] == 0


def test_morse_run(tmp_path):
    path = write_config(tmp_path, "morse.json", {"kind": "morse", "n": 5})
    out = str(tmp_path / "out")
    assert main(["morse", "--config", path, "--out", out]) == EXIT_OK
    report = read_report(out)
    # desk model window for n = 5 plus two nontrivially-acted generators above
    assert report["metrics"]["betti"]["value"] == {"3": 1, "4": 1, "5": 2,
                                                   "6": 2}


def test_flow_run_with_telemetry(tmp_path):
    path = write_config(
        tmp_path, "flow.json",
        {"kind": "flow", "level": 2, "n": 4,
         "alpha_schedule": [1.2, 1.1, 1.05], "seed": 1, "export_mesh": True},
    )
    out = str(tmp_path / "out")
    assert main(["flow", "--config", path, "--out", out]) == EXIT_OK
    report = read_report(out)
    assert report["checks"]
    for name in ("telemetry.csv", "records.csv", "critical_record.json",
                 "mesh.obj", "mesh.json"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "telemetry.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[:6] == ["stage", "iteration", "alpha", "alpha_energy",
                          "grad_norm", "step"]


MESH_KINDS = {
    "spectrum": ({"kind": "spectrum", "level": 3, "n": 4},
                 {"spectra.csv"}),
    "covers": ({"kind": "covers", "level": 3, "n": 4, "degree": 2},
               {"rational_map.json"}),
    "flow": ({"kind": "flow", "level": 2, "n": 4, "alpha_schedule": [1.2, 1.1], "seed": 1},
             {"telemetry.csv", "records.csv", "critical_record.json"}),
}


@pytest.mark.parametrize("kind", sorted(MESH_KINDS))
def test_export_mesh_writes_exactly_the_kinds_files(tmp_path, kind):
    # report.json, the kind's side files and the mesh, and nothing else
    cfg, side_files = MESH_KINDS[kind]
    out = str(tmp_path / "out")
    assert run({**cfg, "export_mesh": True}, out) == EXIT_OK
    assert set(os.listdir(out)) == {"report.json", "mesh.obj", "mesh.json"} | side_files
    mesh = build_icosphere(cfg["level"])
    with open(os.path.join(out, "mesh.obj")) as fh:
        tags = [line.split(" ", 1)[0] for line in fh]
    assert (tags.count("v"), tags.count("f")) == (mesh.vertex_count, mesh.face_count)
    with open(os.path.join(out, "mesh.json")) as fh:
        doc = json.load(fh)
    assert doc == {"convention": "unit_round", "face_count": mesh.face_count,
                   "level": cfg["level"], "vertex_count": mesh.vertex_count}


def test_flow_report_counts_the_initial_descent(tmp_path):
    # the initial descent is stage 0 of telemetry.csv and records.csv; the
    # report gives its iterations and the target of every stage
    cfg = {"kind": "flow", "level": 3, "n": 4, "alpha_schedule": [1.2, 1.1, 1.05],
           "seed": 1, "start": "distorted_equator"}
    out = str(tmp_path / "out")
    assert run(cfg, out) == EXIT_OK
    metrics = read_report(out)["metrics"]
    assert metrics["initial_descent_iterations"]["anchor"] == "flow.initial_descent_iterations"
    assert metrics["stage_gradient_target"]["anchor"] == "flow.stage_gradient_target"
    assert metrics["initial_descent_iterations"]["value"] > 0
    target = metrics["stage_gradient_target"]["value"]
    with open(os.path.join(out, "records.csv"), newline="") as fh:
        records = list(csv.DictReader(fh))
    with open(os.path.join(out, "telemetry.csv"), newline="") as fh:
        telemetry = list(csv.DictReader(fh))
    assert len(records) == 3 and all(float(r["grad_norm"]) <= target for r in records)
    rows_per_stage = [sum(row["stage"] == str(stage) for row in telemetry)
                      for stage in range(len(records))]
    assert rows_per_stage == [int(r["iterations"]) for r in records]
    assert len(telemetry) == sum(rows_per_stage)
    assert rows_per_stage[0] == metrics["initial_descent_iterations"]["value"] > 0


def test_flow_whose_first_descent_fails_writes_its_report(tmp_path):
    # one iteration cannot bring the distorted equator to its target: the
    # first descent is stage 0, and its failure is a failed stage
    cfg = {"kind": "flow", "level": 2, "n": 4, "alpha_schedule": [1.2],
           "max_iterations": 1, "seed": 1}
    out = str(tmp_path / "out")
    assert run(cfg, out) == EXIT_NUMERIC
    report = read_report(out)
    assert not next(c["passed"] for c in report["checks"]
                    if c["name"] == "all_stages_converged")
    assert report["metrics"]["stages_completed"]["value"] == 0


def test_no_cli_run_builds_the_full_pencil(tmp_path, monkeypatch):
    # every index solve on a CLI path is the split one: whatever n is, each
    # pencil built in frames is that of a map into S^2 (C = 3, size 2V)
    shapes, reported = [], []
    framed = spectrum_mod._framed_pencil
    monkeypatch.setattr(spectrum_mod, "_framed_pencil",
                        lambda f, parts, frames, *a: shapes.append(frames.shape)
                        or framed(f, parts, frames, *a))
    semicontinuity = flow_mod.index_semicontinuity_report
    monkeypatch.setattr(flow_mod, "index_semicontinuity_report",
                        lambda f, alpha: reported.append((f, alpha))
                        or semicontinuity(f, alpha))
    flow_path = write_config(tmp_path, "flow.json",
                             {"kind": "flow", "level": 3, "n": 5,
                              "alpha_schedule": [1.2, 1.1],
                              "semicontinuity_experiment": True})
    spectrum_path = write_config(tmp_path, "spectrum.json",
                                 {"kind": "spectrum", "level": 3, "n": 5})
    flow_out = str(tmp_path / "flow")
    assert main(["flow", "--config", flow_path, "--out", flow_out]) == EXIT_OK
    assert main(["spectrum", "--config", spectrum_path,
                 "--out", str(tmp_path / "spectrum")]) == EXIT_OK
    assert shapes and all(shape[1] == 3 for shape in shapes)
    monkeypatch.undo()
    # oracle: the full reduced pencil of the reported map, at flow's k and tau
    ((f, alpha),) = reported
    k = (f.n - 2) * 4 + 6 + 10
    full = spectrum_mod.morse_index_nullity(
        spectrum_mod.assemble_second_variation(f, alpha), k,
        spectrum_mod.calibrate_tau(f.mesh, f.n))
    metric = read_report(flow_out)["metrics"]["index_semicontinuity"]["value"]
    assert metric["index"] == full.index


def test_no_cli_flow_solves_more_than_the_live_columns(tmp_path, monkeypatch):
    # a flow runs on its start map's three live columns whatever n is: every
    # (K + M) and mass solve has at most 3 right-hand sides
    widths = []
    for owner, name in ((sphere_mesh_mod.DissectionFactor, "solve"),
                        (sphere_mesh_mod.SphereMesh, "solve_mass")):
        solve = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda self, rhs, solve=solve:
                            widths.append(np.shape(rhs)[1:] or (1,)) or solve(self, rhs))
    path = write_config(tmp_path, "flow.json",
                        {"kind": "flow", "level": 3, "n": 6, "alpha_schedule": [1.2, 1.1]})
    out = str(tmp_path / "flow")
    assert main(["flow", "--config", path, "--out", out]) == EXIT_OK
    assert widths and max(widths) <= (3,)
    assert read_report(out)["metrics"]["stages_completed"]["value"] == 2


def test_cli_flow_factors_only_stiff_plus_mass(tmp_path, monkeypatch):
    # the mass solve is an iteration: the one matrix a flow factors is K + M
    factored, residuals = [], []
    factor = sphere_mesh_mod.SphereMesh.factor
    monkeypatch.setattr(sphere_mesh_mod.SphereMesh, "factor",
                        lambda mesh, matrix: factored.append((mesh, matrix))
                        or factor(mesh, matrix))
    init = sphere_mesh_mod.DissectionFactor.__init__
    built = []
    monkeypatch.setattr(sphere_mesh_mod.DissectionFactor, "__init__",
                        lambda self, *a: built.append(self) or init(self, *a))
    harmonic_residual = flow_mod.harmonic_residual
    monkeypatch.setattr(flow_mod, "harmonic_residual",
                        lambda f: residuals.append((f, harmonic_residual(f)))
                        or residuals[-1][1])
    path = write_config(tmp_path, "flow.json",
                        {"kind": "flow", "level": 3, "n": 4, "seed": 1,
                         "alpha_schedule": [1.2, 1.1, 1.05]})
    assert main(["flow", "--config", path, "--out", str(tmp_path / "flow")]) == EXIT_OK
    assert len(built) == 1 and len(factored) == 1
    ((mesh, matrix),) = factored
    pencil = sphere_mesh_mod.assemble_pencil(mesh)
    assert (matrix != pencil.K + pencil.M).nnz == 0
    assert "mass_lu" not in mesh._cache and mesh._cache["km_lu"] is built[0]
    # oracle: the tension field's inverse-mass norm through a dense solve
    assert len(residuals) == 3
    M = pencil.M.toarray()
    for f, value in residuals:
        r = project_tangent(f, pencil.K @ f.values).values
        ref = math.sqrt(np.sum(r * scipy.linalg.solve(M, r, assume_a="pos")))
        assert abs(value - ref) <= 1e-12 * ref


def test_kind_subcommand_mismatch(tmp_path, capsys):
    path = write_config(tmp_path, "census.json",
                        {"kind": "census", "m": 3, "N_min": 5, "N_max": 6})
    assert main(["pinch", "--config", path]) == EXIT_CONFIG


def test_reports_deterministic_modulo_timestamp(tmp_path):
    path = write_config(tmp_path, "pinch.json",
                        {"kind": "pinch", "delta": 0.5, "samples": 500,
                         "n": 4, "seed": 3})
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["pinch", "--config", path, "--out", out1]) == EXIT_OK
    assert main(["pinch", "--config", path, "--out", out2]) == EXIT_OK

    def strip_timestamp(out):
        with open(os.path.join(out, "report.json")) as fh:
            lines = [ln for ln in fh if '"timestamp"' not in ln]
        return "".join(lines)

    assert strip_timestamp(out1) == strip_timestamp(out2)


def test_every_metric_carries_anchor(tmp_path):
    path = write_config(tmp_path, "census.json",
                        {"kind": "census", "m": 3, "N_min": 5, "N_max": 7})
    out = str(tmp_path / "out")
    main(["census", "--config", path, "--out", out])
    report = read_report(out)
    assert all(m.get("anchor") for m in report["metrics"].values())
    assert all(c.get("anchor") for c in report["checks"])


def test_seed_and_level_overrides(tmp_path):
    path = write_config(tmp_path, "spectrum.json",
                        {"kind": "spectrum", "level": 3, "n": 4, "seed": 0})
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", path, "--out", out,
                 "--level", "2"]) == EXIT_OK
    report = read_report(out)
    assert report["config"]["level"] == 2


def test_console_entry_point(tmp_path):
    import spherelab

    src = os.path.dirname(os.path.dirname(os.path.abspath(spherelab.__file__)))
    path = write_config(tmp_path, "census.json",
                        {"kind": "census", "m": 2, "N_min": 4, "N_max": 6})
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, "-m", "spherelab.cli", "census", "--config", path,
         "--out", out],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_OK
    assert "report.json" in proc.stdout


def test_cli_import_leaves_out_scipy_integrate():
    # quadrature is imported where it is used, not on every start-up, and
    # nothing in the package imports scipy.spatial
    import spherelab

    src = os.path.dirname(os.path.dirname(os.path.abspath(spherelab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spherelab.cli; "
         "print([m for m in ('scipy.integrate', 'scipy.spatial') if m in sys.modules])"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mesh_energy_and_flow_layers_load_numpy_alone():
    # scipy loads at the first FEM assembly or factor, not with the package:
    # the public API along criterion 8 builds no sparse matrix
    import spherelab

    src = os.path.dirname(os.path.dirname(os.path.abspath(spherelab.__file__)))
    script = (
        "import sys, spherelab, spherelab.energy as energy, spherelab.flow as flow\n"
        "mesh = spherelab.build_icosphere(3)\n"
        "f = energy.dilated_equator_map(mesh, 4, 5.0, axis='z')\n"
        "energy.dirichlet_energy(f)\n"
        "energy.alpha_energy_gradient(f, 1.05)\n"
        "flow.detect_concentration(f, 1.0, 0.2)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "spherelab.assemble_pencil(mesh)\n"
        "print(loaded, 'scipy.sparse' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] True"


def test_flow_run_leaves_out_scipy_spatial(tmp_path):
    # recentering resamples the map through the subdivision hierarchy, so a
    # flow run builds no kd-tree and never loads scipy.spatial
    import spherelab

    src = os.path.dirname(os.path.dirname(os.path.abspath(spherelab.__file__)))
    path = write_config(tmp_path, "flow.json",
                        {"kind": "flow", "level": 3, "n": 4, "seed": 1,
                         "start": "distorted_equator", "alpha_schedule": [1.2, 1.1]})
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from spherelab.cli import main; "
         f"status = main(['flow', '--config', {path!r}, '--out', {str(tmp_path / 'out')!r}]); "
         "print(status, 'scipy.spatial' in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == [str(EXIT_OK), "False"]


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    # an unattainable bound must exit with the numeric-failure status
    import spherelab.cli as cli_mod

    def failing_runner(cfg, report):
        report.check("impossible", False, "test.impossible")

    monkeypatch.setitem(cli_mod.RUNNERS, "census", failing_runner)
    path = write_config(tmp_path, "census.json",
                        {"kind": "census", "m": 3, "N_min": 5, "N_max": 6})
    assert main(["census", "--config", path,
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERIC


@pytest.mark.parametrize("error, status", [(TypeError, EXIT_INTERNAL),
                                           (NumericError, EXIT_NUMERIC)])
def test_runner_exception_exit_codes(tmp_path, monkeypatch, capsys, error, status):
    # a bug in a runner exits 4 with its traceback; a numeric failure exits 2
    import spherelab.cli as cli_mod

    def raising_runner(cfg, report):
        raise error("raised by the runner")

    monkeypatch.setitem(cli_mod.RUNNERS, "census", raising_runner)
    path = write_config(tmp_path, "census.json",
                        {"kind": "census", "m": 3, "N_min": 5, "N_max": 6})
    assert main(["census", "--config", path, "--out", str(tmp_path / "out")]) == status
    err = capsys.readouterr().err
    assert ("Traceback" in err) == (status == EXIT_INTERNAL)
    assert ("numeric failure" in err) == (status == EXIT_NUMERIC)
