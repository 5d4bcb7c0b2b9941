"""Batch experiment runner with JSON configs and machine-readable reports.

Subcommands: census | flow | spectrum | covers | pinch | morse | validate.
Each run's Report writes every file of its output directory: report.json
(every numeric claim tagged with a stable anchor string) plus the side
files of its kind.  A config may hold only the fields its kind reads, plus
seed and level, which --seed and --level set before the one validation;
flow, covers and spectrum need n <= 39, flow and covers level <= 7 and a
spectrum level <= 6.  Exit status: 0 all checks pass, 2 a required numeric
check failed, 3 the configuration is invalid, 4 an internal error
(traceback on stderr).  Reports are byte-identical across reruns with the
same config and seeds except for the timestamp field.  spherelab reads no
environment variable of its own.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
import warnings
from datetime import datetime, timezone

import numpy as np

from . import covers as covers_mod
from . import curvature as curvature_mod
from . import energy as energy_mod
from . import flow as flow_mod
from . import spectrum as spectrum_mod
from . import topology as topology_mod
from .errors import ConfigError
from .sphere_mesh import MAX_LEVEL, build_icosphere, mesh_json_doc, mesh_to_obj

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

# a runner raising one of these has a bug in it, not a numeric failure
INTERNAL_ERRORS = (TypeError, AttributeError, NameError, KeyError, IndexError,
                   AssertionError, NotImplementedError)

# cost guards: larger configs would run for hours or exhaust memory.  Each cost
# quoted is one cli.run with one BLAS thread on a 2-core Xeon (numpy 2.4, scipy 1.17)
PINCH_MAX_N = 16                    # the operator is an n^4 array, built several times
PINCH_MAX_SAMPLES = 1_000_000       # 1.5 s and 63 MB at n = 5
CENSUS_MAX_PARTITIONS = 5_000_000   # sum of C(N, m) over N_min..N_max, each enumerated
# a spectrum solves a tangent pencil of 2V rows and a scalar pencil of V rows
# whatever n is, so its cost is in the level and k; level 7 was not measured.
# Level 4, n = 39 takes 2.5 s and 93 MB; level 5, n = 16 4.5 s and 147 MB, and
# n = 39 12.2 s and 182 MB; level 6, n = 3 10.0 s and 369 MB, n = 16 21.4 s
# and 414 MB, n = 39 51.4 s and 555 MB, n = 3, k = 200 95.9 s and 573 MB, and
# n = 39, k = 200 (tangent solves of k = 162 and 200) 110.9 s and 589 MB
SPECTRUM_MAX_LEVEL = 6
SPECTRUM_MAX_K = 200
# a morse run's desk model and predicted counts need n >= 4, and its census of
# G_3(R^(n+1)) needs n + 1 within topology's size guard.  flow, covers and
# spectrum take n up to the same bound, the paper's census range: a flow and a
# cover run on the map's three live columns, but a flow's start map, each
# record's map and the padded cover hold V x (n + 1) values
MORSE_MAX_N = topology_mod.MAX_N - 1
# flow and covers each factor one V x V P1 matrix in nested-dissection order: at
# level 7, 20.5 M nonzeros and 1.2 s for order and factor.  A one-stage
# distorted-equator flow (n = 4) there takes 3.8 s and peaks at 550 MB, and a
# degree-2 cover (n = 4) 4.2 s and 477 MB; at level 8 the factor holds about
# 90 M nonzeros
FACTORED_MAX_LEVEL = 7


# -- config validation -----------------------------------------------------------

# field -> (types, interval or None, required).  An interval is over the reals,
# "[" / "]" closed and "(" / ")" open; a bool passes only where bool is the type.
# seed and level are declared on every kind: --seed and --level may set them.
INT, NUMBER, BOOL = (int,), (int, float), (bool,)
LEVEL = f"[0, {MAX_LEVEL}]"
FACTORED_LEVEL = f"[0, {FACTORED_MAX_LEVEL}]"
POSITIVE = "(0, inf)"
_EVERY_KIND = {"kind": ((str,), None, True), "seed": (INT, "[0, inf)", False),
               "level": (INT, LEVEL, False)}
CONFIG_FIELDS = {
    "census": {**_EVERY_KIND, "m": (INT, "[1, inf)", True),
               "N_min": (INT, "[2, inf)", True),
               "N_max": (INT, f"(-inf, {topology_mod.MAX_N}]", True)},
    "flow": {**_EVERY_KIND, "level": (INT, FACTORED_LEVEL, True),
             "n": (INT, f"[2, {MORSE_MAX_N}]", True),
             "alpha_schedule": ((list,), None, True),
             "start": ((str,), None, False), "max_iterations": (INT, "[1, inf)", False),
             "grad_tol": (NUMBER, POSITIVE, False), "export_mesh": (BOOL, None, False),
             "semicontinuity_experiment": (BOOL, None, False)},
    "spectrum": {**_EVERY_KIND, "level": (INT, f"[0, {SPECTRUM_MAX_LEVEL}]", True),
                 "n": (INT, f"[3, {MORSE_MAX_N}]", True),
                 "alpha": (NUMBER, "[1, inf)", False),
                 "k": (INT, f"[1, {SPECTRUM_MAX_K}]", False),
                 "tau": (NUMBER, POSITIVE, False), "export_mesh": (BOOL, None, False)},
    "covers": {**_EVERY_KIND, "level": (INT, FACTORED_LEVEL, True),
               "n": (INT, f"[3, {MORSE_MAX_N}]", True), "degree": (INT, "[1, 6]", True),
               "export_mesh": (BOOL, None, False)},
    "pinch": {**_EVERY_KIND, "delta": (NUMBER, "(0, 1]", True),
              "samples": (INT, f"[1, {PINCH_MAX_SAMPLES}]", True),
              "n": (INT, f"[4, {PINCH_MAX_N}]", True)},
    # n is required unless complex_path is given: see _cross_field_rules
    "morse": {**_EVERY_KIND, "complex_path": ((str,), None, False),
              "n": (INT, f"[4, {MORSE_MAX_N}]", False)},
}
KINDS = tuple(CONFIG_FIELDS)


def _field_diagnostic(name, value, types, interval):
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        return (f"field '{name}' has type {type(value).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}")
    if interval is not None:
        lo, hi = (float(bound) for bound in interval[1:-1].split(","))
        if not ((lo < value or interval[0] == "[" and lo == value)
                and (value < hi or interval[-1] == "]" and value == hi)):
            return f"field '{name}' value {value!r} out of range {interval}"
    return None


def _cross_field_rules(kind, cfg):
    """Yield the diagnostics of the rules that read several fields of a kind."""
    if kind == "census":
        m, n_min, n_max = cfg["m"], cfg["N_min"], cfg["N_max"]
        total = sum(math.comb(N, m) for N in range(n_min, n_max + 1))
        if n_min > n_max:
            yield "'N_min' exceeds 'N_max'"
        elif m >= n_min:
            yield (f"fields 'm', 'N_min': m = {m} must be below N_min = {n_min} "
                   f"(G_m(R^N) needs m < N)")
        elif total > CENSUS_MAX_PARTITIONS:
            yield (f"fields 'm', 'N_min', 'N_max': the census would enumerate "
                   f"{total} partitions (sum of C(N, m) over N in [N_min, N_max]), "
                   f"more than {CENSUS_MAX_PARTITIONS}")
    elif kind == "flow":
        schedule = cfg["alpha_schedule"]
        if not schedule or any(_field_diagnostic("alpha_schedule", a, NUMBER, "[1, inf)")
                               for a in schedule):
            yield "'alpha_schedule' must be a nonempty list of finite numbers >= 1"
        start = cfg.get("start", "distorted_equator")
        if start == "perturbed_constant":
            yield ("field 'start': 'perturbed_constant' always collapses to a "
                   "constant map, which cannot be recentered")
        elif start not in ("distorted_equator", "equator"):
            yield f"field 'start': unknown start map {start!r}"
    elif kind == "morse" and "n" not in cfg and "complex_path" not in cfg:
        yield "missing required field 'n' (or give 'complex_path')"


def validate_config(cfg: dict):
    """Schema diagnostics for an experiment config; empty list means OK.

    Every field is checked against its kind's row of CONFIG_FIELDS, and a key
    that row does not declare is refused; the cross-field rules run once every
    field has passed.
    """
    if not isinstance(cfg, dict):
        return ["config document must be a JSON object"]
    kind = cfg.get("kind")
    if kind not in KINDS:
        return [f"field 'kind' must be one of {KINDS}, got {kind!r}"]
    fields = CONFIG_FIELDS[kind]
    diags = [f"unknown field {key!r}: a {kind} config takes {', '.join(fields)}"
             for key in cfg if key not in fields]
    for name, (types, interval, required) in fields.items():
        if name in cfg:
            diag = _field_diagnostic(name, cfg[name], types, interval)
            diags += [diag] if diag else []
        elif required:
            diags.append(f"missing required field '{name}'")
    return diags or list(_cross_field_rules(kind, cfg))


def load_config(path: str, overrides=None) -> dict:
    """Parse a JSON config, apply the command-line overrides, then validate it."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if isinstance(cfg, dict):
        cfg.update(overrides or {})
    diags = validate_config(cfg)
    if diags:
        raise ConfigError("invalid configuration", diagnostics=diags)
    return cfg


# -- report helpers -----------------------------------------------------------------

def _json_value(value):
    """value, or None for a float that is not finite: JSON has no NaN."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


class Report:
    """A run's report.json and the side files of its kind, in one output directory."""

    def __init__(self, kind, cfg, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.doc = {
            "kind": kind,
            "config": cfg,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "checks": [],
            "metrics": {},
        }

    def metric(self, name, value, anchor):
        self.doc["metrics"][name] = {"value": _json_value(value), "anchor": anchor}

    def check(self, name, passed, anchor, value=None, bound=None):
        # the report schema keeps "required"; every check is required
        self.doc["checks"].append(dict(name=name, passed=bool(passed), anchor=anchor,
                                       value=_json_value(value), bound=bound, required=True))

    @property
    def all_passed(self):
        return all(c["passed"] for c in self.doc["checks"])

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def write_text(self, name, text):
        """Write preformatted text and a newline."""
        with open(self.path(name), "w") as fh:
            fh.write(text)
            fh.write("\n")

    def write_json(self, name, doc):
        self.write_text(name, json.dumps(doc, indent=2, sort_keys=True))

    def write_csv(self, name, header, rows):
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def write(self):
        self.write_json("report.json", self.doc)


# -- experiment implementations ------------------------------------------------------

def run_census(cfg, report):
    m = cfg["m"]
    rows = []
    all_match = True
    for N in range(cfg["N_min"], cfg["N_max"] + 1):
        census = topology_mod.schubert_cell_counts(m, N)
        oracle = topology_mod.gaussian_binomial(m, N)
        match = census.counts == oracle
        all_match &= match
        palin = census.counts == tuple(reversed(census.counts))
        total_ok = sum(census.counts) == math.comb(N, m)
        report.check(f"census_match_N{N}", match,
                     "census.counts_equal_q_binomial")
        report.check(f"census_palindromic_N{N}", palin, "census.palindromic")
        report.check(f"census_total_N{N}", total_ok, "census.total_is_binomial")
        rows.extend((N, k, c) for k, c in census.to_csv_rows())
    report.write_csv("census.csv", ("N", "k", "count"), rows)
    report.metric("m", m, "census.plane_dimension")


def run_spectrum(cfg, report):
    level, n = cfg["level"], cfg["n"]
    alpha = float(cfg.get("alpha", 1.0))
    mesh = build_icosphere(level)
    tau = cfg.get("tau")
    if tau is None:
        tau = spectrum_mod.calibrate_tau(mesh, n)
    idx_exp, nul_exp = spectrum_mod.expected_equator_counts(n)
    k = cfg.get("k", idx_exp + nul_exp + spectrum_mod.EXTRA_K)
    # with the default k and alpha = 1 this is the calibration's own solve
    vals, converged = spectrum_mod.equator_spectrum(mesh, n, alpha, k)
    rep = spectrum_mod.classify_spectrum(vals, converged, k, tau)
    report.metric("tau", tau, "spectrum.calibrated_null_threshold")
    report.metric("index", rep.index, "spectrum.morse_index")
    report.metric("nullity", rep.nullity, "spectrum.nullity")
    report.metric("leading_eigenvalue", float(rep.eigenvalues[0]),
                  "spectrum.leading_negative_eigenvalue")
    report.check("index_equals_n_minus_2", rep.index == n - 2,
                 "spectrum.totally_geodesic_index", value=rep.index, bound=n - 2)
    if alpha == 1.0:  # the equator's nullity and leading eigenvalue are known there only
        report.check("nullity_matches_orbit_dimension", rep.nullity == nul_exp,
                     "spectrum.totally_geodesic_nullity", value=rep.nullity,
                     bound=nul_exp)
        report.check("leading_eigenvalue_near_minus_2",
                     abs(rep.eigenvalues[0] + 2.0) <= 0.1,
                     "spectrum.leading_eigenvalue_value",
                     value=float(rep.eigenvalues[0]), bound=-2.0)
    report.check("eigensolver_converged", rep.converged,
                 "spectrum.solver_converged")
    report.write_csv("spectra.csv", ("rank", "eigenvalue", "classification"),
                     rep.to_rows())
    return mesh


def run_covers(cfg, report):
    level, n, degree = cfg["level"], cfg["n"], cfg["degree"]
    mesh = build_icosphere(level)
    g = covers_mod.RationalMap.power(degree)
    h = covers_mod.EquatorTargetMap(n)
    # the padded cover is dropped: its live columns are all that is read
    f = energy_mod.head_map(covers_mod.compose_cover(h, g, mesh))
    # a double cover's normal index needs k = 16; lambda1 reads the same batch.
    # A NaN lambda1 (no nonzero value in the batch) is written as null and
    # fails every check that reads it.
    res = covers_mod.induced_metric_lambda1(f, k=16 if degree == 2 else 8)
    # after the eigensolve, so the map's face integrals are not alive at its peak
    energy = energy_mod.dirichlet_energy(f)
    area = energy  # conformal: area equals energy
    report.metric("energy", energy, "covers.cover_energy")
    report.metric("lambda1", res.lambda1, "covers.pullback_first_eigenvalue")
    report.metric("floor_activations", res.floor_activations,
                  "covers.conformal_floor_activations")
    report.check("energy_multiplicative",
                 abs(energy - degree * 4.0 * math.pi) <= 0.02 * degree * 4 * math.pi,
                 "covers.energy_equals_degree_times_area",
                 value=energy, bound=degree * 4 * math.pi)
    report.check("yang_yau", res.lambda1 * area <= 8.0 * math.pi * 1.05,
                 "covers.first_eigenvalue_area_bound",
                 value=res.lambda1 * area, bound=8 * math.pi * 1.05)
    if degree == 2:
        report.check("double_cover_lambda1", res.lambda1 <= 1.05,
                     "covers.double_cover_eigenvalue_bound",
                     value=res.lambda1, bound=1.05)
        normal_index = covers_mod.normal_index_count(res.eigenvalues, n)
        report.metric("normal_index", normal_index, "covers.normal_morse_index")
        report.check("normal_index_bound", normal_index >= 2 * (n - 2),
                     "covers.double_cover_index_bound",
                     value=normal_index, bound=2 * (n - 2))
    bps = covers_mod.branch_points(g)
    total_mult = sum(mult for _, mult in bps)
    report.check("riemann_hurwitz", total_mult == 2 * degree - 2,
                 "covers.total_branching", value=total_mult,
                 bound=2 * degree - 2)
    report.check("eigensolver_converged", res.converged, "covers.solver_converged")
    report.write_json("rational_map.json", g.to_json_dict())
    return mesh


def run_pinch(cfg, report):
    n = cfg["n"]
    delta = float(cfg["delta"])
    samples = cfg["samples"]
    seed = cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    op = curvature_mod.pinched_operator(n, delta, rng)
    rep = curvature_mod.verify_pinch_implication(op, delta, samples, seed)
    for key, value in rep.to_dict().items():
        report.metric(key, value, f"pinch.{key}")
    report.check("hypotheses_hold", rep.hypothesis_satisfied,
                 "pinch.pretests_passed")
    report.check("no_violations", rep.violations == 0,
                 "pinch.half_isotropic_band", value=rep.violations, bound=0)
    lower, upper = curvature_mod.pinch_bounds(delta)
    report.metric("band", [lower, upper], "pinch.curvature_band")


def run_morse(cfg, report):
    if "complex_path" in cfg:
        with open(cfg["complex_path"]) as fh:
            complex_ = topology_mod.complex_from_json(fh.read())
        n = cfg.get("n")
    else:
        n = cfg["n"]
        complex_ = topology_mod.desk_model(n, with_b_generators=True)
    betti = topology_mod.homology_z2(complex_)
    report.metric("betti", {str(k): v for k, v in sorted(betti.items())},
                  "morse.mod2_betti_numbers")
    a_complex, b_complex, split_report = topology_mod.split_by_action(complex_, n=n)
    report.check("a_block_closed", True, "morse.trivial_action_subcomplex")
    if split_report is not None:
        ok = all(row["satisfied"] for row in split_report.values())
        report.check("a_counts_meet_predictions", ok,
                     "morse.minimum_count_inequalities")
        report.metric("split", {str(k): v for k, v in sorted(split_report.items())},
                      "morse.per_degree_counts")
    if n is not None:
        window_ok = all(betti.get(k, 0) == count
                        for k, count in topology_mod.predicted_minimum_counts(n).items())
        report.check("betti_window_matches_census", window_ok,
                     "morse.low_degree_homology")
    report.write_text("complex.json", topology_mod.complex_to_json(complex_))


def run_flow(cfg, report):
    level, n = cfg["level"], cfg["n"]
    schedule = [float(a) for a in cfg["alpha_schedule"]]
    mesh = build_icosphere(level)
    rng = np.random.default_rng(cfg.get("seed", 0))
    if cfg.get("start") == "equator":
        map0 = energy_mod.equator_map(mesh, n)
    else:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        map0 = energy_mod.dilated_equator_map(mesh, n, 0.4, axis=axis)
    config = flow_mod.FlowConfig(alpha=schedule[0], **{
        key: cfg[key] for key in ("max_iterations", "grad_tol") if key in cfg})
    result = flow_mod.continue_in_alpha(map0, schedule, config)
    # a converged record logs one energy more than steps and directions
    telemetry = [(stage, it, rec.alpha, e_alpha, dn, step, xn, dfx)
                 for stage, rec in enumerate(result.records)
                 for it, (e_alpha, step, (xn, dn, dfx)) in enumerate(
                     zip(rec.energy_log[1:], rec.step_log, rec.pseudogradient_log))]
    report.write_csv("telemetry.csv",
                     ("stage", "iteration", "alpha", "alpha_energy", "grad_norm",
                      "step", "direction_norm", "slope"), telemetry)
    report.metric("stages_completed", len(result.records), "flow.stages")
    report.check("all_stages_converged", result.succeeded,
                 "flow.continuation_converged")
    if result.records:
        report.metric("initial_descent_iterations", result.records[0].iterations,
                      "flow.initial_descent_iterations")
        report.metric("stage_gradient_target", result.records[0].target,
                      "flow.stage_gradient_target")
        last = result.records[-1]
        report.write_json("critical_record.json", last.to_json_dict())
        report.metric("final_energy", last.energy, "flow.final_energy")
        report.metric("final_alpha_energy", last.alpha_energy,
                      "flow.final_alpha_energy")
        report.metric("final_center_of_mass", last.center_of_mass_norm,
                      "flow.final_center_of_mass")
        report.metric("final_harmonic_residual", last.harmonic_residual,
                      "flow.final_harmonic_residual")
        scale = energy_mod.psi_alpha(
            energy_mod.mean_density_area_one(last.map), last.alpha
        )
        report.check("center_of_mass_vanishes",
                     last.center_of_mass_norm <= 1e-4 * scale,
                     "flow.center_of_mass_criticality",
                     value=last.center_of_mass_norm, bound=1e-4 * scale)
        rows = [(rec.alpha, rec.energy, rec.alpha_energy, rec.grad_norm, rec.iterations,
                 rec.center_of_mass_norm, rec.harmonic_residual) for rec in result.records]
        report.write_csv("records.csv",
                         ("alpha", "energy", "alpha_energy", "grad_norm", "iterations",
                          "center_of_mass", "harmonic_residual"), rows)
    if cfg.get("semicontinuity_experiment"):
        exp = flow_mod.index_semicontinuity_report(
            result.records[-1].map if result.records else map0, schedule[-1]
        )
        report.metric("index_semicontinuity", exp,
                      "flow.bubble_index_experiment")
    return mesh


RUNNERS = {"census": run_census, "spectrum": run_spectrum, "covers": run_covers,
           "pinch": run_pinch, "morse": run_morse, "flow": run_flow}


def run(cfg: dict, out_dir: str) -> int:
    """Execute one experiment; returns the process exit status."""
    report = Report(cfg["kind"], cfg, out_dir)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mesh = RUNNERS[cfg["kind"]](cfg, report)  # spectrum, covers and flow return one
    if cfg.get("export_mesh"):
        mesh_to_obj(mesh, report.path("mesh.obj"))
        report.write_text("mesh.json", mesh_json_doc(mesh))
    report.write()
    return EXIT_OK if report.all_passed else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spherelab", description="experiments on discretized minimal two-spheres")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS + ("validate",):
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="path to a JSON config")
        if kind != "validate":
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--seed", type=int, default=None, help="seed override")
            p.add_argument("--level", type=int, default=None,
                           help="mesh level override")
    args = parser.parse_args(argv)
    overrides = {key: value for key in ("seed", "level")
                 if (value := getattr(args, key, None)) is not None}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        for diag in exc.diagnostics:
            print(f"  - {diag}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print("OK")
        return EXIT_OK

    if cfg["kind"] != args.command:
        print(f"config error: config kind {cfg['kind']!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or f"spherelab_{cfg['kind']}_out"
    try:
        status = run(cfg, out_dir)
    except INTERNAL_ERRORS:
        print(f"internal error in {cfg['kind']}:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    except Exception as exc:  # numeric failures propagate with module context
        print(f"numeric failure in {cfg['kind']}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    print(f"report written to {os.path.join(out_dir, 'report.json')}")
    return status


if __name__ == "__main__":
    sys.exit(main())
