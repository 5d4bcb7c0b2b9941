"""spherelab benchmark: closed-loop workloads, timed end to end.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload descent --seed 1 --seconds 5 --trace 0

Every operation runs in a fresh interpreter against ``src/``, one at a
time, with one BLAS/OpenMP thread.  A run first times several start-ups
(``setup_s``), then runs whole rounds of the workload's operations until
``--seconds`` have passed, checks every output against the oracles in
``checks.py``, and prints one JSON object as its last line of output.
With ``--trace 1`` every operation runs untraced and then traced, and it
reports the per-layer metrics of ``tracing.py`` instead of the end-to-end
ones.  Outputs, spans and a detailed result file go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, tracing  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
BUBBLE_SCRIPT = Path(__file__).resolve().parent / "bubble_op.py"
THREADS = "1"          # BLAS/OpenMP threads in every child process
SETUP_PROBES = 5       # start-ups timed per run; setup_s is their median
OP_TIMEOUT_S = 150.0
CLI_ENTRY = "import sys; from spherelab.cli import main; sys.exit(main())"
BUBBLE_IMPORTS = "import spherelab.sphere_mesh, spherelab.energy, spherelab.flow"


@dataclass(frozen=True)
class Op:
    name: str
    kind: str              # spherelab subcommand, or "bubble"
    config: dict | None = None


def _flow(seed, schedule):
    return Op(f"flow_seed{seed}", "flow",
              {"kind": "flow", "level": 5, "n": 4, "start": "distorted_equator",
               "seed": seed, "alpha_schedule": schedule})


WORKLOADS = {
    "descent": [_flow(1, [1.2, 1.1, 1.05]), _flow(2, [1.2]), _flow(3, [1.1])],
    "spectra": [
        Op("spectrum_n4", "spectrum", {"kind": "spectrum", "level": 4, "n": 4}),
        Op("spectrum_n5", "spectrum", {"kind": "spectrum", "level": 4, "n": 5}),
        Op("covers_d2", "covers", {"kind": "covers", "level": 6, "n": 4, "degree": 2}),
    ],
    # two back-to-back processes: one level-8 run alone read 16-22 s over ten runs
    "bubble": [Op("criterion8_run1", "bubble"), Op("criterion8_run2", "bubble")],
    "certify": [
        Op("pinch", "pinch", {"kind": "pinch", "delta": 0.5, "n": 5,
                              "samples": 100000, "seed": 42}),
        Op("census", "census", {"kind": "census", "m": 3, "N_min": 5, "N_max": 40}),
        Op("morse", "morse", {"kind": "morse", "n": 12}),
    ],
}


@dataclass
class OpResult:
    op: Op
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    failures: list = field(default_factory=list)
    spans: dict | None = None   # traced runs only
    accepted_steps: int = 0     # rows of telemetry.csv, traced flow runs only


def child_env():
    env = dict(os.environ)
    env.pop("SPHERELAB_THREADS", None)  # keep the documented default
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, out_dir=None):
    """Run one child to its end; returns (exit status, wall s, cpu s, peak RSS MB)."""
    if out_dir is None:
        stdout = stderr = subprocess.DEVNULL
    else:
        stdout = open(out_dir / "stdout.txt", "w")
        stderr = open(out_dir / "stderr.txt", "w")
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=stdout, stderr=stderr)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    finally:
        if out_dir is not None:
            stdout.close()
            stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def config_path(op):
    return WORK / "configs" / f"{op.name}.json"


def op_argv(op, out_dir, traced):
    if op.kind == "bubble":
        mode, args = "script", [str(BUBBLE_SCRIPT), str(out_dir / "result.json")]
    else:
        mode, args = "cli", [op.kind, "--config", str(config_path(op)), "--out", str(out_dir)]
    if traced:
        return [sys.executable, "-m", "perfbench.tracing",
                "--spans", str(out_dir / "spans.json"), mode] + args
    return [sys.executable] + (args if mode == "script" else ["-c", CLI_ENTRY] + args)


def probe_argv(workload):
    first = WORKLOADS[workload][0]
    if first.kind == "bubble":
        return [sys.executable, "-c", BUBBLE_IMPORTS]
    return [sys.executable, "-c", CLI_ENTRY, "validate", "--config", str(config_path(first))]


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_outputs(op, out_dir):
    """Names of the failed checks of one finished operation."""
    if op.kind == "bubble":
        primary = out_dir / "result.json"
        doc = _load(primary)
        failures = checks.check_bubble(doc)
    else:
        primary = out_dir / "report.json"
        doc = _load(primary)
        cfg = op.config
        if op.kind == "flow":
            with open(out_dir / "telemetry.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            failures = checks.check_flow(doc, rows, cfg["alpha_schedule"],
                                         checks.icosphere_area(cfg["level"]))
        elif op.kind == "spectrum":
            failures = checks.check_spectrum(doc, cfg["n"])
        elif op.kind == "covers":
            failures = checks.check_covers(doc, cfg["n"], cfg["degree"])
        elif op.kind == "pinch":
            failures = checks.check_pinch(doc)
        elif op.kind == "census":
            with open(out_dir / "census.csv", newline="") as fh:
                rows = [tuple(map(int, r)) for r in list(csv.reader(fh))[1:]]
            failures = checks.check_census(rows, cfg["m"], cfg["N_min"], cfg["N_max"])
        else:
            failures = checks.check_morse(doc, cfg["n"])
    # the first repetition in this checkout is the reference for every later one
    reference = WORK / "reference" / f"{op.name}.json"
    if reference.exists():
        failures += checks.check_same_report(doc, _load(reference))
    else:
        reference.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(primary, reference)
    return failures


def run_op(op, out_dir, traced):
    out_dir.mkdir(parents=True)
    status, wall, cpu, rss = spawn(op_argv(op, out_dir, traced), out_dir)
    result = OpResult(op, status, wall, cpu, rss)
    if status != 0:
        result.failures = [f"exit_status_{status}"]
        return result
    try:
        result.failures = check_outputs(op, out_dir)
        if traced:
            result.spans = _load(out_dir / "spans.json")
            if op.kind == "flow":
                with open(out_dir / "telemetry.csv") as fh:
                    result.accepted_steps = sum(1 for _ in fh) - 1
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        result.failures = [f"output_unreadable: {type(exc).__name__}: {exc}"]
    return result


def run_rounds(ops, seconds, trace, run_dir):
    """Whole rounds of ``ops`` until ``seconds`` have passed; at least one.

    Returns the plain rounds and the traced rounds.  With ``trace`` each
    operation runs plain and then traced, back to back, so that the
    host's drift in speed falls alike on both sides of the overhead.
    """
    plain, traced = [], []
    sides = (False, True) if trace else (False,)
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        tags = {side: f"{'traced' if side else 'plain'}{len(plain)}" for side in sides}
        results = {side: [] for side in sides}
        for op in ops:
            for side in sides:
                r = run_op(op, run_dir / tags[side] / op.name, side)
                results[side].append(r)
                state = "ok" if not r.failures else "FAILED " + ", ".join(r.failures)
                print(f"{tags[side]} {op.name}: {r.wall_s:.3f} s wall, {r.cpu_s:.3f} s cpu, "
                      f"{r.rss_mb:.1f} MB peak, {state}", flush=True)
        plain.append(results[False])
        if trace:
            traced.append(results[True])
    return plain, traced


def round_wall(results):
    return sum(r.wall_s for r in results)


def layer_metrics(results):
    """Per-layer metrics of one traced round."""
    totals = {label: {"s": 0.0, "self_s": 0.0, "calls": 0}
              for label in tracing.traced_labels()
              + [f"{layer}.eigsh" for layer in tracing.EIGENSOLVER_LAYERS]}
    accepted = trials = 0
    samples = 0
    for r in results:
        if r.spans is None:
            continue
        names, spans = r.spans["names"], r.spans["spans"]
        for label, row in tracing.summarize(names, spans).items():
            for key in row:
                totals[label][key] += row[key]
        trials += tracing.count_within(names, spans, "energy.alpha_energy",
                                       ("flow.descend", "flow.continue_in_alpha"))
        accepted += r.accepted_steps
        if r.op.kind == "pinch":
            samples += r.op.config["samples"]
    metrics = {}
    for label in tracing.traced_labels():
        for key in ("s", "self_s", "calls"):
            metrics[f"{label}.{key}"] = totals[label][key]
    imports = [r.spans["import_s"] for r in results if r.spans is not None]
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["flow.armijo_accept_ratio"] = accepted / trials if trials else 0.0
    for layer in tracing.EIGENSOLVER_LAYERS:
        n_ops = sum(r.op.kind == layer for r in results)
        calls = totals[f"{layer}.eigsh"]["calls"]
        metrics[f"{layer}.eigensolves_per_op"] = calls / n_ops if n_ops else 0.0
    pinch_s = totals["curvature.verify_pinch_implication"]["s"]
    metrics["curvature.samples_per_s"] = samples / pinch_s if pinch_s else 0.0
    return metrics


UNITS = {"s": "s", "self_s": "s", "calls": "count", "import_s": "s",
         "armijo_accept_ratio": "ratio", "eigensolves_per_op": "count",
         "samples_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
         "overhead_pct": "%", "setup_s": "s", "wall_s": "s"}


def with_units(values):
    return {name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[-1]]}
            for name, value in values.items()}


def end_to_end_metrics(setup, plain):
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(round_wall(rnd) for rnd in plain),
        "peak_rss_mb": max(r.rss_mb for rnd in plain for r in rnd),
    }


def trace_metrics(plain, traced):
    """Per-layer metrics: medians over traced rounds, process figures from plain ones."""
    per_round = [layer_metrics(rnd) for rnd in traced]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    metrics["proc.cpu_s"] = statistics.median(sum(r.cpu_s for r in rnd) for rnd in plain)
    metrics["proc.peak_rss_mb"] = max(r.rss_mb for rnd in plain for r in rnd)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(round_wall(rnd) for rnd in traced)
        / statistics.median(round_wall(rnd) for rnd in plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spherelab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spherelab" / "cli.py").is_file():
        print(f"no spherelab source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    ops = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(ops)  # the seed sets the order in each round
    run_dir = WORK / "runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    (WORK / "configs").mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.config is not None:
            config_path(op).write_text(json.dumps(op.config, indent=2) + "\n")

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            status, wall, _, _ = spawn(probe_argv(args.workload))
            if status != 0:
                print(f"setup probe exited with status {status}", file=sys.stderr)
                return 2
            setup.append(wall)
        print("setup probes (s): " + ", ".join(f"{s:.4f}" for s in setup), flush=True)
    plain, traced = run_rounds(ops, args.seconds, args.trace, run_dir)
    everything = [r for rnd in plain + traced for r in rnd]
    failed = sum(bool(r.failures) for r in everything)

    metrics = trace_metrics(plain, traced) if args.trace else end_to_end_metrics(setup, plain)
    out = {"correct": failed == 0, "attempted": len(everything), "failed": failed,
           "metrics": with_units(metrics)}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": THREADS, "setup_probes_s": setup,
        "operations": [{"round": i, "traced": side is traced, "op": r.op.name,
                        "status": r.status, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                        "peak_rss_mb": r.rss_mb, "failures": r.failures}
                       for side in (plain, traced) for i, rnd in enumerate(side)
                       for r in rnd],
        "result": out,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    result_file = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
