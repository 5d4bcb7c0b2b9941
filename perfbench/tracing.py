"""Per-layer spans around spherelab's public functions, recorded from outside.

Child side: ``python -m perfbench.tracing --spans FILE cli <spherelab args>``
or ``python -m perfbench.tracing --spans FILE script PATH <args>`` imports
spherelab, puts a timing wrapper in place of every traced function in every
spherelab module that binds its name (methods are wrapped on their class),
runs the CLI or the script, and writes the spans as JSON.  Nothing in the
package itself is edited.

Benchmark side: ``summarize`` turns the spans into inclusive time, self time
and call count per traced function.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import runpy
import sys
import time

# layer -> functions traced in it; "Class.method" entries are wrapped on the class
TRACED = {
    "sphere_mesh": ("build_icosphere", "validate_mesh", "assemble_pencil",
                    "SphereMesh.max_edge_length", "SphereMesh.solve_mass",
                    "SphereMesh.solve_stiff_plus_mass"),
    "energy": ("alpha_energy", "alpha_energy_gradient", "element_energy_integrals",
               "center_of_mass", "psi_alpha", "sample_map", "recenter"),
    "flow": ("descend", "continue_in_alpha", "harmonic_residual",
             "detect_concentration"),
    "spectrum": ("calibrate_tau", "assemble_second_variation", "constrained_hessian",
                 "pencil_eigenvalues", "morse_index_nullity"),
    "covers": ("compose_cover", "evaluate_many", "pullback_laplace_eigenvalues"),
    "curvature": ("pinched_operator", "verify_pinch_implication",
                  "random_orthonormal_frame", "complex_sectional_curvature"),
    "topology": ("schubert_cell_counts", "gaussian_binomial", "desk_model",
                 "homology_z2", "split_by_action"),
    "cli": ("load_config", "run", "Report.write"),
}
# metric names that differ from the attribute path
RENAMED = {"Report.write": "report_write"}
# modules whose eigensolves are counted: each binds scipy's eigsh by name
EIGENSOLVER_LAYERS = ("spectrum", "covers")


def traced_labels():
    """Every '<layer>.<function>' label, in table order."""
    return [f"{layer}.{RENAMED.get(path, path.split('.')[-1])}"
            for layer, paths in TRACED.items() for path in paths]


class Recorder:
    """Keeps spans in memory as [function id, parent span, start, duration]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, label, fn):
        fid = len(self.names)
        self.names.append(label)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = [fid, parent, t0 - self.origin, clock() - t0]
                stack.pop()

        return wrapper


def install(recorder: Recorder):
    """Wrap every traced function wherever spherelab binds it."""
    for layer in TRACED:
        importlib.import_module(f"spherelab.{layer}")
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "spherelab" or name.startswith("spherelab."))]
    for layer, paths in TRACED.items():
        owner = sys.modules[f"spherelab.{layer}"]
        for path in paths:
            label = f"{layer}.{RENAMED.get(path, path.split('.')[-1])}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, recorder.wrap(label, getattr(cls, meth)))
                continue
            original = getattr(owner, path)
            wrapper = recorder.wrap(label, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    for layer in EIGENSOLVER_LAYERS:
        mod = sys.modules[f"spherelab.{layer}"]
        mod.eigsh = recorder.wrap(f"{layer}.eigsh", mod.eigsh)


def _outermost(spans, i):
    """True unless an ancestor span belongs to the same function."""
    fid, parent = spans[i][0], spans[i][1]
    while parent >= 0:
        if spans[parent][0] == fid:
            return False
        parent = spans[parent][1]
    return True


def summarize(names, spans):
    """label -> {"s", "self_s", "calls"} from one spans list.

    Inclusive time counts only the outermost span of a function, so a
    recursive call is not counted twice; self time is each span's duration
    minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for fid, parent, _start, dur in spans:
        if parent >= 0:
            child_time[parent] += dur
    out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in names}
    for i, (fid, _parent, _start, dur) in enumerate(spans):
        row = out[names[fid]]
        row["calls"] += 1
        row["self_s"] += dur - child_time[i]
        if _outermost(spans, i):
            row["s"] += dur
    return out


def count_within(names, spans, label, ancestors):
    """Spans of ``label`` that have a span of every label in ``ancestors`` above them."""
    count = 0
    for fid, parent, _start, _dur in spans:
        if names[fid] != label:
            continue
        seen = set()
        while parent >= 0:
            seen.add(names[spans[parent][0]])
            parent = spans[parent][1]
        count += all(a in seen for a in ancestors)
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("mode", choices=("cli", "script"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    t0 = time.perf_counter()
    import spherelab.cli
    import_s = time.perf_counter() - t0
    recorder = Recorder()
    install(recorder)
    status = 0
    try:
        if opts.mode == "cli":
            status = spherelab.cli.main(opts.args)
        else:
            sys.argv = list(opts.args)
            try:
                runpy.run_path(opts.args[0], run_name="__main__")
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(opts.spans, "w") as fh:
            json.dump({"names": recorder.names, "spans": recorder.spans,
                       "import_s": import_s}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
