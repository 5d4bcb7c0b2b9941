"""The benchmark's tracer wraps spherelab functions by name: each must stay bound.

perfbench/tracing.py is read from its file, so these tests need no import
path beyond the package's own.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest
from scipy.sparse.linalg import eigsh

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves(tracing):
    for layer, paths in tracing.TRACED.items():
        owner = importlib.import_module(f"spherelab.{layer}")
        for path in paths:
            assert callable(functools.reduce(getattr, path.split("."), owner)), \
                f"spherelab.{layer}.{path}"


def test_eigensolver_layers_bind_eigsh(tracing):
    assert set(tracing.EIGENSOLVER_LAYERS) >= {"spectrum", "covers"}
    for layer in tracing.EIGENSOLVER_LAYERS:
        assert importlib.import_module(f"spherelab.{layer}").eigsh is eigsh
