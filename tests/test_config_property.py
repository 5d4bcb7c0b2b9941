"""Property test of the config contract: validate_config never raises, and a
config it accepts holds only declared fields and stays within every guard."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab import topology as topology_mod
from spherelab.cli import (
    CENSUS_MAX_PARTITIONS,
    CONFIG_FIELDS,
    FACTORED_MAX_LEVEL,
    MORSE_MAX_N,
    PINCH_MAX_N,
    PINCH_MAX_SAMPLES,
    SPECTRUM_MAX_K,
    SPECTRUM_MAX_LEVEL,
    validate_config,
)

# what json.loads can return, NaN and +-inf included
scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6))
json_docs = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

# valid configs at or next to each guard, so that one moved field crosses it
BASES = {
    "census": [{"m": 3, "N_min": 5, "N_max": 9}, {"m": 5, "N_min": 7, "N_max": 40}],
    "flow": [{"level": FACTORED_MAX_LEVEL, "n": 4, "alpha_schedule": [1.2, 1.1]},
             {"level": FACTORED_MAX_LEVEL, "n": MORSE_MAX_N, "alpha_schedule": [1.2]}],
    "spectrum": [{"level": SPECTRUM_MAX_LEVEL, "n": MORSE_MAX_N},
                 {"level": SPECTRUM_MAX_LEVEL, "n": 3, "k": SPECTRUM_MAX_K},
                 {"level": 5, "n": 16}],
    "covers": [{"level": FACTORED_MAX_LEVEL, "n": 4, "degree": 2},
               {"level": FACTORED_MAX_LEVEL, "n": MORSE_MAX_N, "degree": 6}],
    "pinch": [{"delta": 1, "samples": PINCH_MAX_SAMPLES, "n": PINCH_MAX_N}],
    "morse": [{"n": MORSE_MAX_N}, {"complex_path": "complex.json"}],
}
# each numeric field's bounds, stated apart from the field table
FIELD_BOUNDS = {
    "seed": [0], "level": [0, SPECTRUM_MAX_LEVEL, FACTORED_MAX_LEVEL, 8], "n": [2, 3, 4, PINCH_MAX_N, MORSE_MAX_N],
    "m": [1, 5], "N_min": [2, 7], "N_max": [topology_mod.MAX_N], "max_iterations": [1],
    "k": [1, SPECTRUM_MAX_K], "degree": [1, 6], "samples": [1, PINCH_MAX_SAMPLES],
    "grad_tol": [0], "tau": [0], "alpha": [1], "delta": [0, 1],
}
FLAGS = ("export_mesh", "semicontinuity_experiment")
OTHER_VALUES = {
    "alpha_schedule": [[1.2], [1.2, 1.1, 1.05], [], [1.0, True], [0.5], [math.inf], 1.2],
    "start": ["equator", "distorted_equator", "perturbed_constant", "constant", 1],
    "complex_path": ["complex.json", 1],
    **{flag: [True, False, 1, "yes"] for flag in FLAGS},
}
MISSING = object()


def moved_values(name):
    """A field's values at and one step past each bound, and the field left out."""
    if name in OTHER_VALUES:
        return OTHER_VALUES[name] + [MISSING]
    return [v for b in FIELD_BOUNDS[name] for v in (
        b - 1, b, b + 1, float(b), math.nextafter(b, -math.inf), math.nextafter(b, math.inf))
    ] + [math.nan, math.inf, True, MISSING]


def moved(cfg, name, value):
    cfg = dict(cfg)
    if value is MISSING:
        cfg.pop(name, None)
    else:
        cfg[name] = value
    return cfg


def fields(kind):
    return [name for name in CONFIG_FIELDS[kind] if name != "kind"]


# every base with one declared field moved, or with one undeclared key added
SINGLE_MOVES = [
    moved({"kind": kind, **base}, name, value)
    for kind, bases in BASES.items() for base in bases
    for name in fields(kind) + ["n", "grad_tolerance", "degree"]
    for value in (moved_values(name) if name in fields(kind) else [4])
]


@st.composite
def two_field_moves(draw):
    cfg = draw(st.sampled_from(SINGLE_MOVES))
    name = draw(st.sampled_from(fields(cfg["kind"])))
    return moved(cfg, name, draw(st.sampled_from(moved_values(name))))


def assert_contract(cfg):
    diags = validate_config(cfg)
    assert isinstance(diags, list) and all(isinstance(d, str) for d in diags)
    if diags:
        return
    kind = cfg["kind"]
    assert set(cfg) <= set(CONFIG_FIELDS[kind])
    assert all(not isinstance(v, bool) for k, v in cfg.items() if k not in FLAGS)
    assert cfg.get("seed", 0) >= 0  # np.random.default_rng refuses negative seeds
    assert all(math.isfinite(a) for a in [cfg.get("alpha", 1), *cfg.get("alpha_schedule", [])])
    if kind == "census":
        m, n_min, n_max = cfg["m"], cfg["N_min"], cfg["N_max"]
        assert 1 <= m < n_min <= n_max <= topology_mod.MAX_N
        assert sum(math.comb(N, m) for N in range(n_min, n_max + 1)) <= CENSUS_MAX_PARTITIONS
    elif kind == "spectrum":
        assert 0 <= cfg["level"] <= SPECTRUM_MAX_LEVEL and 3 <= cfg["n"] <= MORSE_MAX_N
        assert 1 <= cfg.get("k", 1) <= SPECTRUM_MAX_K
    elif kind in ("flow", "covers"):
        assert 0 <= cfg["level"] <= FACTORED_MAX_LEVEL
        assert {"flow": 2, "covers": 3}[kind] <= cfg["n"] <= MORSE_MAX_N
    elif kind == "pinch":
        assert 4 <= cfg["n"] <= PINCH_MAX_N and 1 <= cfg["samples"] <= PINCH_MAX_SAMPLES
    elif kind == "morse":
        assert "complex_path" in cfg or "n" in cfg
        assert "n" not in cfg or 4 <= cfg["n"] <= MORSE_MAX_N


def test_validate_config_contract_at_every_bound():
    for cfg in SINGLE_MOVES:
        assert_contract(cfg)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(json_docs | two_field_moves())
def test_validate_config_contract(cfg):
    assert_contract(cfg)
