import numpy as np
import pytest

from spherelab import build_icosphere


@pytest.fixture(scope="session")
def mesh2():
    return build_icosphere(2)


@pytest.fixture(scope="session")
def mesh3():
    return build_icosphere(3)


@pytest.fixture(scope="session")
def mesh4():
    return build_icosphere(4)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def smooth_weight(mesh, seed=0, amplitude=0.6, offset=1.25):
    """Fixed smooth positive weight (a clamped-free linear harmonic)."""
    gen = np.random.default_rng(seed)
    coef = gen.standard_normal(3)
    coef *= amplitude / np.linalg.norm(coef)
    return offset + mesh.vertices @ coef


def count_eigsh(monkeypatch, module):
    """Record the k of every eigsh call made through ``module.eigsh``."""
    calls = []
    eigsh = module.eigsh
    monkeypatch.setattr(module, "eigsh",
                        lambda *a, **kw: calls.append(kw["k"]) or eigsh(*a, **kw))
    return calls
