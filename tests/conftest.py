import numpy as np
import pytest

from spod.generators import burgers_analytic, fhn_simulate


@pytest.fixture(scope="session")
def burgers_data():
    return burgers_analytic()


@pytest.fixture(scope="session")
def fhn_data():
    # ~9 s once per session; shared by the generator checks and acceptance
    return fhn_simulate()


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd`` during the test."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes
