import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import greybox as gb

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ex1_data():
    """Seed-0 benchmark split (zd, zt, zs, zv) for the bilinear system."""
    return gb.make_datasets("example1", 0)


@pytest.fixture(scope="session")
def ex2_data():
    """Seed-0 benchmark split for the saturating difference equation."""
    return gb.make_datasets("example2", 0)


@pytest.fixture()
def ex1_structure():
    return gb.example_structure("example1")


@pytest.fixture()
def ex2_structure():
    return gb.example_structure("example2")


@pytest.fixture(scope="session")
def ex1_true_model():
    from greybox.models import EXAMPLE1_TRUE_THETA

    structure = gb.example_structure("example1")
    return gb.PolynomialModel(structure.spec, structure.terms, EXAMPLE1_TRUE_THETA)


def small_dyn(seed=0, n=30, n_inputs=1):
    rng = np.random.default_rng(seed)
    inputs = tuple(rng.standard_normal(n) for _ in range(n_inputs))
    output = rng.standard_normal(n)
    return gb.DynDataset(inputs=inputs, output=output)
