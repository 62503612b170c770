import numpy as np
import pytest

from nbgbm import estimation
from nbgbm.model import PriorConfig
from nbgbm.simulate import SimScheme, simulate_dataset

# distinct row and column priors: a row/column swap that the transposed
# problem misses changes the answer instead of hiding behind equal defaults
ASYMMETRIC_PRIOR = PriorConfig(lambda_a=2.0, lambda_b=0.5, lambda_u=3.0, lambda_v=0.7,
                               lambda_s=1.5, lambda_t=0.8, m_s=0.3, m_t=-0.2)


@pytest.fixture(scope="session")
def small_instance():
    """A seeded 30 x 12 dataset with its exactly-constrained truth."""
    scheme = SimScheme(dims=(30, 12, 2, 2, 1), seed=101)
    Y, truth = simulate_dataset(scheme)
    return Y, truth


@pytest.fixture(scope="session")
def small_fit(small_instance):
    Y, truth = small_instance
    result = estimation.fit(Y, truth.cov, 1)
    return Y, truth, result


@pytest.fixture(scope="session")
def tiny_fit():
    """A 10 x 6 fitted instance, small enough for dense finite differences."""
    scheme = SimScheme(dims=(10, 6, 2, 2, 1), seed=11)
    Y, truth = simulate_dataset(scheme)
    result = estimation.fit(Y, truth.cov, 1)
    return Y, truth, result


def random_constrained_params(cov, M, seed):
    """Constrained parameter draw used as a generic random model state."""
    from nbgbm.rngstreams import stream_rng
    from nbgbm.simulate import generate_parameters

    return generate_parameters(cov, M, "Normal", stream_rng(seed, "parameters"))
