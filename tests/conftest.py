import numpy as np
import pytest

from nbgbm import estimation
from nbgbm.model import CovariateSet, GbmParams, PriorConfig
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


def transposed_params(params):
    """The parameters of the problem for Y' (linear predictor
    Z B' + A X' + Z C' X' + V D U'), sharing the arrays."""
    return GbmParams(A=params.B, B=params.A, C=params.C.T, D=params.D,
                     U=params.V, V=params.U, S=params.T, T=params.S, omega=params.omega)


def transposed_cov(cov):
    """The covariates of the problem for Y': Z for the rows, X for the columns."""
    return CovariateSet(cov.Z, cov.X)


def swapped_prior(prior):
    """The prior of the problem for Y': row and column fields exchanged."""
    return PriorConfig(lambda_a=prior.lambda_b, lambda_b=prior.lambda_a,
                       lambda_c=prior.lambda_c, lambda_d=prior.lambda_d,
                       lambda_u=prior.lambda_v, lambda_v=prior.lambda_u,
                       lambda_s=prior.lambda_t, lambda_t=prior.lambda_s,
                       m_s=prior.m_t, m_t=prior.m_s)
