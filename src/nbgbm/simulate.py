"""Synthetic data generation and evaluation metrics for calibration studies.

Covariates come from a Gaussian copula with a random correlation structure
and Normal, Gamma, or Binary marginals; true parameters from Normal or
Gamma draws projected onto the constrained parameter set; outcomes from
NB, log-normal Poisson, Poisson, or Geometric families, all parametrized
so the conditional mean matches the model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import nb
from .exceptions import DomainError, InputError, ShapeError
from .model import (CovariateSet, DataMatrix, GbmParams, first_nonzero_signs,
                    linear_predictor, nullspace_frame, standardize_covariates)
from .rngstreams import stream_rng

COVARIATE_SCHEMES = ("Normal", "Gamma", "Binary")
PARAMETER_SCHEMES = ("Normal", "Gamma")
OUTCOME_SCHEMES = ("NB", "LNP", "Poisson", "Geometric")

H_CLAMP = 100.0
DEFAULT_OMEGA = -2.3


@dataclass(frozen=True)
class SimScheme:
    """One cell of the simulation design."""

    outcome: str = "NB"
    covariate_scheme: str = "Normal"
    parameter_scheme: str = "Normal"
    dims: tuple = (100, 50, 2, 2, 1)   # (I, J, K, L, M)
    seed: int = 0

    def __post_init__(self):
        if self.outcome not in OUTCOME_SCHEMES:
            raise InputError(f"unknown outcome scheme {self.outcome!r}; valid: {OUTCOME_SCHEMES}")
        if self.covariate_scheme not in COVARIATE_SCHEMES:
            raise InputError(
                f"unknown covariate scheme {self.covariate_scheme!r}; valid: {COVARIATE_SCHEMES}")
        if self.parameter_scheme not in PARAMETER_SCHEMES:
            raise InputError(
                f"unknown parameter scheme {self.parameter_scheme!r}; valid: {PARAMETER_SCHEMES}")
        I, J, K, L, M = self.dims
        if min(I, J, K, L) < 1 or M < 0:
            raise DomainError("dims must be positive (M may be zero)")
        if M >= min(I, J):
            raise DomainError(f"M = {M} must be smaller than min(I, J)")

    @staticmethod
    def parse(text: str, dims, seed=0) -> "SimScheme":
        """Parse an 'outcome/covariates/parameters' triplet string."""
        tokens = text.split("/")
        if len(tokens) != 3:
            raise InputError(
                f"scheme {text!r} must look like NB/Normal/Normal "
                f"(outcome/covariates/parameters)")
        return SimScheme(outcome=tokens[0], covariate_scheme=tokens[1],
                         parameter_scheme=tokens[2], dims=tuple(dims), seed=seed)


@dataclass
class SimTruth:
    """Covariates, true parameters, and the covariate clamp-event count."""

    cov: CovariateSet
    params0: GbmParams
    clamp_events: int = 0


def _marginal_icdf(u, scheme):
    from scipy.special import gammaincinv, ndtri
    if scheme == "Normal":
        return ndtri(u)
    if scheme == "Gamma":
        # shape 2, rate sqrt(2): unit variance; gammaincinv(2, u) is the
        # unit-rate quantile, scaled as scipy.stats.gamma.ppf scales it
        return gammaincinv(2.0, u) * (1.0 / np.sqrt(2.0))
    if scheme == "Binary":
        return (u > 0.5).astype(np.float64)
    raise InputError(f"unknown covariate scheme {scheme!r}")


def generate_covariates(n: int, p: int, scheme: str, rng) -> np.ndarray:
    """Copula-correlated covariates, standardized with an intercept column.

    A random correlation matrix (normalized Q'Q with Gaussian Q) drives
    joint normal draws that are pushed through the scheme's inverse CDF and
    clamped at +-100; column one is then set to the intercept and the rest
    centered and scaled to unit mean square by standardize_covariates.
    """
    mat, _ = generate_covariates_counted(n, p, scheme, rng)
    return mat


def generate_covariates_counted(n, p, scheme, rng):
    """Same as generate_covariates, also returning the clamp-event count."""
    from scipy.special import ndtr
    if p < 1:
        raise DomainError("p must be at least 1")
    if p == 1:
        return np.ones((n, 1)), 0
    Q = rng.standard_normal((p, p))
    Sigma = Q.T @ Q
    scale = np.sqrt(np.diag(Sigma))
    corr = Sigma / np.outer(scale, scale)
    draws = rng.multivariate_normal(np.zeros(p), corr, size=n, method="cholesky")
    raw = _marginal_icdf(ndtr(draws), scheme)
    clamps = int(np.count_nonzero(np.abs(raw) > H_CLAMP))
    vals = np.sign(raw) * np.minimum(H_CLAMP, np.abs(raw))
    vals[:, 0] = 1.0
    return standardize_covariates(vals), clamps


def _coef_draw(shape, scheme, var, rng):
    if scheme == "Normal":
        return rng.normal(scale=np.sqrt(var), size=shape)
    # Gamma with shape 2 and rate 2*sqrt(...) has variance `var`
    rate = np.sqrt(2.0 / var)
    return rng.gamma(shape=2.0, scale=1.0 / rate, size=shape)


def generate_parameters(cov: CovariateSet, M: int, scheme: str, rng) -> GbmParams:
    """True parameters satisfying every identifiability constraint.

    Coefficient blocks are drawn with variances 1/(4K), 1/(4L), 1/(KL)
    (+3 on the overall intercept) and projected onto the covariate
    nullspaces; latent factors are uniform orthonormal frames inside the
    covariate nullspaces with singular values evenly spaced on
    [sqrt(I)+sqrt(J), 2(sqrt(I)+sqrt(J))]; log-dispersion offsets are
    standard normal recentered to mean-exp one.
    """
    I, J, K, L = cov.I, cov.J, cov.K, cov.L
    A = _coef_draw((J, K), scheme, 1.0 / (4 * K), rng)
    B = _coef_draw((I, L), scheme, 1.0 / (4 * L), rng)
    C = _coef_draw((K, L), scheme, 1.0 / (K * L), rng)
    C[0, 0] += 3.0
    A -= cov.Z @ (cov.Zplus @ A)
    B -= cov.X @ (cov.Xplus @ B)
    U = nullspace_frame(cov.X, M, rng)
    V = nullspace_frame(cov.Z, M, rng)
    flip = np.where(first_nonzero_signs(U) < 0, -1.0, 1.0)
    U *= flip
    V *= flip
    base = np.sqrt(I) + np.sqrt(J)
    D = np.sort(np.linspace(base, 2 * base, M))[::-1].copy()
    s = rng.standard_normal(I)
    t = rng.standard_normal(J)
    S = s - np.log(np.mean(np.exp(s)))
    T = t - np.log(np.mean(np.exp(t)))
    return GbmParams(A=A, B=B, C=C, D=D, U=U, V=V, S=S, T=T, omega=DEFAULT_OMEGA)


def generate_outcomes(mu0, r0, outcome: str, rng) -> DataMatrix:
    """Counts with mean mu0 under the requested outcome family."""
    mu0 = np.asarray(mu0, dtype=np.float64)
    r0 = np.asarray(r0, dtype=np.float64)
    if np.any(mu0 <= 0) or np.any(r0 <= 0):
        raise DomainError("mu0 and r0 must be positive")
    if outcome == "NB":
        Y = nb.nb_sample(mu0, r0, rng)
    elif outcome == "LNP":
        sigma2 = np.log(1.0 / r0 + 1.0)
        lam = np.exp(rng.normal(np.log(mu0) - sigma2 / 2.0, np.sqrt(sigma2)))
        Y = rng.poisson(lam)
    elif outcome == "Poisson":
        Y = rng.poisson(mu0)
    elif outcome == "Geometric":
        Y = rng.geometric(1.0 / (mu0 + 1.0)) - 1
    else:
        raise InputError(f"unknown outcome scheme {outcome!r}")
    return DataMatrix(Y)


def simulate_dataset(scheme: SimScheme, replicate: int = 0):
    """Full draw of one replicate: (DataMatrix, SimTruth).

    Covariates, parameters, and outcomes use independent named streams of
    (scheme.seed, replicate), so each sub-draw is reproducible on its own.
    """
    I, J, K, L, M = scheme.dims
    X, cx = generate_covariates_counted(I, K, scheme.covariate_scheme,
                                        stream_rng(scheme.seed, "covariates-x", replicate))
    Z, cz = generate_covariates_counted(J, L, scheme.covariate_scheme,
                                        stream_rng(scheme.seed, "covariates-z", replicate))
    cov = CovariateSet(X, Z)
    params0 = generate_parameters(cov, M, scheme.parameter_scheme,
                                  stream_rng(scheme.seed, "parameters", replicate))
    mu0 = np.exp(linear_predictor(params0, cov))
    r0, _ = nb.inverse_dispersions(params0.S, params0.T, params0.omega)
    Y = generate_outcomes(mu0, r0, scheme.outcome,
                          stream_rng(scheme.seed, "outcomes", replicate))
    return Y, SimTruth(cov=cov, params0=params0, clamp_events=cx + cz)


# ---------------------------------------------------------------------------
# evaluation metrics
# ---------------------------------------------------------------------------

def relative_mse(est, truth) -> float:
    """Sum of squared errors over the squared norm of the truth."""
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if est.shape != truth.shape:
        raise ShapeError(f"estimate {est.shape} and truth {truth.shape} differ")
    denom = float(np.sum(truth ** 2))
    if denom == 0.0:
        raise DomainError("truth has zero norm; relative MSE undefined")
    return float(np.sum((est - truth) ** 2)) / denom


def align_latent_factors(est: GbmParams, truth: GbmParams) -> GbmParams:
    """Permute and sign-flip estimated factors to best match the truth.

    Maximizes the summed absolute column correlations of the left factors,
    exhaustively for M <= 5 and greedily above; the same permutation and
    signs are applied to U, V, and D.  The returned state is for evaluation
    and need not satisfy the singular-value ordering.
    """
    if est.M != truth.M:
        raise ShapeError(f"latent dimensions differ: {est.M} vs {truth.M}")
    M = est.M
    out = est.copy()
    if M == 0:
        return out

    def col_corr(a, b):
        a = a - a.mean()
        b = b - b.mean()
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        return 0.0 if denom == 0 else float(a @ b) / denom

    corr = np.array([[col_corr(est.U[:, m], truth.U[:, m0]) for m in range(M)]
                     for m0 in range(M)])
    if M <= 5:
        best, best_score = None, -np.inf
        for perm in itertools.permutations(range(M)):
            score = sum(abs(corr[m0, perm[m0]]) for m0 in range(M))
            if score > best_score:
                best, best_score = perm, score
        perm = np.array(best)
    else:
        perm = np.full(M, -1)
        taken = np.zeros(M, dtype=bool)
        for m0 in np.argsort(-np.abs(corr).max(axis=1)):
            choice = np.argmax(np.where(taken, -np.inf, np.abs(corr[m0])))
            perm[m0] = choice
            taken[choice] = True
    signs = np.sign(corr[np.arange(M), perm])
    signs[signs == 0] = 1.0
    out.U = est.U[:, perm] * signs
    out.V = est.V[:, perm] * signs
    out.D = est.D[perm]
    return out


def coverage_curve(estimates, ses, truths, n_grid: int = 101):
    """Actual versus target coverage pooled over replicates and entries.

    The actual coverage of a two-sided Wald interval at target 1 - alpha is
    the CDF, at 1 - alpha, of 1 - 2(1 - Phi(|est - truth| / se)); the curve
    is that empirical CDF on an even grid of targets.
    """
    from scipy.special import ndtr
    estimates = np.asarray(estimates, dtype=np.float64).ravel()
    ses = np.asarray(ses, dtype=np.float64).ravel()
    truths = np.asarray(truths, dtype=np.float64).ravel()
    if not np.all(np.isfinite(ses) & (ses > 0)):
        raise DomainError("standard errors must be finite and positive")
    stat = 1.0 - 2.0 * ndtr(-np.abs(estimates - truths) / ses)
    stat.sort()
    targets = np.linspace(0.0, 1.0, n_grid)
    actual = np.searchsorted(stat, targets, side="left") / stat.size
    return targets, actual


def empirical_coverage(estimates, ses, truths, level: float = 0.95) -> float:
    """Fraction of Wald intervals at the given level containing the truth."""
    from scipy.special import ndtri
    estimates = np.asarray(estimates, dtype=np.float64).ravel()
    ses = np.asarray(ses, dtype=np.float64).ravel()
    truths = np.asarray(truths, dtype=np.float64).ravel()
    z = ndtri(0.5 + level / 2.0)
    return float(np.mean(np.abs(estimates - truths) <= z * ses))
