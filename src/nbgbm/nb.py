"""Negative-binomial outcome computations.

Log-pmf, the mean/weight/score matrices used by Fisher scoring, and
numerically stable first and second derivatives of the log-likelihood with
respect to the inverse dispersion.  All functions are elementwise and pure.

Digamma and trigamma come from one plain-numpy kernel that evaluates both
at once (`_psi_trigamma`): arguments below `TRIGAMMA_SHIFT` are gathered
and moved up by that many recurrence steps, then the asymptotic series of
psi and psi' (Abramowitz & Stegun 6.3.18 and 6.4.12, Bernoulli numbers
B_2 ... B_14) are evaluated at every argument with 1/z and 1/z^2 shared.
Against 40-digit mpmath values for x in [1e-12, 1e12] psi is within
1e-15 of max(|psi(x)|, 1) and psi' within 1e-15 relative.  scipy's
`digamma` and `polygamma` are not used.  `dispersion_derivatives` calls
the kernel once at y + r and once at r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .exceptions import DomainError

# exponent clip keeping exp() inside double range
EXP_CLIP = 700.0

# above this inverse dispersion, digamma/trigamma differences switch to
# their asymptotic forms to avoid catastrophic cancellation
LARGE_R = 1e8

# arguments below this take as many recurrence steps
#   psi(x) = psi(x + n) - sum_{k<n} 1/(x + k),
#   psi'(x) = psi'(x + n) + sum_{k<n} 1/(x + k)^2
# before the series; from z = 10 on, the first omitted series terms
# |B_16| / (16 z^16) and |B_16| / z^17 are below 1e-16 of psi and psi'
TRIGAMMA_SHIFT = 10
# Bernoulli numbers B_2 ... B_14 of the series
#   psi(z) ~ log z - 1/(2 z) - sum_k B_2k / (2k z^(2k))
#   psi'(z) ~ 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k+1)
BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _psi_trigamma(x):
    """psi(x) and psi'(x) for a float64 array x > 0, evaluated together."""
    shape = x.shape
    order = "F" if x.flags.f_contiguous and not x.flags.c_contiguous else "C"
    x = x.ravel(order)
    low = np.flatnonzero(x < TRIGAMMA_SHIFT)
    z = x
    if low.size:
        xs = x[low]
        psi_sum = np.zeros_like(xs)
        tri_sum = np.zeros_like(xs)
        inv = np.empty_like(xs)
        for _ in range(TRIGAMMA_SHIFT):
            np.divide(1.0, xs, out=inv)
            psi_sum += inv
            inv *= inv
            tri_sum += inv
            xs += 1.0
        z = x.copy()
        z[low] = xs
    inv = np.divide(1.0, z)
    w = inv * inv
    # polynomials in w: sum_k B_2k w^(k-1) / 2k for psi, sum_k B_2k w^(k-1) for psi'
    n = len(BERNOULLI)
    psi_poly = w * (BERNOULLI[-1] / (2 * n))
    tri_poly = w * BERNOULLI[-1]
    for k in range(n - 1, 1, -1):
        psi_poly += BERNOULLI[k - 1] / (2 * k)
        psi_poly *= w
        tri_poly += BERNOULLI[k - 1]
        tri_poly *= w
    psi_poly += BERNOULLI[0] / 2
    tri_poly += BERNOULLI[0]
    # psi = log z - (inv/2 + w psi_poly)
    psi_poly *= w
    psi_poly += 0.5 * inv
    psi = np.log(z)
    psi -= psi_poly
    # psi' = inv + w (1/2 + inv tri_poly)
    tri_poly *= inv
    tri_poly += 0.5
    tri_poly *= w
    tri_poly += inv
    if low.size:
        psi[low] -= psi_sum
        tri_poly[low] += tri_sum
    return psi.reshape(shape, order=order), tri_poly.reshape(shape, order=order)


def _scalar_or_array(out):
    return out if out.ndim else float(out)


def trigamma(x):
    """Trigamma function psi'(x) for x > 0, elementwise (see `_psi_trigamma`)."""
    return _scalar_or_array(_psi_trigamma(np.asarray(x, dtype=np.float64))[1])


def _psi_differences(y, r):
    """psi(y + r) - psi(r) and psi'(y + r) - psi'(r), elementwise.

    For r >= LARGE_R, where both differences cancel catastrophically, their
    Poisson-limit forms log1p(y/r) and -(y/r)/(y + r) are used instead.
    """
    y, r = np.broadcast_arrays(np.asarray(y, dtype=np.float64), np.asarray(r, dtype=np.float64))
    if np.any(r <= 0):
        raise DomainError("r must be positive")
    small = r < LARGE_R
    if not small.all():
        dpsi, dtri = np.empty(r.shape), np.empty(r.shape)
        dpsi[small], dtri[small] = _psi_differences(y[small], r[small])
        yb, rb = y[~small], r[~small]
        dpsi[~small] = np.log1p(yb / rb)
        dtri[~small] = -(yb / rb) / (yb + rb)
        return dpsi, dtri
    psi_y, tri_y = _psi_trigamma(y + r)
    psi_r, tri_r = _psi_trigamma(r)
    psi_y -= psi_r
    tri_y -= tri_r
    return psi_y, tri_y


def psi_delta(y, r):
    """digamma(y + r) - digamma(r), using log1p(y/r) for r >= 1e8."""
    return _scalar_or_array(_psi_differences(y, r)[0])


def psi_prime_delta(y, r):
    """trigamma(y + r) - trigamma(r), using -(y/r)/(y+r) for r >= 1e8.

    For integer y <= 50 and r in [1e-12, 1e7] the difference matches the
    exact sum -sum_{k<y} 1/(r+k)^2 to about 2e-9 relative (the cancellation
    limit, eps * r / y); y = 0 gives exactly 0.
    """
    return _scalar_or_array(_psi_differences(y, r)[1])


def nb_log_pmf(y, mu, r, log_y_factorial=None):
    """Log of the NegBin(mu, r) probability mass at y.

    Mean mu, variance mu + mu^2/r.  Evaluated through log-gamma and log1p,
    never through the gamma function itself.  `log_y_factorial` replaces
    the log y! term; a caller that sums over fixed counts passes 0.0 and
    subtracts the sum of log y! once.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if np.any(mu <= 0) or np.any(r <= 0):
        raise DomainError("mu and r must be positive")
    if log_y_factorial is None:
        log_y_factorial = gammaln(y + 1.0)
    log_ratio = np.log1p(mu / r)  # log((mu + r)/r)
    out = (
        gammaln(y + r) - log_y_factorial - gammaln(r)
        + y * (np.log(mu) - np.log(r) - log_ratio)
        - r * log_ratio
    )
    return out if out.ndim else float(out)


@dataclass
class NbWorkspace:
    """Per-entry quantities of one parameter state.

    mu = exp(linpred), r = exp(-s - t - omega), W = r mu / (r + mu) is the
    Fisher weight (the precision of the log-scale residual), and
    E = (Y - mu) W / mu is the score with respect to the linear predictor.
    clamped counts entries whose exponent hit the +-700 clip when mu or r
    was computed.
    """

    mu: np.ndarray
    r: np.ndarray
    W: np.ndarray
    E: np.ndarray
    clamped: int = 0

    def transposed(self) -> "NbWorkspace":
        """The workspace of Y', as views of the same arrays."""
        return NbWorkspace(mu=self.mu.T, r=self.r.T, W=self.W.T, E=self.E.T,
                           clamped=self.clamped)


def _clipped_exp(expo):
    """exp of the exponents clipped to +-700, and the number clipped."""
    if -EXP_CLIP <= expo.min() and expo.max() <= EXP_CLIP:
        return np.exp(expo), 0
    clamped = int(np.count_nonzero(np.abs(expo) > EXP_CLIP))
    return np.exp(np.clip(expo, -EXP_CLIP, EXP_CLIP)), clamped


def means(linpred):
    """mu_ij = exp(linpred_ij); exponents clipped to +-700."""
    if not np.all(np.isfinite(linpred)):
        raise DomainError("linear predictor contains non-finite entries")
    return _clipped_exp(linpred)


def inverse_dispersions(S, T, omega):
    """r_ij = exp(-(s_i + t_j + omega)); exponents clipped to +-700."""
    return _clipped_exp(-(np.add.outer(S, T) + omega))


def weights_and_scores(y, mu, r):
    """The Fisher weights W = r mu / (r + mu) and scores E = (y - mu) r / (r + mu)."""
    total = r + mu
    return r * mu / total, (y - mu) * (r / total)


def nb_workspace(Y, linpred, S, T, omega) -> NbWorkspace:
    """Compute mu, r, W, E from counts and the current parameters."""
    values = Y.values if hasattr(Y, "values") else np.asarray(Y)
    mu, mc = means(linpred)
    r, rc = inverse_dispersions(S, T, omega)
    return NbWorkspace(mu, r, *weights_and_scores(values, mu, r), clamped=mc + rc)


@dataclass
class DispersionDerivs:
    """Elementwise pieces of the S/T Newton steps.

    delta_ij is the derivative of the per-entry log-likelihood with respect
    to s_i (equivalently t_j); delta_prime_ij is the second derivative.
    """

    delta: np.ndarray
    delta_prime: np.ndarray


def dispersion_derivatives(Y, mu, r) -> DispersionDerivs:
    """First/second log-likelihood derivatives in the log-dispersion offsets.

    Stable for r in [1e-12, 1e12] and counts up to 1e15: ratios that can
    overflow are rewritten through r/(r+mu) and mu/(r+mu).
    """
    y = np.asarray(Y.values if hasattr(Y, "values") else Y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    dpsi, dtri = _psi_differences(y, r)
    with np.errstate(over="ignore"):
        ratio = mu / r
    big = ~np.isfinite(ratio)
    log_ratio = np.log1p(np.where(big, 0.0, ratio))
    if big.any():
        log_ratio = np.where(big, np.log(mu) - np.log(r), log_ratio)
    rp = r / (r + mu)     # in (0, 1]
    mp = mu / (r + mu)    # in [0, 1)
    delta = -r * (dpsi - log_ratio - (y - mu) / (r + mu))
    # rewrite (y + mu^2/r)/(1 + mu/r)^2 = y*rp^2 + r*mp^2 to avoid overflow
    delta_prime = -delta + r * r * dtri + y * rp * rp + r * mp * mp
    return DispersionDerivs(delta=delta, delta_prime=delta_prime)


def nb_sample(mu, r, rng):
    """Draw NegBin(mu, r) via the Gamma-Poisson mixture."""
    lam = rng.gamma(shape=r, scale=mu / r)
    return rng.poisson(lam)
