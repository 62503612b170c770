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

The fit and the inference preprocessing never hold the I x J derivatives
whole: `dispersion_sums` returns their row and column sums, computing them
one row chunk of at most `CHUNK_ELEMENTS` entries at a time (`row_chunks`),
so the temporaries of a chunk stay in cache.  Counts keep their dtype (int64
in a fit): ufuncs cast them in small buffers, with no chunk-sized copy to fault in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .exceptions import DomainError

# exponent clip keeping exp() inside double range
EXP_CLIP = 700.0

# entries of one row chunk of the I x J passes (row_chunks); 2**15 doubles
# (256 KiB per temporary) keeps a chunk's temporaries in cache
CHUNK_ELEMENTS = 1 << 15

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
    x = x.ravel()
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
    return psi.reshape(shape), tri_poly.reshape(shape)


def _scalar_or_array(out):
    return out if out.ndim else float(out)


def _psi_differences(y, r):
    """psi(y + r) - psi(r) and psi'(y + r) - psi'(r), elementwise.

    For r >= LARGE_R, where both differences cancel catastrophically, their
    Poisson-limit forms log1p(y/r) and -(y/r)/(y + r) are used instead.
    """
    y, r = np.broadcast_arrays(np.asarray(y), np.asarray(r, dtype=np.float64))
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
    y = np.asarray(y)
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
    """

    mu: np.ndarray
    r: np.ndarray
    W: np.ndarray
    E: np.ndarray


def _clipped_exp(expo, out=None, low=None, high=None):
    """exp of the exponents clipped to +-700, and the number clipped.
    `low` and `high` are expo.min() and expo.max() when the caller has them."""
    if low is None:
        low, high = expo.min(), expo.max()
    if -EXP_CLIP <= low and high <= EXP_CLIP:
        return np.exp(expo, out=out), 0
    clamped = int(np.count_nonzero(np.abs(expo) > EXP_CLIP))
    return np.exp(np.clip(expo, -EXP_CLIP, EXP_CLIP), out=out), clamped


def means(linpred, out=None):
    """mu_ij = exp(linpred_ij); exponents clipped to +-700.  Written into
    `out` when given, as by the other workspace functions.

    One min/max pair both checks and clips: NaN and +-inf propagate to
    the minimum or the maximum, so a finite pair means finite entries."""
    low, high = linpred.min(), linpred.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise DomainError("linear predictor contains non-finite entries")
    return _clipped_exp(linpred, out, low, high)


def inverse_dispersions(S, T, omega, out=None):
    """r_ij = exp(-(s_i + t_j + omega)); exponents clipped to +-700."""
    expo = np.add.outer(S, T)
    expo += omega
    return _clipped_exp(np.negative(expo, out=expo), expo if out is None else out)


def weights_and_scores(y, mu, r, out=(None, None)):
    """The Fisher weights W = r mu / (r + mu) and scores E = (y - mu) r / (r + mu)."""
    total = r + mu
    W = np.multiply(r, mu, out=out[0])
    W /= total
    E = np.subtract(y, mu, out=out[1])
    E *= np.divide(r, total, out=total)
    return W, E


def nb_workspace(Y, linpred, S, T, omega) -> NbWorkspace:
    """Compute mu, r, W, E from counts and the current parameters."""
    values = Y.values if hasattr(Y, "values") else np.asarray(Y)
    mu = means(linpred)[0]
    r = inverse_dispersions(S, T, omega)[0]
    return NbWorkspace(mu, r, *weights_and_scores(values, mu, r))


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
    y, mu, r = np.broadcast_arrays(
        np.asarray(Y.values if hasattr(Y, "values") else Y),
        np.asarray(mu, dtype=np.float64), np.asarray(r, dtype=np.float64))
    dpsi, dtri = _psi_differences(y, r)
    total = r + mu
    with np.errstate(over="ignore"):
        log_ratio = mu / r
    big = ~np.isfinite(log_ratio)
    if big.any():
        log_ratio[big] = 0.0
        np.log1p(log_ratio, out=log_ratio)
        log_ratio[big] = np.log(mu[big]) - np.log(r[big])
    else:
        np.log1p(log_ratio, out=log_ratio)
    # delta = -r (dpsi - log_ratio - (y - mu)/(r + mu)), in dpsi's buffer
    delta = dpsi
    delta -= log_ratio
    tmp = np.subtract(y, mu, out=log_ratio)
    tmp /= total
    delta -= tmp
    delta *= r
    np.negative(delta, out=delta)
    # rewrite (y + mu^2/r)/(1 + mu/r)^2 = y*rp^2 + r*mp^2 with rp = r/(r+mu)
    # in (0, 1] and mp = mu/(r+mu) in [0, 1) to avoid overflow
    delta_prime = np.multiply(r, r)
    delta_prime *= dtri
    delta_prime -= delta
    part = np.divide(r, total, out=dtri)
    np.multiply(y, part, out=tmp)
    tmp *= part
    delta_prime += tmp
    np.divide(mu, total, out=part)
    np.multiply(r, part, out=tmp)
    tmp *= part
    delta_prime += tmp
    return DispersionDerivs(delta=delta, delta_prime=delta_prime)


def row_chunks(n_rows, n_cols):
    """Row slices of an n_rows x n_cols array, each of at most CHUNK_ELEMENTS
    entries (and at least one row), covering it in order."""
    step = max(1, CHUNK_ELEMENTS // max(n_cols, 1))
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def dispersion_sums(y, mu, r):
    """Column and row sums of delta and delta_prime (see dispersion_derivatives).

    Element `axis` of the returned pair is a DispersionDerivs holding
    delta.sum(axis) and delta_prime.sum(axis): index 1 gives the length-I
    row sums of the S step, index 0 the length-J column sums of the T step.
    The derivatives are computed one row chunk at a time (row_chunks), with
    the counts converted to float per chunk, so no I x J delta is formed.
    """
    sums = empty_dispersion_sums(*np.shape(mu))
    for chunk in row_chunks(*np.shape(mu)):
        add_dispersion_sums(sums, chunk, y[chunk], mu[chunk], r[chunk])
    return sums


def empty_dispersion_sums(n_rows, n_cols):
    """The (column sums, row sums) pair of dispersion_sums before any chunk."""
    return (DispersionDerivs(np.zeros(n_cols), np.zeros(n_cols)),
            DispersionDerivs(np.empty(n_rows), np.empty(n_rows)))


def add_dispersion_sums(sums, chunk, y, mu, r):
    """Add the derivatives of the rows `chunk`, given their y, mu and r, to
    the column sums sums[0] and write their row sums into sums[1]."""
    cols, rows = sums
    part = dispersion_derivatives(y, mu, r)
    cols.delta += part.delta.sum(axis=0)
    cols.delta_prime += part.delta_prime.sum(axis=0)
    rows.delta[chunk] = part.delta.sum(axis=1)
    rows.delta_prime[chunk] = part.delta_prime.sum(axis=1)


def nb_sample(mu, r, rng):
    """Draw NegBin(mu, r) via the Gamma-Poisson mixture."""
    lam = rng.gamma(shape=r, scale=mu / r)
    return rng.poisson(lam)
