"""Negative-binomial outcome computations.

Log-pmf, the mean/weight/score matrices used by Fisher scoring, and
numerically stable first and second derivatives of the log-likelihood with
respect to the inverse dispersion.  All functions are elementwise and pure.

The digamma and trigamma differences psi(y + r) - psi(r) and
psi'(y + r) - psi'(r) of `dispersion_derivatives` come from one plain-numpy
kernel (`_psi_differences`), with no branch on the size of r: y + r and r
below `TRIGAMMA_SHIFT` are gathered and moved up by that many recurrence
steps, then the asymptotic series of psi and psi' (Abramowitz & Stegun
6.3.18 and 6.4.12, Bernoulli numbers B_2 ... B_14) are differenced term by
term, so nothing cancels as r grows.  Against 60-digit mpmath values for
integer y in [0, 1e15] and r in [1e-12, 1e12] both are within 1e-14
relative.  Its lnGamma twin `log_gamma_ratio` gives
G = lnGamma(y + r) - lnGamma(r) (in nb_log_pmf, and log y! = G(y, 1)) by
the same shift and the difference of two Stirling series, within 1e-14 of
max(|G|, 1) against 60-digit mpmath for integer y in [0, 1e9] and r in
[1e-12, 1e12]; two scipy `gammaln` values lose up to 8e-5 there.  No scipy
function is used.

The fit and the inference preprocessing never hold the I x J derivatives
whole: `dispersion_sums` returns their row and column sums, computing them
one row chunk of at most `CHUNK_ELEMENTS` entries at a time (`row_chunks`),
so the temporaries of a chunk stay in cache.  Counts keep their dtype (int64
in a fit): ufuncs cast them in small buffers, with no chunk-sized copy to fault in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

# exponent clip keeping exp() inside double range
EXP_CLIP = 700.0

# entries of one row chunk of the I x J passes (row_chunks); 2**15 doubles
# (256 KiB per temporary) keeps a chunk's temporaries in cache
CHUNK_ELEMENTS = 1 << 15

# arguments below this take as many recurrence steps
#   psi(x) = psi(x + n) - sum_{k<n} 1/(x + k),
#   psi'(x) = psi'(x + n) + sum_{k<n} 1/(x + k)^2
# before the series; from z = 10 on, the first omitted series terms
# |B_16| / (16 z^16) and |B_16| / z^17 are below 1e-16 of psi and psi'
TRIGAMMA_SHIFT = 10
# Bernoulli numbers B_2 ... B_14 of the series
#   psi(z) ~ log z - 1/(2 z) - w P(w),  P(w) = sum_k B_2k w^(k-1) / 2k,
#   psi'(z) ~ 1/z + 1/(2 z^2) + w Q(w) / z,  Q(w) = sum_k B_2k w^(k-1),
#   lnGamma(z) ~ (z - 1/2) log z - z + log(2 pi)/2 + R(w) / z,
#   R(w) = sum_k B_2k w^(k-1) / (2k (2k - 1)),  with w = 1/z^2
BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
PSI_SERIES = tuple(b / (2 * k) for k, b in enumerate(BERNOULLI, 1))
LOG_GAMMA_SERIES = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(BERNOULLI, 1))


def _series(w, coefs, out):
    """coefs[0] + coefs[1] w + ... + coefs[-1] w^(n-1) by Horner, into out."""
    np.multiply(w, coefs[-1], out=out)
    for c in coefs[-2:0:-1]:
        out += c
        out *= w
    out += coefs[0]
    return out


def _shifted(a, r):
    """Move the entries of the flat float64 arrays a and r below
    TRIGAMMA_SHIFT up that many recurrence steps, in place, in one loop over
    both gathers.  Returns their indices in a and in r, and the sums
    sum_k 1/(z + k) and sum_k 1/(z + k)^2 over the steps, a's entries first."""
    low_a, low_r = np.flatnonzero(a < TRIGAMMA_SHIFT), np.flatnonzero(r < TRIGAMMA_SHIFT)
    shifted = np.concatenate([a[low_a], r[low_r]])
    psi_sum, tri_sum, inv = np.zeros_like(shifted), np.zeros_like(shifted), np.empty_like(shifted)
    for _ in range(TRIGAMMA_SHIFT):
        np.divide(1.0, shifted, out=inv)
        psi_sum += inv
        inv *= inv
        tri_sum += inv
        shifted += 1.0
    a[low_a], r[low_r] = shifted[:low_a.size], shifted[low_a.size:]
    return low_a, low_r, psi_sum, tri_sum


def log_gamma_ratio(y, r):
    """lnGamma(y + r) - lnGamma(r) for y >= 0, r > 0; y = 0 gives exactly 0.
    r < TRIGAMMA_SHIFT moves up that many steps, keeping prod_k (r + k) / prod_k (y + r + k),
    then the Stirling difference (a - 1/2) log1p(y/r) + y (log r - 1) + R(w_a)/a - R(w_r)/r
    at a = y + r."""
    y, r = np.broadcast_arrays(np.asarray(y), np.asarray(r, dtype=np.float64))
    shape, y, r = r.shape, y.ravel(), r.ravel()
    low = np.flatnonzero(r < TRIGAMMA_SHIFT)
    if low.size:
        x, xa = r[low], r[low] + y[low]
        num, den = x.copy(), xa.copy()
        for _ in range(1, TRIGAMMA_SHIFT):
            num *= np.add(x, 1.0, out=x)
            den *= np.add(xa, 1.0, out=xa)
        r = np.where(r < TRIGAMMA_SHIFT, r + TRIGAMMA_SHIFT, r)
    a = y + r
    out = np.log1p(np.divide(y, r))
    tmp = np.subtract(a, 0.5)
    out *= tmp
    np.subtract(np.log(r, out=tmp), 1.0, out=tmp)
    out += np.multiply(tmp, y, out=tmp)
    poly = np.empty_like(out)
    for z, sign in ((a, 1.0), (r, -1.0)):
        inv = np.divide(sign, z, out=a)
        _series(np.multiply(inv, inv, out=tmp), LOG_GAMMA_SERIES, poly)
        out += np.multiply(poly, inv, out=poly)
    if low.size:
        out[low] += np.log(num) - np.log(den)
    return _scalar_or_array(out.reshape(shape))


def _scalar_or_array(out):
    return out if out.ndim else float(out)


def _psi_differences(y, r):
    """psi(y + r) - psi(r) and psi'(y + r) - psi'(r), elementwise, for y >= 0.

    a = y + r and r each move up TRIGAMMA_SHIFT steps where below it
    (_shifted), to a' and r' with a' - r' = d = y + 10 [a < 10] - 10 [r < 10],
    exact for integer y.  The two series are then differenced term by term:
      psi(a') - psi(r') = log1p(d/r') + d/(2 a' r') - w_a P(w_a) + w_r P(w_r),
      psi'(a') - psi'(r') = -d/(a' r') (1 + (1/a' + 1/r')/2)
                            + w_a Q(w_a)/a' - w_r Q(w_r)/r',
    and a's shift sums are subtracted, r's added.  No term cancels as r
    grows; y = 0 gives exactly 0, and for y >= 1 the psi difference is >= 0
    and the psi' difference <= 0.
    """
    y, r = np.broadcast_arrays(np.asarray(y), np.asarray(r, dtype=np.float64))
    if np.any(r <= 0):
        raise DomainError("r must be positive")
    shape, a, r = r.shape, np.add(y, r, dtype=np.float64).ravel(), np.array(r, dtype=np.float64).ravel()
    low_a, low_r, psi_sum, tri_sum = _shifted(a, r)
    m = low_a.size
    d = np.array(y, dtype=np.float64).ravel()
    d[low_a] += TRIGAMMA_SHIFT
    d[low_r] -= TRIGAMMA_SHIFT
    dpsi = np.divide(d, r)
    inv_a, inv_r = np.divide(1.0, a, out=a), np.divide(1.0, r, out=r)
    # dtri = -d/(a' r') (1 + (1/a' + 1/r')/2), dpsi = log1p(d/r') + d/(2 a' r')
    d *= inv_a
    d *= inv_r
    dtri = np.add(inv_a, inv_r)
    dtri *= -0.5
    dtri -= 1.0
    dtri *= d
    d *= 0.5
    np.log1p(dpsi, out=dpsi)
    dpsi += d
    w, poly = d, np.empty_like(d)
    for inv, psi_op, tri_op in ((inv_a, np.subtract, np.add), (inv_r, np.add, np.subtract)):
        np.multiply(inv, inv, out=w)
        psi_op(dpsi, np.multiply(_series(w, PSI_SERIES, poly), w, out=poly), out=dpsi)
        _series(w, BERNOULLI, poly)
        poly *= w
        tri_op(dtri, np.multiply(poly, inv, out=poly), out=dtri)
    dpsi[low_a] -= psi_sum[:m]
    dtri[low_a] += tri_sum[:m]
    dpsi[low_r] += psi_sum[m:]
    dtri[low_r] -= tri_sum[m:]
    return dpsi.reshape(shape), dtri.reshape(shape)


def psi_delta(y, r):
    """digamma(y + r) - digamma(r) (see _psi_differences)."""
    return _scalar_or_array(_psi_differences(y, r)[0])


def psi_prime_delta(y, r):
    """trigamma(y + r) - trigamma(r) (see _psi_differences); y = 0 gives exactly 0."""
    return _scalar_or_array(_psi_differences(y, r)[1])


def nb_log_pmf(y, mu, r, log_y_factorial=None):
    """Log of the NegBin(mu, r) probability mass at y.

    Mean mu, variance mu + mu^2/r.  Evaluated through log_gamma_ratio and
    log1p, never through the gamma function itself.  `log_y_factorial` replaces
    the log y! term; a caller that sums over fixed counts passes 0.0 and
    subtracts the sum of log y! once.
    """
    y, mu, r = np.asarray(y), np.asarray(mu, dtype=np.float64), np.asarray(r, dtype=np.float64)
    if np.any(mu <= 0) or np.any(r <= 0):
        raise DomainError("mu and r must be positive")
    if log_y_factorial is None:
        log_y_factorial = log_gamma_ratio(y, 1.0)
    log_ratio = np.log1p(mu / r)  # log((mu + r)/r)
    return _scalar_or_array(log_gamma_ratio(y, r) - log_y_factorial
                            + y * (np.log(mu) - np.log(r) - log_ratio) - r * log_ratio)


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
