import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import digamma, polygamma

from nbgbm import nb
from nbgbm.exceptions import DomainError

import oracles


class TestNbLogPmf:
    def test_zero_count_closed_form(self):
        for mu, r in [(1.0, 1.0), (5.0, 2.0), (0.3, 11.0)]:
            np.testing.assert_allclose(nb.nb_log_pmf(0, mu, r), r * np.log(r / (mu + r)))

    def test_hand_value(self):
        # y=1, mu=1, r=1: Gamma(2)/Gamma(2)/Gamma(1) * (1/2)^1 * (1/2)^1
        np.testing.assert_allclose(nb.nb_log_pmf(1, 1.0, 1.0), np.log(0.25))

    def test_truncated_normalization(self):
        y = np.arange(10_000 + 1)
        total = np.exp(nb.nb_log_pmf(y, 5.0, 2.0)).sum()
        assert total >= 1.0 - 1e-10
        assert total <= 1.0 + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nb.nb_log_pmf(1, 0.0, 1.0)
        with pytest.raises(DomainError):
            nb.nb_log_pmf(1, 1.0, -1.0)

    def test_extreme_r_finite(self):
        assert np.isfinite(nb.nb_log_pmf(3, 2.0, 1e12))
        assert np.isfinite(nb.nb_log_pmf(3, 2.0, 1e-12))

    @pytest.mark.parametrize("y, mu, r", [(3, 2.0, 1e12), (1000, 900.0, 1e10),
                                          (3, 2.0, 1e8), (1000, 900.0, 1e8)])
    def test_poisson_limit_matches_mpmath(self, y, mu, r):
        # lnGamma(y + r) - lnGamma(r) cancels toward the Poisson limit when
        # taken as two lnGamma values (2.6e-4 off at r = 1e12)
        with mpmath.workdps(60):
            y_, mu_, r_ = mpmath.mpf(y), mpmath.mpf(mu), mpmath.mpf(r)
            exact = (mpmath.loggamma(y_ + r_) - mpmath.loggamma(y_ + 1) - mpmath.loggamma(r_)
                     + y_ * mpmath.log(mu_ / (mu_ + r_)) + r_ * mpmath.log(r_ / (mu_ + r_)))
        assert abs(nb.nb_log_pmf(y, mu, r) - float(exact)) <= 1e-11


class TestLogGammaRatio:
    def test_matches_mpmath(self):
        rng = np.random.default_rng(5)
        y = np.concatenate([np.arange(12), np.floor(10.0 ** rng.uniform(0, 9, 300)), [1e9]])
        r = 10.0 ** rng.uniform(-12, 12, y.size)
        r[:4] = [nb.TRIGAMMA_SHIFT * (1 - 1e-16), nb.TRIGAMMA_SHIFT, 1e-12, 1e12]
        with mpmath.workdps(60):
            exact = np.array([float(mpmath.loggamma(mpmath.mpf(int(a)) + mpmath.mpf(b))
                                    - mpmath.loggamma(mpmath.mpf(b))) for a, b in zip(y, r)])
        got = nb.log_gamma_ratio(y.astype(np.int64), r)
        assert np.all(np.abs(got - exact) <= 1e-13 * np.maximum(np.abs(exact), 1.0))

    def test_zero_count_exact(self):
        r = np.array([1e-12, 0.5, 9.999, 10.0, 37.0, 1e8, 1e12, 1e300])
        assert np.all(nb.log_gamma_ratio(np.zeros(r.size), r) == 0.0)
        assert nb.log_gamma_ratio(0, 3.0) == 0.0

    def test_factorials_and_shapes(self):
        y = np.arange(30).reshape(5, 6)
        expected = [math.lgamma(k + 1) for k in range(30)]
        got = nb.log_gamma_ratio(y, 1.0)
        assert got.shape == (5, 6)
        np.testing.assert_allclose(got.ravel(), expected, rtol=1e-14, atol=1e-14)
        assert isinstance(nb.log_gamma_ratio(4, 1.0), float)


class TestSpecialFunctions:
    def test_psi_delta_zero_count(self):
        for r in (1e-6, 1.0, 1e7, 1e10):
            assert nb.psi_delta(0, r) == 0.0

    def test_psi_delta_unit_count_recurrence(self):
        for r in (0.1, 1.0, 100.0):
            np.testing.assert_allclose(nb.psi_delta(1, r), 1.0 / r, rtol=1e-10)
        # cancellation in the digamma difference grows toward the branch point
        np.testing.assert_allclose(nb.psi_delta(1, 1e7), 1e-7, rtol=1e-6)

    def test_branch_point_continuity(self):
        # the large-r asymptotic branch takes over at r = 1e8
        y = 40.0
        below = nb.psi_delta(y, 1e8 - 1.0)
        above = nb.psi_delta(y, 1e8)
        np.testing.assert_allclose(below, above, rtol=1e-7)
        below_p = nb.psi_prime_delta(y, 1e8 - 1.0)
        above_p = nb.psi_prime_delta(y, 1e8)
        np.testing.assert_allclose(below_p, above_p, rtol=1e-6)

    def test_branch_uses_asymptotic_form(self):
        y, r = 17.0, 1e9
        np.testing.assert_allclose(nb.psi_delta(y, r), np.log1p(y / r))
        np.testing.assert_allclose(nb.psi_prime_delta(y, r), -(y / r) / (y + r))
        # and the exact digamma difference just below the threshold
        r = 1e7
        np.testing.assert_allclose(nb.psi_delta(y, r), digamma(y + r) - digamma(r))

    def test_trigamma_matches_scipy(self):
        grid = np.logspace(-12, 12, 4001)
        shifts = np.arange(1.0, nb.TRIGAMMA_SHIFT + 3)
        near_shifts = np.concatenate([shifts, np.nextafter(shifts, 0.0),
                                      np.nextafter(shifts, np.inf), shifts - 1e-9, shifts + 1e-9])
        x = np.concatenate([grid, near_shifts])
        np.testing.assert_allclose(oracles.trigamma(x), polygamma(1, x), rtol=1e-13, atol=0)
        assert isinstance(oracles.trigamma(2.5), float)

    def test_psi_prime_delta_matches_exact_sum(self):
        r = np.logspace(-12, 7, 77)
        for y in range(1, 51):
            exact = [-math.fsum(1.0 / (ri + k) ** 2 for k in range(y)) for ri in r]
            np.testing.assert_allclose(nb.psi_prime_delta(float(y), r), exact, rtol=1e-8, atol=0)

    def test_psi_prime_delta_zero_count_exact(self):
        r = np.logspace(-12, 12, 97)
        assert np.all(nb.psi_prime_delta(np.zeros_like(r), r) == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(y=st.floats(1.0, 1e15), r=st.floats(1e-12, 1e12))
    def test_psi_prime_delta_nonpositive_and_finite(self, y, r):
        out = nb.psi_prime_delta(y, r)
        assert np.isfinite(out)
        assert out <= 0.0


EPS = np.finfo(float).eps
SHIFT = float(nb.TRIGAMMA_SHIFT)


def scipy_psi_differences(y, r):
    """psi(y + r) - psi(r), psi'(y + r) - psi'(r) from scipy, with the error
    bounds a comparison against them can use: rounding of the scipy terms,
    plus for r >= LARGE_R the remainder of the Poisson-limit forms there."""
    psi_y, psi_r = digamma(y + r), digamma(r)
    tri_y, tri_r = polygamma(1, y + r), polygamma(1, r)
    tol_psi = 16 * EPS * (max(abs(psi_y), 1.0) + max(abs(psi_r), 1.0))
    tol_tri = 16 * EPS * (tri_y + tri_r)
    if r >= nb.LARGE_R:
        # psi(x) = log x - 1/(2x) + O(x^-2), psi'(x) = 1/x + 1/(2x^2) + O(x^-3)
        tol_psi += y / (2 * r * (y + r)) + 1 / r ** 2
        tol_tri += 1 / r ** 2
    return psi_y - psi_r, tri_y - tri_r, tol_psi, tol_tri


counts = st.one_of(st.floats(0.0, 1e15), st.floats(0.0, 2 * SHIFT), st.integers(0, 60).map(float))
inverse_dispersions = st.one_of(
    st.floats(1e-12, 1e12),
    st.floats(SHIFT * (1 - 1e-12), SHIFT * (1 + 1e-12)),   # either side of the series threshold
    st.floats(nb.LARGE_R * (1 - 1e-12), nb.LARGE_R * (1 + 1e-12)))


class TestKernelAgainstScipy:
    @settings(max_examples=400, deadline=None)
    @given(y=counts, r=inverse_dispersions, mu=st.floats(1e-6, 1e6))
    def test_differences_and_derivatives_match_scipy(self, y, r, mu):
        dpsi, dtri, tol_psi, tol_tri = scipy_psi_differences(y, r)
        assert abs(nb.psi_delta(y, r) - dpsi) <= tol_psi
        assert abs(nb.psi_prime_delta(y, r) - dtri) <= tol_tri

        # the derivatives built from the scipy differences, as dispersion_derivatives does
        rp, mp = r / (r + mu), mu / (r + mu)
        log_ratio = np.log1p(mu / r)
        rest = log_ratio + (y - mu) / (r + mu)
        delta = -r * (dpsi - rest)
        delta_prime = -delta + r * r * dtri + y * rp * rp + r * mp * mp
        tol_delta = r * tol_psi + 4 * EPS * r * (abs(dpsi) + abs(log_ratio) + abs(rest))
        tol_prime = (tol_delta + r * r * tol_tri
                     + 4 * EPS * (abs(delta) + r * r * abs(dtri) + y * rp * rp + r * mp * mp))
        derivs = nb.dispersion_derivatives(np.full((1, 1), y), np.full((1, 1), mu),
                                           np.full((1, 1), r))
        assert abs(derivs.delta[0, 0] - delta) <= tol_delta
        assert abs(derivs.delta_prime[0, 0] - delta_prime) <= tol_prime

    def test_kernel_either_side_of_the_series_threshold(self):
        below = [SHIFT]
        above = [SHIFT]
        for _ in range(4):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        x = np.array(below[::-1] + above[1:] + [SHIFT - 1e-9, SHIFT + 1e-9])
        psi, tri = nb._psi_trigamma(x)
        np.testing.assert_allclose(psi, digamma(x), rtol=4 * EPS, atol=0)
        np.testing.assert_allclose(tri, polygamma(1, x), rtol=4 * EPS, atol=0)


class TestWorkspace:
    def test_unit_case(self):
        Y = np.array([[3, 0], [1, 2]])
        work = nb.nb_workspace(Y, np.zeros((2, 2)), np.zeros(2), np.zeros(2), 0.0)
        np.testing.assert_allclose(work.mu, 1.0)
        np.testing.assert_allclose(work.r, 1.0)
        np.testing.assert_allclose(work.W, 0.5)
        np.testing.assert_allclose(work.E, (Y - 1) / 2.0)

    def test_zero_score_at_mean(self):
        rng = np.random.default_rng(1)
        linpred = rng.normal(size=(3, 4))
        Y = np.exp(linpred)  # real-valued, synthetic
        work = nb.nb_workspace(Y, linpred, rng.normal(size=3), rng.normal(size=4), 0.3)
        np.testing.assert_allclose(work.E, 0.0, atol=1e-12)

    def test_matches_scalar_formulas(self):
        rng = np.random.default_rng(2)
        I, J = 4, 5
        Y = rng.poisson(5.0, size=(I, J))
        linpred = rng.normal(size=(I, J))
        S, T, omega = rng.normal(size=I), rng.normal(size=J), -0.4
        work = nb.nb_workspace(Y, linpred, S, T, omega)
        for i in range(I):
            for j in range(J):
                mu = np.exp(linpred[i, j])
                r = np.exp(-S[i] - T[j] - omega)
                w = r * mu / (r + mu)
                e = (Y[i, j] - mu) * w / mu
                assert abs(work.W[i, j] - w) <= 1e-12 * max(1.0, w)
                assert abs(work.E[i, j] - e) <= 1e-12 * max(1.0, abs(e))

    def test_clamp_flag(self):
        work = nb.nb_workspace(np.array([[1]]), np.array([[800.0]]),
                               np.zeros(1), np.zeros(1), 0.0)
        assert work.mu[0, 0] == np.exp(700.0)
        assert np.isfinite(work.mu).all()


class TestMeans:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_linear_predictor_raises(self, bad):
        linpred = np.zeros((3, 4))
        linpred[1, 2] = bad
        with pytest.raises(DomainError):
            nb.means(linpred)

    def test_clamp_counts(self):
        linpred = np.array([[800.0, -900.0, 700.0], [-700.0, 0.5, 701.0]])
        mu, clamped = nb.means(linpred)
        assert clamped == 3
        np.testing.assert_array_equal(mu, np.exp(np.clip(linpred, -700.0, 700.0)))
        out = np.empty_like(linpred)
        assert nb.means(linpred[:, 1:], out=out[:, 1:])[1] == 2
        assert nb.means(np.full((2, 2), 3.0))[1] == 0


class TestDispersionDerivatives:
    def test_poisson_limit_zero_score(self):
        mu = np.full((1, 1), 3.0)
        derivs = nb.dispersion_derivatives(np.full((1, 1), 3.0), mu, np.full((1, 1), 1e10))
        assert abs(derivs.delta[0, 0]) < 1e-6

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        I, J = 5, 4
        Y = rng.poisson(4.0, size=(I, J))
        mu = np.exp(rng.normal(size=(I, J)))
        S, T, omega = rng.normal(size=I) * 0.5, rng.normal(size=J) * 0.5, -0.7

        def loglik_of_s(svec):
            r = np.exp(-np.add.outer(svec, T) - omega)
            return nb.nb_log_pmf(Y, mu, r).sum(axis=1)

        r = np.exp(-np.add.outer(S, T) - omega)
        derivs = nb.dispersion_derivatives(Y, mu, r)
        # the second difference is taken at h2: at h = 1e-5 its rounding noise
        # eps |f| / h^2 is about 1e-4, while at 1e-3 its error is below 1e-7
        h, h2 = 1e-5, 1e-3
        for i in range(I):
            e = np.zeros(I)
            e[i] = h
            fd1 = (loglik_of_s(S + e)[i] - loglik_of_s(S - e)[i]) / (2 * h)
            e[i] = h2
            fd2 = (loglik_of_s(S + e)[i] - 2 * loglik_of_s(S)[i] + loglik_of_s(S - e)[i]) / h2 ** 2
            grad = derivs.delta[i].sum()
            hess = derivs.delta_prime[i].sum()
            assert abs(fd1 - grad) <= 1e-5 * max(1.0, abs(grad))
            assert abs(fd2 - hess) <= 1e-6 * max(1.0, abs(hess))

    def test_extreme_inputs_finite(self):
        cases = [
            (1e9, 1e-6, 1e-6),
            (1e15, 1.0, 1e-12),
            (0.0, 1e300, 1e-12),
            (5.0, 1e-12, 1e12),
            (1e15, 1e304, 1e12),
        ]
        for y, mu, r in cases:
            derivs = nb.dispersion_derivatives(
                np.full((1, 1), y), np.full((1, 1), mu), np.full((1, 1), r))
            assert np.isfinite(derivs.delta).all(), (y, mu, r)
            assert np.isfinite(derivs.delta_prime).all(), (y, mu, r)


class TestDispersionSums:
    @pytest.mark.parametrize("shape, chunk, chunk_rows", [
        ((7, 5), 10, [2, 2, 2, 1]),     # the last chunk is ragged
        ((9, 40), 16, [1] * 9),         # J > CHUNK_ELEMENTS: a chunk is one row
    ])
    def test_match_whole_array_sums(self, monkeypatch, shape, chunk, chunk_rows):
        monkeypatch.setattr(nb, "CHUNK_ELEMENTS", chunk)
        assert [rows.stop - rows.start for rows in nb.row_chunks(*shape)] == chunk_rows
        rng = np.random.default_rng(12)
        Y = rng.poisson(5.0, size=shape)
        mu = np.exp(rng.normal(1.0, 1.0, size=shape))
        r = np.exp(rng.normal(0.0, 2.0, size=shape))
        whole = nb.dispersion_derivatives(Y, mu, r)
        sums = nb.dispersion_sums(Y, mu, r)
        for axis in (0, 1):
            for name in ("delta", "delta_prime"):
                terms = getattr(whole, name)
                # a sum that cancels is exact only relative to its terms
                np.testing.assert_allclose(
                    getattr(sums[axis], name), terms.sum(axis=axis), rtol=1e-12,
                    atol=1e-12 * np.abs(terms).sum(axis=axis).max(), err_msg=f"{name}, axis {axis}")


class TestIntegerCounts:
    def test_int64_counts_give_the_float64_answers_without_a_copy(self):
        rng = np.random.default_rng(13)
        y = rng.poisson(5.0, size=(64, 512))
        y[0, :3] = (0, 10 ** 6, 2 ** 60)
        mu = np.exp(rng.normal(1.0, 1.0, size=y.shape))
        r = np.exp(rng.normal(0.0, 2.0, size=y.shape))
        r[1, :2] = 1e9                                         # the Poisson-limit branch
        peaks = {}
        for counts in (y, y.astype(np.float64)):
            tracemalloc.start()
            try:
                derivs = nb.dispersion_derivatives(counts, mu, r)
                log_pmf = nb.nb_log_pmf(counts, mu, r)
                peaks[counts.dtype.kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if counts.dtype.kind == "i":
                expected = (derivs.delta, derivs.delta_prime, log_pmf)
        for got, want in zip((derivs.delta, derivs.delta_prime, log_pmf), expected):
            np.testing.assert_array_equal(got, want)
        # a float64 copy of the counts would add y.nbytes
        assert peaks["i"] < peaks["f"] + y.nbytes / 2, peaks


class TestMomentIdentities:
    def test_sampler_mean_and_variance(self):
        rng = np.random.default_rng(4)
        mu, r, n = 5.0, 2.0, 100_000
        draws = nb.nb_sample(np.full(n, mu), np.full(n, r), rng)
        se_mean = np.sqrt((mu + mu ** 2 / r) / n)
        assert abs(draws.mean() - mu) < 4 * se_mean
        var = mu + mu ** 2 / r
        # fourth-moment based standard error for the sample variance
        m4 = ((draws - draws.mean()) ** 4).mean()
        se_var = np.sqrt((m4 - var ** 2) / n)
        assert abs(draws.var() - var) < 4 * se_var

    def test_weight_is_expected_curvature(self):
        # W matches the Monte Carlo average of the negative second derivative
        # of the per-entry log-likelihood in the linear predictor
        rng = np.random.default_rng(5)
        mu, r, n = 4.0, 3.0, 100_000
        Y = nb.nb_sample(np.full(n, mu), np.full(n, r), rng)
        curv = mu * r * (r + Y) / (r + mu) ** 2
        w = r * mu / (r + mu)
        se = curv.std() / np.sqrt(n)
        assert abs(curv.mean() - w) < 4 * se
