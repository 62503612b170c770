import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from nbgbm.exceptions import DomainError, InputError, ShapeError
from nbgbm.estimation import fit
from nbgbm.model import FitConfig, check_constraints, standardize_covariates
from nbgbm.simulate import (
    SimScheme,
    align_latent_factors,
    coverage_curve,
    empirical_coverage,
    generate_covariates,
    generate_covariates_counted,
    generate_outcomes,
    generate_parameters,
    relative_mse,
    simulate_dataset,
    _marginal,
)
from nbgbm.rngstreams import stream_rng


class TestSchemes:
    def test_parse(self):
        scheme = SimScheme.parse("LNP/Binary/Gamma", (50, 20, 2, 2, 1), seed=3)
        assert scheme.outcome == "LNP"
        assert scheme.covariate_scheme == "Binary"
        assert scheme.parameter_scheme == "Gamma"

    def test_parse_rejects_unknown_tokens(self):
        with pytest.raises(InputError, match="NB"):
            SimScheme.parse("Negbin/Normal/Normal", (10, 5, 1, 1, 0))

    def test_rejects_m_too_large(self):
        with pytest.raises(DomainError):
            SimScheme(dims=(10, 5, 1, 1, 5))

    @pytest.mark.parametrize("dims", [(5, 20, 4, 1, 2), (3, 3, 3, 1, 1), (20, 5, 1, 4, 2)])
    def test_rejects_m_beyond_the_covariate_nullspace(self, dims):
        # an orthonormal U with X'U = 0 needs M <= I - K, and V M <= J - L
        with pytest.raises(DomainError, match="I - K"):
            SimScheme(dims=dims)

    @pytest.mark.parametrize("dims", [(6, 20, 4, 1, 2), (3, 2, 1, 1, 1)])
    def test_m_at_the_nullspace_boundary_simulates(self, dims):
        _, truth = simulate_dataset(SimScheme(dims=dims, seed=1))
        assert check_constraints(truth.params0, truth.cov).passed


class TestCovariates:
    @pytest.mark.parametrize("scheme", ["Normal", "Gamma", "Binary"])
    def test_standardization(self, scheme):
        rng = np.random.default_rng(0)
        X = generate_covariates(200, 4, scheme, rng)
        np.testing.assert_allclose(X[:, 0], 1.0)
        np.testing.assert_allclose(X[:, 1:].sum(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose((X[:, 1:] ** 2).mean(axis=0), 1.0, atol=1e-10)

    def test_binary_marginal_is_two_valued(self):
        rng = np.random.default_rng(1)
        raw = _marginal(rng.standard_normal(1000), "Binary")
        assert set(np.unique(raw)) <= {0.0, 1.0}
        # the sign of the draw is the rule Phi(x) > 1/2
        x = rng.standard_normal(10_000)
        assert np.array_equal(_marginal(x, "Binary"), (ndtr(x) > 0.5).astype(np.float64))
        X = generate_covariates(100, 3, "Binary", rng)
        for k in (1, 2):
            assert np.unique(np.round(X[:, k], 12)).size == 2

    def test_normal_marginal_is_the_draws(self):
        x = np.concatenate([[-np.inf, -40.0, -8.5, 0.0, 8.5, 40.0, np.inf, np.nan],
                            np.random.default_rng(3).standard_normal(10_000)])
        assert np.array_equal(_marginal(x, "Normal"), x, equal_nan=True)

    @pytest.mark.parametrize("scheme, reference", [
        ("Gamma", lambda u: gamma_dist.ppf(u, a=2.0, scale=1.0 / np.sqrt(2.0))),
    ])
    def test_marginal_icdf_matches_scipy_stats(self, scheme, reference):
        u = np.concatenate([[0.0, 1e-300, 0.3, 0.5, 1 - 1e-16, 1.0, np.nan],
                            np.random.default_rng(3).random(10_000)])
        x = norm.ppf(u)
        assert np.array_equal(_marginal(x, scheme), reference(norm.cdf(x)), equal_nan=True)

    def test_far_tail_draw_is_not_clamped(self):
        # Phi(8.5) rounds to 1, so a CDF round trip would send this draw to
        # inf and the clamp to 100; the Normal marginal keeps it as drawn
        draws = np.array([[0.0, 8.5], [0.0, -1.0], [0.0, 0.5], [0.0, 0.2]])

        class StubRng:
            def standard_normal(self, shape):
                return np.eye(shape[0])

            def multivariate_normal(self, mean, cov, size, method):
                return draws.copy()

        X, clamps = generate_covariates_counted(4, 2, "Normal", StubRng())
        assert clamps == 0
        expected = draws.copy()
        expected[:, 0] = 1.0
        assert np.array_equal(X, standardize_covariates(expected))

    def test_intercept_only(self):
        rng = np.random.default_rng(2)
        np.testing.assert_array_equal(generate_covariates(7, 1, "Normal", rng), np.ones((7, 1)))


class TestParameters:
    def test_constraints_exact(self):
        rng = np.random.default_rng(3)
        from nbgbm.model import CovariateSet

        X = generate_covariates(40, 3, "Normal", rng)
        Z = generate_covariates(15, 2, "Normal", rng)
        cov = CovariateSet(X, Z)
        params = generate_parameters(cov, 2, "Normal", rng)
        report = check_constraints(params, cov)
        assert report.passed and report.u_signs_ok
        assert np.abs(cov.Z.T @ params.A).max() < 1e-10
        assert abs(np.mean(np.exp(params.S)) - 1.0) < 1e-12

    def test_singular_value_ladder(self):
        rng = np.random.default_rng(4)
        from nbgbm.model import CovariateSet

        X = generate_covariates(100, 2, "Normal", rng)
        Z = generate_covariates(100, 2, "Normal", rng)
        cov = CovariateSet(X, Z)
        params = generate_parameters(cov, 3, "Normal", rng)
        np.testing.assert_allclose(np.sort(params.D), [20.0, 30.0, 40.0])

    def test_gamma_scheme_variances(self):
        # coefficient draws are scaled so the linear predictor's pieces do
        # not grow with the covariate counts
        rng = np.random.default_rng(5)
        from nbgbm.model import CovariateSet

        X = generate_covariates(30, 4, "Normal", rng)
        Z = generate_covariates(12, 2, "Normal", rng)
        cov = CovariateSet(X, Z)
        draws = []
        for rep in range(400):
            params = generate_parameters(cov, 0, "Gamma", np.random.default_rng(rep))
            draws.append(params.C[1, 1])
        var = np.var(draws)
        target = 1.0 / (4 * 2)  # 1/(K L)
        assert abs(var - target) < 5 * target / np.sqrt(len(draws))

    def test_default_global_dispersion(self):
        rng = np.random.default_rng(6)
        from nbgbm.model import CovariateSet

        cov = CovariateSet(generate_covariates(20, 2, "Normal", rng),
                           generate_covariates(10, 2, "Normal", rng))
        params = generate_parameters(cov, 1, "Normal", rng)
        assert params.omega == -2.3


class TestOutcomes:
    def test_geometric_mean(self):
        rng = np.random.default_rng(7)
        mu = np.full((100_000, 1), 3.0)
        Y = generate_outcomes(mu, np.ones_like(mu), "Geometric", rng)
        se = np.sqrt(np.var(Y.values.astype(float)) / mu.size)
        assert abs(Y.values.mean() - 3.0) < 4 * se

    def test_lnp_poisson_limit(self):
        rng = np.random.default_rng(8)
        mu = np.full((100_000, 1), 6.0)
        Y = generate_outcomes(mu, np.full_like(mu, 1e12), "LNP", rng).values.astype(float)
        ratio = Y.var() / Y.mean()
        # variance/mean ratio of Poisson is 1
        se = np.sqrt(2.0 / mu.size)  # approximate SE of the ratio
        assert abs(ratio - 1.0) < 4 * se + 0.02

    def test_nb_mean(self):
        rng = np.random.default_rng(9)
        mu = np.full((100_000, 1), 5.0)
        Y = generate_outcomes(mu, np.full_like(mu, 2.0), "NB", rng)
        se = np.sqrt((5.0 + 25.0 / 2.0) / mu.size)
        assert abs(Y.values.mean() - 5.0) < 4 * se

    def test_reproducibility(self):
        scheme = SimScheme(dims=(25, 10, 2, 2, 1), seed=99)
        Y1, truth1 = simulate_dataset(scheme)
        Y2, truth2 = simulate_dataset(scheme)
        np.testing.assert_array_equal(Y1.values, Y2.values)
        np.testing.assert_array_equal(truth1.cov.X, truth2.cov.X)
        np.testing.assert_array_equal(truth1.params0.U, truth2.params0.U)

    def test_streams_are_independent(self):
        # regenerating outcomes does not perturb covariates or parameters
        scheme = SimScheme(dims=(10, 6, 2, 2, 1), seed=5)
        _, truth_a = simulate_dataset(scheme, replicate=0)
        _, truth_b = simulate_dataset(scheme, replicate=1)
        np.testing.assert_raises(AssertionError, np.testing.assert_array_equal,
                                 truth_a.params0.A, truth_b.params0.A)

    def test_negative_seed_or_replicate_is_domain_error(self, small_instance):
        Y, truth = small_instance
        with pytest.raises(DomainError):
            stream_rng(-1, "init")
        with pytest.raises(DomainError):
            simulate_dataset(SimScheme(dims=(10, 6, 2, 2, 1), seed=5), replicate=-1)
        with pytest.raises(DomainError):
            fit(Y, truth.cov, 1, config=FitConfig(seed=-1))


class TestAlignment:
    def test_identity_on_self(self, small_instance):
        _, truth = small_instance
        aligned = align_latent_factors(truth.params0, truth.params0)
        np.testing.assert_array_equal(aligned.U, truth.params0.U)
        np.testing.assert_array_equal(aligned.D, truth.params0.D)

    def test_recovers_swap_and_flip(self):
        rng = np.random.default_rng(10)
        from nbgbm.model import CovariateSet

        cov = CovariateSet(generate_covariates(30, 2, "Normal", rng),
                           generate_covariates(12, 2, "Normal", rng))
        truth = generate_parameters(cov, 2, "Normal", rng)
        scrambled = truth.copy()
        scrambled.U = truth.U[:, [1, 0]] * np.array([-1.0, 1.0])
        scrambled.V = truth.V[:, [1, 0]] * np.array([-1.0, 1.0])
        scrambled.D = truth.D[[1, 0]]
        aligned = align_latent_factors(scrambled, truth)
        np.testing.assert_allclose(aligned.U, truth.U, atol=1e-12)
        np.testing.assert_allclose(aligned.V, truth.V, atol=1e-12)
        np.testing.assert_allclose(aligned.D, truth.D, atol=1e-12)

    def test_greedy_branch_recovers_permutation_and_flips(self):
        # M > 5 takes the greedy assignment instead of the exhaustive search
        rng = np.random.default_rng(11)
        from nbgbm.model import CovariateSet

        cov = CovariateSet(generate_covariates(40, 2, "Normal", rng),
                           generate_covariates(20, 2, "Normal", rng))
        truth = generate_parameters(cov, 6, "Normal", rng)
        perm = [3, 0, 5, 1, 4, 2]
        signs = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
        scrambled = truth.copy()
        scrambled.U = truth.U[:, perm] * signs
        scrambled.V = truth.V[:, perm] * signs
        scrambled.D = truth.D[perm]
        aligned = align_latent_factors(scrambled, truth)
        np.testing.assert_array_equal(aligned.U, truth.U)
        np.testing.assert_array_equal(aligned.V, truth.V)
        np.testing.assert_array_equal(aligned.D, truth.D)

    def test_alignment_never_hurts(self, small_fit):
        Y, truth, result = small_fit
        aligned = align_latent_factors(result.params, truth.params0)
        assert (relative_mse(aligned.U, truth.params0.U)
                <= relative_mse(result.params.U, truth.params0.U) + 1e-12)

    def test_m_mismatch(self, small_instance):
        _, truth = small_instance
        other = truth.params0.copy()
        other.D = np.ones(2)
        other.U = np.zeros((truth.cov.I, 2))
        other.V = np.zeros((truth.cov.J, 2))
        with pytest.raises(ShapeError):
            align_latent_factors(other, truth.params0)


class TestRelativeMse:
    def test_exact_match(self):
        assert relative_mse(np.ones(4), np.ones(4)) == 0.0

    def test_double(self):
        truth = np.array([1.0, -2.0, 3.0])
        assert relative_mse(2 * truth, truth) == pytest.approx(1.0)

    def test_unit_perturbation(self):
        truth = np.array([1.0, 2.0, 2.0])
        est = truth + np.array([1.0, 0.0, 0.0])
        assert relative_mse(est, truth) == pytest.approx(1.0 / 9.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(DomainError):
            relative_mse(np.ones(3), np.zeros(3))


class TestCoverageCurve:
    def test_calibrated_normal_draws_on_diagonal(self):
        rng = np.random.default_rng(11)
        n = 100_000
        truth = rng.normal(size=n)
        se = np.exp(rng.normal(size=n) * 0.3)
        est = truth + se * rng.normal(size=n)
        targets, actual = coverage_curve(est, se, truth)
        assert np.abs(actual - targets).max() < 0.01

    def test_infinite_intervals(self):
        targets, actual = coverage_curve(np.zeros(10), np.full(10, 1e12), np.ones(10))
        assert np.all(actual[1:] == 1.0)

    def test_zero_width_intervals(self):
        targets, actual = coverage_curve(np.zeros(10), np.full(10, 1e-14), np.ones(10))
        assert np.all(actual[:-1] == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_standard_error_is_domain_error(self, bad):
        ses = np.ones(10)
        ses[3] = bad
        with pytest.raises(DomainError, match="finite and positive"):
            coverage_curve(np.zeros(10), ses, np.ones(10))

    def test_empirical_coverage_matches_curve_at_level(self):
        rng = np.random.default_rng(12)
        n = 20_000
        truth = np.zeros(n)
        est = rng.normal(size=n)
        cov95 = empirical_coverage(est, np.ones(n), truth, 0.95)
        assert abs(cov95 - 0.95) < 0.01

    def test_curve_matches_scipy_stats(self):
        rng = np.random.default_rng(13)
        n = 50_000
        truth = rng.normal(size=n)
        se = np.exp(rng.normal(size=n))
        est = truth + se * rng.standard_t(3, size=n)
        stat = np.sort(1.0 - 2.0 * norm.sf(np.abs(est - truth) / se))
        targets = np.linspace(0.0, 1.0, 10_001)
        expected = np.searchsorted(stat, targets, side="left") / n
        got_targets, actual = coverage_curve(est, se, truth, n_grid=10_001)
        assert np.array_equal(got_targets, targets)
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    def test_empirical_coverage_matches_scipy_stats(self, level):
        # half the estimates sit on the interval's edge up to rounding, so
        # the count depends on the last bits of the critical value
        z = norm.ppf(0.5 + level / 2.0)
        rng = np.random.default_rng(14)
        se = np.exp(rng.normal(size=1000))
        truth = rng.normal(size=1000)
        est = truth + np.where(rng.random(1000) < 0.5, z * se, rng.normal(size=1000) * se)
        expected = float(np.mean(np.abs(est - truth) <= z * se))
        assert empirical_coverage(est, se, truth, level) == expected
