import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbgbm.estimation import make_state
from nbgbm.exceptions import DomainError, PreconditionError, ShapeError
from nbgbm.model import (
    CONSTRAINT_TOL,
    CovariateSet,
    DataMatrix,
    GbmParams,
    check_constraints,
    linear_predictor,
    partial_residuals,
    residual_precisions,
    residuals,
    sum_of_squares_decomposition,
)
from nbgbm.simulate import generate_covariates, generate_parameters
from nbgbm.rngstreams import stream_rng

from conftest import ASYMMETRIC_PRIOR, random_constrained_params


def make_cov(I=6, J=4, K=2, L=2, seed=0):
    rng = np.random.default_rng(seed)
    X = generate_covariates(I, K, "Normal", rng)
    Z = generate_covariates(J, L, "Normal", rng)
    return CovariateSet(X, Z)


class TestDataMatrix:
    def test_accepts_counts(self):
        dm = DataMatrix(np.array([[0, 1], [2, 3]]))
        assert dm.I == 2 and dm.J == 2
        assert dm.values.dtype == np.int64

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            DataMatrix(np.array([[0, -1]]))

    def test_rejects_fractional(self):
        with pytest.raises(DomainError):
            DataMatrix(np.array([[0.5, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            DataMatrix(np.array([[0.0, bad]]))

    @pytest.mark.parametrize("big", [np.array([[1.0, 2.0 ** 63]]), np.array([[1.0, 1e300]]),
                                     np.array([[1, 2 ** 63]], dtype=np.uint64)])
    def test_rejects_counts_beyond_int64(self, big):
        with pytest.raises(DomainError, match="int64 range"):
            DataMatrix(big)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64, np.int64])
    def test_accepts_largest_int64_counts(self, dtype):
        # the largest float below 2**63 and int64's maximum both cast exactly
        top = 2.0 ** 63 - 1024 if dtype is np.float64 else np.iinfo(np.int64).max
        dm = DataMatrix(np.array([[0, top]], dtype=dtype))
        assert dm.values[0, 1] == int(top)

    @pytest.mark.parametrize("values, error", [
        (np.asarray([[2**64, 1]]), "int64 range"),
        (np.asarray([[2**63, 1]], dtype=object), "int64 range"),
        (np.asarray([[-2**70, 1]], dtype=object), "negative"),
        (np.asarray([["3", "1"]]), "real numbers"),
        (np.asarray([["3", 1]], dtype=object), "real numbers"),
        (np.asarray([[None, 1]], dtype=object), "real numbers"),
        (np.asarray([[1 + 0j, 2]]), "real numbers"),
        (np.asarray([[1.5, 2]], dtype=object), "non-integral"),
        (np.asarray([[2, 1]], dtype=object), None),
        (np.asarray([[2**63 - 1, 1]], dtype=object), None),
        (np.asarray([[2.0, 1]], dtype=object), None),
        (np.asarray([[True, False]]), None),
    ])
    def test_dtypes_give_counts_or_domain_error(self, values, error):
        if error is not None:
            with pytest.raises(DomainError, match=error):
                DataMatrix(values)
        else:
            dm = DataMatrix(values)
            assert dm.values.dtype == np.int64
            assert dm.values.tolist() == [[int(v) for v in row] for row in values.tolist()]


class TestCovariateSet:
    def test_pseudoinverse_identity(self):
        cov = make_cov(I=20, J=9, K=3, L=2)
        np.testing.assert_allclose(cov.Xplus @ cov.X, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(cov.Zplus @ cov.Z, np.eye(2), atol=1e-10)

    def test_requires_intercept(self):
        X = np.column_stack([np.arange(5.0), np.ones(5)])
        with pytest.raises(DomainError):
            CovariateSet(X, np.ones((4, 1)))

    def test_requires_centered_columns(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(DomainError):
            CovariateSet(X, np.ones((4, 1)))


class TestLinearPredictor:
    def test_zero_params_give_zero(self):
        cov = make_cov()
        params = GbmParams.zeros(cov.I, cov.J, cov.K, cov.L, 1)
        np.testing.assert_array_equal(linear_predictor(params, cov), np.zeros((6, 4)))

    def test_intercept_only(self):
        cov = CovariateSet(np.ones((5, 1)), np.ones((3, 1)))
        params = GbmParams.zeros(5, 3, 1, 1, 0)
        params.C[0, 0] = 3.0
        np.testing.assert_allclose(linear_predictor(params, cov), np.full((5, 3), 3.0))

    def test_matches_scalar_sum(self):
        # entrywise evaluation of the double-sum form of the model
        cov = make_cov(I=4, J=3, K=2, L=2, seed=5)
        params = random_constrained_params(cov, 1, seed=5)
        lp = linear_predictor(params, cov)
        for i in range(4):
            for j in range(3):
                expected = 0.0
                for k in range(2):
                    expected += cov.X[i, k] * params.A[j, k]
                for ell in range(2):
                    expected += params.B[i, ell] * cov.Z[j, ell]
                for k in range(2):
                    for ell in range(2):
                        expected += cov.X[i, k] * params.C[k, ell] * cov.Z[j, ell]
                for m in range(1):
                    expected += params.U[i, m] * params.D[m] * params.V[j, m]
                assert abs(lp[i, j] - expected) <= 1e-12

    def test_linear_in_each_block(self):
        cov = make_cov(seed=2)
        rng = np.random.default_rng(2)
        base = GbmParams.zeros(cov.I, cov.J, cov.K, cov.L, 0)
        a1, a2 = rng.normal(size=(2, cov.J, cov.K))
        p1, p2, p12 = base.copy(), base.copy(), base.copy()
        p1.A, p2.A, p12.A = a1, a2, a1 + a2
        np.testing.assert_allclose(
            linear_predictor(p12, cov),
            linear_predictor(p1, cov) + linear_predictor(p2, cov), atol=1e-12)

    def test_shape_error_names_component(self):
        cov = make_cov()
        params = GbmParams.zeros(cov.I, cov.J, cov.K, cov.L, 1)
        params.A = np.zeros((cov.J + 1, cov.K))
        with pytest.raises(ShapeError, match="A"):
            linear_predictor(params, cov)


class TestTransposition:
    def test_linear_predictor_of_transposed_problem(self):
        cov = make_cov(I=7, J=5, K=3, L=2, seed=4)
        params = random_constrained_params(cov, 2, seed=4)
        flipped = params.transposed()
        np.testing.assert_allclose(linear_predictor(flipped, cov.transposed()),
                                   linear_predictor(params, cov).T, rtol=1e-12, atol=1e-12)
        assert np.shares_memory(flipped.A, params.B) and np.shares_memory(flipped.C, params.C)

    def test_log_posterior_of_transposed_state(self, small_instance):
        Y, truth = small_instance
        params = random_constrained_params(truth.cov, 1, seed=6)
        state = make_state(Y, truth.cov, params, prior=ASYMMETRIC_PRIOR)
        np.testing.assert_allclose(state.transposed().log_posterior(), state.log_posterior(),
                                   rtol=1e-12)


class TestResiduals:
    def test_exact_fit_gives_zero(self):
        # synthetic real-valued counts chosen so log(Y + 1/8) equals linpred
        rng = np.random.default_rng(0)
        Y = np.maximum(np.exp(rng.normal(size=(4, 3))) - 0.125, 0.0)
        linpred = np.log(Y + 0.125)
        np.testing.assert_allclose(residuals(Y, linpred), 0.0, atol=1e-12)

    def test_zero_count_zero_linpred(self):
        out = residuals(DataMatrix(np.zeros((1, 1), dtype=int)), np.zeros((1, 1)))
        np.testing.assert_allclose(out, np.log(0.125))

    def test_default_pseudocount(self):
        Y = DataMatrix(np.array([[4]]))
        np.testing.assert_allclose(residuals(Y, np.zeros((1, 1))), np.log(4.125))

    def test_epsilon_must_be_positive(self):
        with pytest.raises(DomainError):
            residuals(DataMatrix(np.array([[1]])), np.zeros((1, 1)), epsilon=0.0)


class TestPartialResiduals:
    def test_keep_all_recovers_log_counts(self, small_instance):
        Y, truth = small_instance
        lp = linear_predictor(truth.params0, truth.cov)
        resid = residuals(Y, lp)
        out = partial_residuals(truth.params0, truth.cov, resid,
                                keep_x=range(2), keep_z=range(2), keep_u=range(1))
        np.testing.assert_allclose(out, np.log(Y.values + 0.125), atol=1e-10)

    def test_keep_none_returns_residuals(self, small_instance):
        Y, truth = small_instance
        lp = linear_predictor(truth.params0, truth.cov)
        resid = residuals(Y, lp)
        out = partial_residuals(truth.params0, truth.cov, resid)
        np.testing.assert_array_equal(out, resid)

    def test_intercept_only_matches_scalar_formula(self, small_instance):
        Y, truth = small_instance
        p, cov = truth.params0, truth.cov
        lp = linear_predictor(p, cov)
        resid = residuals(Y, lp)
        out = partial_residuals(p, cov, resid, keep_x=[0], keep_z=[0])
        expected = (p.C[0, 0] + p.A[:, 0][None, :] + p.B[:, 0][:, None] + resid)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_out_of_range_index(self, small_instance):
        Y, truth = small_instance
        resid = np.zeros((truth.cov.I, truth.cov.J))
        with pytest.raises(IndexError):
            partial_residuals(truth.params0, truth.cov, resid, keep_x=[5])


class TestResidualPrecisions:
    def test_symmetric_case(self):
        np.testing.assert_allclose(residual_precisions(np.ones((2, 2)), np.ones((2, 2))), 0.5)

    def test_poisson_limit(self):
        w = residual_precisions(np.full((1, 1), 7.0), np.full((1, 1), 1e12))
        assert abs(w[0, 0] - 7.0) < 1e-10

    @given(st.floats(0.01, 1e6), st.floats(0.01, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_below_harmonic_bound(self, mu, r):
        w = residual_precisions(np.array([[mu]]), np.array([[r]]))
        assert w[0, 0] < min(mu, r) + 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            residual_precisions(np.array([[0.0]]), np.array([[1.0]]))


class TestSumOfSquares:
    def test_all_zero(self):
        cov = make_cov()
        parts = sum_of_squares_decomposition(GbmParams.zeros(6, 4, 2, 2, 0), cov)
        assert all(v == 0.0 for v in parts.values())

    def test_only_interactions(self):
        cov = make_cov(seed=3)
        params = GbmParams.zeros(cov.I, cov.J, cov.K, cov.L, 0)
        params.C = np.array([[1.0, -2.0], [0.5, 0.25]])
        parts = sum_of_squares_decomposition(params, cov)
        np.testing.assert_allclose(parts["ss_total"], parts["ss_xcz"], rtol=1e-12)

    def test_additivity_on_random_constrained_states(self):
        cov = make_cov(I=12, J=7, K=2, L=2, seed=9)
        for seed in range(100):
            params = random_constrained_params(cov, 2, seed=seed)
            parts = sum_of_squares_decomposition(params, cov)
            total = parts["ss_xa"] + parts["ss_bz"] + parts["ss_xcz"] + parts["ss_udv"]
            assert abs(total - parts["ss_total"]) <= 1e-8 * max(parts["ss_total"], 1.0)

    def test_violated_constraints_rejected(self):
        cov = make_cov(seed=4)
        params = random_constrained_params(cov, 1, seed=4)
        params.A = params.A + 1.0  # breaks Z'A = 0
        with pytest.raises(PreconditionError):
            sum_of_squares_decomposition(params, cov)


class TestCheckConstraints:
    def test_zero_blocks_pass(self):
        cov = make_cov()
        report = check_constraints(GbmParams.zeros(6, 4, 2, 2, 0), cov)
        assert report.passed
        assert report.max_zta == 0.0 and report.max_utu == 0.0

    def test_unordered_singular_values_fail(self):
        cov = make_cov(I=12, J=7, seed=1)
        params = random_constrained_params(cov, 2, seed=1)
        params.D = params.D[::-1].copy()
        report = check_constraints(params, cov)
        assert not report.d_ordered and not report.passed

    def test_interpretation_consequences(self):
        # on constrained states: zero column sums and overall mean equal to
        # the global intercept
        cov = make_cov(I=15, J=9, K=2, L=2, seed=8)
        params = random_constrained_params(cov, 2, seed=8)
        scale = max(1.0, np.abs(params.A).max())
        assert np.abs(params.A.sum(axis=0)).max() <= 1e-8 * scale * cov.J
        assert np.abs(params.B.sum(axis=0)).max() <= 1e-8 * scale * cov.I
        assert np.abs(params.U.sum(axis=0)).max() <= 1e-8 * cov.I
        assert np.abs(params.V.sum(axis=0)).max() <= 1e-8 * cov.J
        lp = linear_predictor(params, cov)
        assert abs(lp.mean() - params.C[0, 0]) <= 1e-8 * max(1.0, abs(params.C[0, 0]))

    def test_m_too_large(self):
        cov = make_cov(I=4, J=3)
        params = GbmParams.zeros(4, 3, 2, 2, 3)
        with pytest.raises(ShapeError):
            check_constraints(params, cov)
