import numpy as np
import pytest
from scipy.optimize import minimize

from nbgbm import estimation as est
from nbgbm import nb
from nbgbm.exceptions import (DegenerateCovariateError, DomainError, NumericError, RankError,
                               ShapeError)
from nbgbm.model import (
    CovariateSet,
    DataMatrix,
    FitConfig,
    GbmParams,
    PriorConfig,
    check_constraints,
    linear_predictor,
)
from nbgbm.simulate import SimScheme, simulate_dataset

from conftest import ASYMMETRIC_PRIOR, random_constrained_params


class TestStandardize:
    def test_idempotent(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        once = est.standardize_covariates(X)
        twice = est.standardize_covariates(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_hand_case(self):
        X = np.column_stack([np.ones(4), np.arange(1.0, 5.0)])
        out = est.standardize_covariates(X)
        expected = np.array([-1.5, -0.5, 0.5, 1.5]) / np.sqrt(1.25)
        np.testing.assert_allclose(out[:, 1], expected)
        np.testing.assert_allclose(out[:, 0], 1.0)

    def test_constant_column_rejected(self):
        X = np.column_stack([np.ones(5), np.full(5, 2.0)])
        with pytest.raises(DegenerateCovariateError):
            est.standardize_covariates(X)

    def test_rank_deficiency_rejected(self):
        v = np.arange(6.0)
        X = np.column_stack([np.ones(6), v, 2 * v])
        with pytest.raises(RankError):
            est.standardize_covariates(X)


class TestInitialization:
    def test_constant_counts_intercept_only(self):
        Y = DataMatrix(np.full((8, 5), 7))
        cov = CovariateSet(np.ones((8, 1)), np.ones((5, 1)))
        params = est.initial_params(Y, cov, 0)
        np.testing.assert_allclose(params.C, np.log(7.125), atol=1e-12)
        np.testing.assert_allclose(params.A, 0.0, atol=1e-12)
        np.testing.assert_allclose(params.B, 0.0, atol=1e-12)

    def test_latent_initialized_tiny(self):
        scheme = SimScheme(dims=(25, 12, 2, 2, 2), seed=0)
        Y, truth = simulate_dataset(scheme)
        params = est.initial_params(Y, truth.cov, 2)
        assert np.all(params.D > 0)
        assert np.all(params.D <= 1e-7)

    def test_m_too_large(self):
        Y = DataMatrix(np.ones((4, 3), dtype=int))
        cov = CovariateSet(np.ones((4, 1)), np.ones((3, 1)))
        with pytest.raises(ShapeError):
            est.initial_params(Y, cov, 3)

    def test_satisfies_orthogonality(self, small_instance):
        Y, truth = small_instance
        params = est.initial_params(Y, truth.cov, 1)
        assert np.abs(truth.cov.Z.T @ params.A).max() < 1e-9
        assert np.abs(truth.cov.X.T @ params.B).max() < 1e-9


class TestBoundedFisherStep:
    def test_stationary_point_unchanged(self):
        rng = np.random.default_rng(1)
        beta = rng.normal(size=4)
        fisher = np.eye(4) * 3.0
        grad = 2.0 * beta  # equals lam * beta
        out = est.bounded_fisher_step(beta, grad, fisher, 2.0, rho=5.0)
        np.testing.assert_allclose(out, beta, atol=1e-14)

    def test_full_step_when_cap_inactive(self):
        beta = np.zeros(3)
        fisher = np.eye(3)
        grad = np.array([0.5, -0.25, 0.1])
        out = est.bounded_fisher_step(beta, grad, fisher, 1.0, rho=5.0)
        np.testing.assert_allclose(out, grad / 2.0)

    @pytest.mark.parametrize("bad", ["grad", "fisher"])
    def test_non_finite_input_raises(self, bad):
        grad, fisher = np.ones(3), np.eye(3)
        if bad == "grad":
            grad[1] = np.nan
        else:
            fisher[2, 2] = np.inf
        with pytest.raises(NumericError):
            est.bounded_fisher_step(np.zeros(3), grad, fisher, np.array([1.0, 2.0, 3.0]), rho=5.0)

    def test_cap_arithmetic(self):
        rho = 5.0
        xi = np.array([10 * rho, 0.0, 0.0, 0.0])
        capped = est._capped(xi[None, :], rho)[0]
        rms = np.linalg.norm(capped) / 2.0
        np.testing.assert_allclose(rms, rho)
        assert capped[0] > 0 and np.all(capped[1:] == 0)


def converged_state(Y, truth, M=1, iters=6):
    params = est.initial_params(Y, truth.cov, M)
    state = est.make_state(Y, truth.cov, params)
    for _ in range(iters):
        for fn in (est.update_a, est.update_b, est.update_c, est.update_d,
                   est.update_g, est.update_h, est.update_s, est.update_t):
            fn(state)
    return state


class TestBlockUpdates:
    @pytest.mark.parametrize("block", ["A", "B"])
    def test_infinite_shrinkage_freezes_a(self, small_instance, block):
        # with its lambda huge the regularized step pins the block at its
        # prior mode; B's step is A's on the transposed problem, so a
        # swapped prior would leave B free
        Y, truth = small_instance
        params = random_constrained_params(truth.cov, 1, seed=0)
        getattr(params, block)[:] = 0.0
        prior = PriorConfig(**{f"lambda_{block.lower()}": 1e12})
        state = est.make_state(Y, truth.cov, params, prior=prior)
        getattr(est, f"update_{block.lower()}")(state)
        assert np.abs(getattr(state.params, block)).max() < 1e-8

    def test_a_step_matches_dense_blockdiagonal_solve(self, small_instance):
        Y, truth = small_instance
        state = converged_state(Y, truth)
        state.refresh()
        p, cov, w = state.params, truth.cov, state.work
        J, K = cov.J, cov.K
        dense = np.zeros((J * K, J * K))
        rhs = np.zeros(J * K)
        for j in range(J):
            block = cov.X.T @ (w.W[:, j:j + 1] * cov.X) + np.eye(K)
            dense[j * K:(j + 1) * K, j * K:(j + 1) * K] = block
            rhs[j * K:(j + 1) * K] = cov.X.T @ w.E[:, j] - p.A[j]
        xi_dense = np.linalg.solve(dense, rhs).reshape(J, K)
        A_before = p.A.copy()
        est.update_a(state)
        # undo the projection to recover the raw per-row steps
        stepped = A_before + xi_dense  # steps small near convergence: cap inactive
        assert np.linalg.norm(xi_dense, axis=1).max() / np.sqrt(K) < 5.0
        Q = cov.Zplus @ stepped
        projected = stepped - cov.Z @ Q
        np.testing.assert_allclose(state.params.A, projected, atol=1e-10)

    def test_c_scalar_reduction(self):
        scheme = SimScheme(dims=(9, 5, 1, 1, 0), seed=2)
        Y, truth = simulate_dataset(scheme)
        state = est.make_state(Y, truth.cov, est.initial_params(Y, truth.cov, 0))
        state.refresh()
        F = est.fisher_c(state.work.W, truth.cov)
        np.testing.assert_allclose(F[0, 0], state.work.W.sum(), rtol=1e-12)

    def test_c_fisher_matches_hessian_in_poisson_limit(self):
        # with tiny dispersion the observed and expected information coincide
        scheme = SimScheme(dims=(6, 4, 2, 2, 0), seed=3)
        Y, truth = simulate_dataset(scheme)
        params = random_constrained_params(truth.cov, 0, seed=3)
        params.S[:] = 0.0
        params.T[:] = 0.0
        params.omega = -27.0  # r ~ 5e11: effectively Poisson
        prior = PriorConfig()
        KL = 4

        def neg_logpost_c(cvec):
            pp = params.copy()
            pp.C = cvec.reshape(2, 2, order="F")
            lp = linear_predictor(pp, truth.cov)
            work = nb.nb_workspace(Y, lp, pp.S, pp.T, pp.omega)
            return -(nb.nb_log_pmf(Y.values, work.mu, work.r).sum()
                     - 0.5 * prior.lambda_c * np.sum(cvec ** 2))

        lp = linear_predictor(params, truth.cov)
        work = nb.nb_workspace(Y, lp, params.S, params.T, params.omega)
        F = est.fisher_c(work.W, truth.cov) + prior.lambda_c * np.eye(KL)
        c0 = params.C.ravel(order="F")
        h = 1e-4
        H = np.zeros((KL, KL))
        for a in range(KL):
            for b in range(KL):
                ea, eb = np.zeros(KL), np.zeros(KL)
                ea[a] = h
                eb[b] = h
                H[a, b] = (neg_logpost_c(c0 + ea + eb) - neg_logpost_c(c0 + ea - eb)
                           - neg_logpost_c(c0 - ea + eb) + neg_logpost_c(c0 - ea - eb)) / (4 * h * h)
        np.testing.assert_allclose(F, H, rtol=1e-3)

    def test_d_fisher_matches_scalar_loop(self, small_fit):
        Y, truth, result = small_fit
        state = est.make_state(Y, truth.cov, result.params.copy())
        state.refresh()
        p, w = state.params, state.work
        F = est.fisher_d(w.W, p.U, p.V)
        scalar = 0.0
        for i in range(truth.cov.I):
            for j in range(truth.cov.J):
                scalar += w.W[i, j] * p.U[i, 0] ** 2 * p.V[j, 0] ** 2
        np.testing.assert_allclose(F[0, 0], scalar, rtol=1e-12)

    def test_d_no_change_at_prior_mode_with_zero_score(self, small_instance):
        Y, truth = small_instance
        params = random_constrained_params(truth.cov, 1, seed=5)
        params.D[:] = 0.0
        state = est.make_state(Y, truth.cov, params)
        state.refresh()
        state.work.E[:] = 0.0  # zero score: gradient vanishes at the prior mode
        grad = np.einsum("im,ij,jm->m", params.U, state.work.E, params.V)
        F = est.fisher_d(state.work.W, params.U, params.V)
        out = est.bounded_fisher_step(params.D, grad, F, 1.0, 5.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_every_block_update_ascends_the_log_posterior(self):
        # each optimization-projection step must not lower the posterior it
        # is taken on; a step on the wrong prior term shows up as a limit
        # cycle in which one block undoes the previous block's change
        scheme = SimScheme(dims=(200, 50, 2, 2, 1), seed=12)
        Y, truth = simulate_dataset(scheme)
        state = converged_state(Y, truth, iters=2)
        updates = dict(zip("ABCDGHST", (
            est.update_a, est.update_b, est.update_c, est.update_d,
            est.update_g, est.update_h, est.update_s, est.update_t)))
        lp = state.log_posterior()
        worst = dict.fromkeys(updates, 0.0)
        for _ in range(10):
            for name, update in updates.items():
                update(state)
                new = state.log_posterior()
                worst[name] = max(worst[name], (lp - new) / (abs(new) + 1.0))
                lp = new
        assert max(worst.values()) <= 1e-7, worst


    def test_every_update_leaves_the_workspace_of_its_params(self):
        # each update reads state.work as the previous one left it, so a
        # step that forgets part of the workspace feeds stale mu or r on
        scheme = SimScheme(dims=(40, 20, 2, 2, 2), seed=31)
        Y, truth = simulate_dataset(scheme)
        state = est.make_state(Y, truth.cov, est.initial_params(Y, truth.cov, 2),
                               prior=ASYMMETRIC_PRIOR)
        updates = dict(zip("ABCDGHST", (
            est.update_a, est.update_b, est.update_c, est.update_d,
            est.update_g, est.update_h, est.update_s, est.update_t)))
        for cycle in range(2):
            for name, update in updates.items():
                update(state)
                p = state.params
                fresh = nb.nb_workspace(Y, linear_predictor(p, truth.cov), p.S, p.T, p.omega)
                for field in ("mu", "r", "W", "E"):
                    np.testing.assert_allclose(getattr(state.work, field), getattr(fresh, field),
                                               rtol=1e-12, atol=0,
                                               err_msg=f"cycle {cycle}, update {name}: {field}")


class TestProjections:
    def test_a_projection_preserves_linpred(self, small_instance):
        Y, truth = small_instance
        rng = np.random.default_rng(7)
        for rep in range(20):
            params = random_constrained_params(truth.cov, 1, seed=rep)
            params.A = params.A + rng.normal(size=params.A.shape)
            state = est.make_state(Y, truth.cov, params)
            before = linear_predictor(state.params, truth.cov)
            est.project_a(state)
            after = linear_predictor(state.params, truth.cov)
            assert np.abs(before - after).max() < 1e-8
            assert np.abs(truth.cov.Z.T @ state.params.A).max() < 1e-8

    def test_g_projection_preserves_linpred(self, small_instance):
        Y, truth = small_instance
        rng = np.random.default_rng(8)
        for rep in range(20):
            params = random_constrained_params(truth.cov, 2, seed=100 + rep)
            G = rng.normal(size=(truth.cov.I, 2)) * 3.0
            state = est.make_state(Y, truth.cov, params)
            base = params.copy()
            base.U, base.D, base.V = G, np.ones(2), params.V
            before = linear_predictor(base, truth.cov)
            est.project_g(state, G)
            after = linear_predictor(state.params, truth.cov)
            assert np.abs(before - after).max() < 1e-8
            assert check_constraints(state.params, truth.cov).passed

    def test_rank_one_svd_identity(self):
        rng = np.random.default_rng(9)
        G = rng.normal(size=(10, 1))
        v = rng.normal(size=(4, 1))
        v /= np.linalg.norm(v)
        U, d, V = est.svd_of_product(G, v)
        np.testing.assert_allclose(np.abs(U[:, 0]), np.abs(G[:, 0]) / np.linalg.norm(G))
        np.testing.assert_allclose(d[0], np.linalg.norm(G))

    def test_s_projection_identity_and_likelihood(self, small_instance):
        Y, truth = small_instance
        params = random_constrained_params(truth.cov, 1, seed=13)
        params.S = params.S + 0.8  # break the constraint
        state = est.make_state(Y, truth.cov, params)
        r_before, _ = nb.inverse_dispersions(params.S, params.T, params.omega)
        est.project_s(state)
        assert abs(np.mean(np.exp(state.params.S)) - 1.0) < 1e-12
        r_after, _ = nb.inverse_dispersions(state.params.S, state.params.T, state.params.omega)
        np.testing.assert_allclose(r_before, r_after, rtol=1e-10)

    def test_projection_composition_idempotent(self, small_instance):
        # projecting an already-constrained state changes nothing
        Y, truth = small_instance
        params = random_constrained_params(truth.cov, 1, seed=21)
        state = est.make_state(Y, truth.cov, params.copy())
        est.project_a(state)
        est.project_b(state)
        est.project_s(state)
        est.project_t(state)
        for name in ("A", "B", "C", "S", "T"):
            np.testing.assert_allclose(
                state.params.blocks()[name], params.blocks()[name], atol=1e-8)


class TestDispersionUpdates:
    def test_newton_branch_taken_on_well_conditioned_instance(self, small_fit):
        Y, truth, result = small_fit
        state = est.make_state(Y, truth.cov, result.params.copy())
        state.refresh()
        derivs = nb.dispersion_derivatives(Y, state.work.mu, state.work.r)
        hess = -state.prior.lambda_s + derivs.delta_prime.sum(axis=1)
        assert np.all(hess < 0)

    def test_mean_exp_one_after_update(self, small_instance):
        Y, truth = small_instance
        params = random_constrained_params(truth.cov, 1, seed=3)
        state = est.make_state(Y, truth.cov, params)
        est.update_s(state)
        assert abs(np.mean(np.exp(state.params.S)) - 1.0) < 1e-12

    def test_adaptive_cap_halves_and_resets(self):
        adapt = est.AdaptiveStepState.fresh(3, 2, 5.0)
        exceeded = np.array([True, False, True])
        adapt.rho_s = np.where(exceeded, adapt.rho_s / 2, 5.0)
        np.testing.assert_allclose(adapt.rho_s, [2.5, 5.0, 2.5])


class TestBiasCorrection:
    def test_large_offsets_nearly_unchanged(self, small_instance):
        Y, truth = small_instance
        params = random_constrained_params(truth.cov, 1, seed=4)
        params.S[:] = 10.0
        state = est.make_state(Y, truth.cov, params)
        s_before = state.params.S.copy()
        state.params.S = -4.0 + np.logaddexp(0.0, state.params.S + 4.0)
        assert np.abs(state.params.S - s_before).max() < np.exp(-14)

    def test_floored_offset_maps_to_log_two(self):
        s = np.array([-4.0])
        out = -4.0 + np.logaddexp(0.0, s + 4.0)
        np.testing.assert_allclose(out, -4.0 + np.log(2.0))

    def test_defaults(self):
        config = FitConfig()
        assert config.s_floor == -4.0 and config.t_floor == -4.0


class TestFit:
    def test_converges_on_seeded_instance(self):
        scheme = SimScheme(dims=(200, 40, 2, 2, 1), seed=77)
        Y, truth = simulate_dataset(scheme)
        result = est.fit(Y, truth.cov, 1)
        assert result.converged
        assert result.iterations <= 50
        assert len(result.trace) == result.iterations + 1
        assert check_constraints(result.params, truth.cov, strict=True).passed

    def test_default_config(self):
        config = FitConfig()
        assert config.rho == 5.0 and config.tol == 1e-6 and config.max_iter == 50
        prior = PriorConfig()
        assert all(getattr(prior, f"lambda_{n}") == 1.0 for n in "abcduvst")

    def test_m_zero_matches_direct_glm_fit(self):
        # with dispersions pinned (huge lambda_s/lambda_t) and vanishing
        # coefficient priors, the M=0 path is a constrained NB GLM with unit
        # inverse dispersion; its maximum likelihood fit is computed directly
        # in the constraint nullspace for comparison.  (With non-negligible
        # priors the projections redistribute prior mass between blocks, so
        # exact agreement holds only in this limit.)
        scheme = SimScheme(dims=(10, 6, 2, 2, 0), seed=6)
        Y, truth = simulate_dataset(scheme)
        cov = truth.cov
        ridge = 1e-6
        prior = PriorConfig(lambda_a=ridge, lambda_b=ridge, lambda_c=ridge,
                            lambda_s=1e12, lambda_t=1e12)
        config = FitConfig(tol=1e-13, max_iter=300)
        result = est.fit(Y, cov, 0, prior, config)
        assert result.params.M == 0 and result.params.D.size == 0
        assert np.abs(result.params.S).max() < 1e-6
        # the final bias correction shifts omega by 2*log(1 + exp(-4))
        assert abs(result.params.omega - 2 * np.log1p(np.exp(-4.0))) < 1e-6

        # orthonormal bases of the constraint nullspaces
        def nullbasis(Q):
            u, _, _ = np.linalg.svd(Q, full_matrices=True)
            return u[:, Q.shape[1]:]

        Nz = nullbasis(cov.Z)   # J x (J - L)
        Nx = nullbasis(cov.X)   # I x (I - K)
        na, nb_ = Nz.shape[1] * cov.K, Nx.shape[1] * cov.L
        KL = cov.K * cov.L

        def unpack(theta):
            A = Nz @ theta[:na].reshape(-1, cov.K)
            B = Nx @ theta[na:na + nb_].reshape(-1, cov.L)
            C = theta[na + nb_:].reshape(cov.K, cov.L, order="F")
            return A, B, C

        def neg_logpost(theta):
            A, B, C = unpack(theta)
            lp = cov.X @ A.T + B @ cov.Z.T + cov.X @ C @ cov.Z.T
            work = nb.nb_workspace(Y, lp, np.zeros(cov.I), np.zeros(cov.J), 0.0)
            val = nb.nb_log_pmf(Y.values, work.mu, work.r).sum()
            val -= 0.5 * ridge * (np.sum(A ** 2) + np.sum(B ** 2) + np.sum(C ** 2))
            gA = work.E.T @ cov.X - ridge * A
            gB = work.E @ cov.Z - ridge * B
            gC = cov.X.T @ work.E @ cov.Z - ridge * C
            grad = np.concatenate([(Nz.T @ gA).ravel(), (Nx.T @ gB).ravel(),
                                   gC.ravel(order="F")])
            return -val, -grad

        theta0 = np.zeros(na + nb_ + KL)
        opt = minimize(neg_logpost, theta0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-11})
        A_opt, B_opt, C_opt = unpack(opt.x)
        np.testing.assert_allclose(result.params.A, A_opt, atol=2e-5)
        np.testing.assert_allclose(result.params.B, B_opt, atol=2e-5)
        np.testing.assert_allclose(result.params.C, C_opt, atol=2e-5)

    def test_truth_init_accepted(self, small_instance):
        Y, truth = small_instance
        result = est.fit(Y, truth.cov, 1, init_params=truth.params0,
                         config=FitConfig(max_iter=3))
        assert result.params.M == 1

    def test_clipped_linear_predictor_counts_clamp_events(self, small_instance):
        # an intercept 720 too high puts every exponent of mu beyond the clip
        Y, truth = small_instance
        params = truth.params0.copy()
        params.C[0, 0] += 720.0
        result = est.fit(Y, truth.cov, 1, init_params=params, config=FitConfig(max_iter=3))
        assert result.clamp_events >= Y.I * Y.J
        assert est.fit(Y, truth.cov, 1, init_params=truth.params0,
                       config=FitConfig(max_iter=3)).clamp_events == 0

    def test_all_zero_counts_flag_vanishing_singular_values(self):
        # no signal drives D to rounding level, where U and V are not
        # determined by the data; the fit must say so, whatever noise X'U carries
        cov = est.prepare_covariates(np.ones((20, 1)), np.ones((10, 1)))
        with pytest.warns(UserWarning, match="constraint tolerance"):
            result = est.fit(DataMatrix(np.zeros((20, 10), dtype=int)), cov, 1)
        assert result.params.D[0] < 1e-8
        assert not result.constraints.d_positive and not result.constraints.passed

    def test_trace_is_monotone_after_transient(self):
        scheme = SimScheme(dims=(120, 30, 2, 2, 1), seed=5)
        Y, truth = simulate_dataset(scheme)
        result = est.fit(Y, truth.cov, 1)
        tr = np.asarray(result.trace)
        reldec = -np.diff(tr) / (np.abs(tr[1:]) + 1.0)
        assert reldec[2:].max(initial=0.0) < 5e-5

    def test_scaling_roughly_linear_in_rows(self):
        import time

        times = {}
        for I in (300, 600):
            scheme = SimScheme(dims=(I, 30, 2, 2, 1), seed=1)
            Y, truth = simulate_dataset(scheme)
            config = FitConfig(tol=1e-300, max_iter=6)
            est.fit(Y, truth.cov, 1, config=config)  # warm-up
            t0 = time.time()
            est.fit(Y, truth.cov, 1, config=config)
            times[I] = time.time() - t0
        assert times[600] / times[300] < 3.5
