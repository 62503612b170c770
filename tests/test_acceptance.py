"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with -v or -s to see them);
a failing criterion reports every violation it found.
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest

from nbgbm import estimation as est
from nbgbm import inference as inf
from nbgbm import nb
from nbgbm.metrics import WeightedSeries, lrse, weighted_moving_average, wmad
from nbgbm.model import (
    DataMatrix,
    FitConfig,
    GbmParams,
    PriorConfig,
    check_constraints,
    linear_predictor,
)
from nbgbm.rngstreams import stream_rng
from nbgbm.simulate import (
    SimScheme,
    align_latent_factors,
    empirical_coverage,
    generate_parameters,
    simulate_dataset,
)

import oracles
from conftest import swapped_prior, transposed_cov, transposed_params
from test_metrics import naive_lrse, naive_wma, naive_wmad


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def fit_and_infer(scheme, replicate=0, prior=None, config=None):
    Y, truth = simulate_dataset(scheme, replicate=replicate)
    result = est.fit(Y, truth.cov, scheme.dims[4], prior=prior, config=config)
    ser = inf.standard_errors(Y, result.params, truth.cov, prior or PriorConfig())
    return Y, truth, result, ser


def pooled_coverage(schemes, blocks, level):
    """Empirical coverage per block pooled over replicates and entries."""
    pools = {name: ([], [], []) for name in blocks}
    for scheme in schemes:
        _, truth, result, ser = fit_and_infer(scheme)
        aligned = align_latent_factors(result.params, truth.params0)
        for name in blocks:
            e = np.atleast_2d(aligned.blocks()[name]).astype(float)
            s = np.atleast_2d(ser.blocks()[name]).reshape(e.shape)
            t = np.atleast_2d(truth.params0.blocks()[name]).astype(float)
            mask = np.ones(e.shape, dtype=bool)
            if name == "C":
                mask[0, 0] = False  # the overall intercept is excluded
            pools[name][0].append(e[mask])
            pools[name][1].append(s[mask])
            pools[name][2].append(t[mask])
    out = {}
    for name, (es, ss, ts) in pools.items():
        e, s, t = (np.concatenate(v) for v in (es, ss, ts))
        out[name] = {lv: empirical_coverage(e, s, t, lv) for lv in level}
    return out


# ---------------------------------------------------------------------------
# 1. projection invariance
# ---------------------------------------------------------------------------

def test_criterion_01_projection_invariance():
    scheme = SimScheme(dims=(25, 10, 2, 2, 2), seed=0)
    _, truth = simulate_dataset(scheme)
    Y = DataMatrix(np.ones((25, 10), dtype=int))
    cov = truth.cov
    failures = []
    n_states = 200
    rng = np.random.default_rng(1)
    for k in range(n_states):
        params = generate_parameters(cov, 2, "Normal", stream_rng(k, "parameters"))

        def check(label, state, before):
            after = linear_predictor(state.params, cov)
            gap = np.abs(before - after).max()
            rep = check_constraints(state.params, cov)
            if gap >= 1e-8 or not rep.passed:
                failures.append((label, k, gap, rep.passed))

        state = est.make_state(Y, cov, params.copy())
        state.params.A += rng.normal(size=params.A.shape)
        before = linear_predictor(state.params, cov)
        est.project_a(state)
        check("A", state, before)

        state = est.make_state(Y, cov, params.copy())
        state.params.B += rng.normal(size=params.B.shape)
        before = linear_predictor(state.params, cov)
        est.project_b(state)
        check("B", state, before)

        G = rng.normal(size=(cov.I, 2)) * 2.0
        state = est.make_state(Y, cov, params.copy())
        pre = params.copy()
        pre.U, pre.D = G, np.ones(2)
        before = linear_predictor(pre, cov)
        est.project_g(state, G)
        check("G", state, before)

        H = rng.normal(size=(cov.J, 2)) * 2.0
        state = est.make_state(Y, cov, params.copy())
        pre = params.copy()
        pre.V, pre.D = H, np.ones(2)
        before = linear_predictor(pre, cov)
        est.project_h(state, H)
        check("H", state, before)

        # dispersion projections must preserve every inverse dispersion
        state = est.make_state(Y, cov, params.copy())
        state.params.S += rng.normal(size=params.S.shape) * 0.5
        r_before, _ = nb.inverse_dispersions(state.params.S, state.params.T,
                                             state.params.omega)
        est.project_s(state)
        r_after, _ = nb.inverse_dispersions(state.params.S, state.params.T,
                                            state.params.omega)
        gap = np.abs(r_before - r_after).max()
        if gap >= 1e-8 or abs(np.mean(np.exp(state.params.S)) - 1.0) > 1e-8:
            failures.append(("S", k, gap, True))

        state = est.make_state(Y, cov, params.copy())
        state.params.T += rng.normal(size=params.T.shape) * 0.5
        r_before, _ = nb.inverse_dispersions(state.params.S, state.params.T,
                                             state.params.omega)
        est.project_t(state)
        r_after, _ = nb.inverse_dispersions(state.params.S, state.params.T,
                                            state.params.omega)
        gap = np.abs(r_before - r_after).max()
        if gap >= 1e-8 or abs(np.mean(np.exp(state.params.T)) - 1.0) > 1e-8:
            failures.append(("T", k, gap, True))

    assert not failures, f"projection violations: {failures[:10]}"
    report("1 projection invariance (200 states x 6 projections)")


# ---------------------------------------------------------------------------
# 2. derivative oracles
# ---------------------------------------------------------------------------

def loglik_of(params, cov, Y):
    lp = linear_predictor(params, cov)
    work = nb.nb_workspace(Y, lp, params.S, params.T, params.omega)
    return float(nb.nb_log_pmf(Y.values, work.mu, work.r).sum())


def test_criterion_02_derivative_oracles():
    h = 1e-5
    worst_grad, worst_hess = 0.0, 0.0
    for seed in range(3):
        scheme = SimScheme(dims=(5, 4, 2, 2, 1), seed=seed)
        Y, truth = simulate_dataset(scheme)
        params, cov = truth.params0, truth.cov
        lp = linear_predictor(params, cov)
        work = nb.nb_workspace(Y, lp, params.S, params.T, params.omega)
        E = work.E
        VD = params.V * params.D
        UD = params.U * params.D
        grads = {
            "A": E.T @ cov.X,
            "B": E @ cov.Z,
            "C": cov.X.T @ E @ cov.Z,
            "D": np.einsum("im,ij,jm->m", params.U, E, params.V),
            "U": E @ VD,
            "V": E.T @ UD,
        }

        def fd_block(name):
            block = params.blocks()[name]
            out = np.zeros_like(block, dtype=float)
            for idx in np.ndindex(*block.shape):
                pp1, pp2 = params.copy(), params.copy()
                pp1.blocks()[name][idx] += h
                pp2.blocks()[name][idx] -= h
                out[idx] = (loglik_of(pp1, cov, Y) - loglik_of(pp2, cov, Y)) / (2 * h)
            return out

        for name, grad in grads.items():
            fd = fd_block(name)
            scale = max(np.abs(fd).max(), 1.0)
            worst_grad = max(worst_grad, np.abs(np.asarray(grad) - fd).max() / scale)

        derivs = nb.dispersion_derivatives(Y, work.mu, work.r)
        h2 = 3e-4  # second differences need a larger step to beat roundoff
        for i in range(cov.I):
            pp1, pp2 = params.copy(), params.copy()
            pp1.S[i] += h
            pp2.S[i] -= h
            fd1 = (loglik_of(pp1, cov, Y) - loglik_of(pp2, cov, Y)) / (2 * h)
            pp1.S[i] = params.S[i] + h2
            pp2.S[i] = params.S[i] - h2
            fd2 = (loglik_of(pp1, cov, Y) - 2 * loglik_of(params, cov, Y)
                   + loglik_of(pp2, cov, Y)) / h2 ** 2
            g, hh = derivs.delta[i].sum(), derivs.delta_prime[i].sum()
            worst_grad = max(worst_grad, abs(fd1 - g) / max(abs(g), 1.0))
            worst_hess = max(worst_hess, abs(fd2 - hh) / max(abs(hh), 1.0))
        for j in range(cov.J):
            pp1, pp2 = params.copy(), params.copy()
            pp1.T[j] += h
            pp2.T[j] -= h
            fd1 = (loglik_of(pp1, cov, Y) - loglik_of(pp2, cov, Y)) / (2 * h)
            pp1.T[j] = params.T[j] + h2
            pp2.T[j] = params.T[j] - h2
            fd2 = (loglik_of(pp1, cov, Y) - 2 * loglik_of(params, cov, Y)
                   + loglik_of(pp2, cov, Y)) / h2 ** 2
            g, hh = derivs.delta[:, j].sum(), derivs.delta_prime[:, j].sum()
            worst_grad = max(worst_grad, abs(fd1 - g) / max(abs(g), 1.0))
            worst_hess = max(worst_hess, abs(fd2 - hh) / max(abs(hh), 1.0))
    assert worst_grad < 1e-5, worst_grad
    assert worst_hess < 1e-4, worst_hess
    report(f"2 derivative oracles (grad err {worst_grad:.1e}, hess err {worst_hess:.1e})")


# ---------------------------------------------------------------------------
# 3. bordered-inverse leading-block identity
# ---------------------------------------------------------------------------

def test_criterion_03_bordered_leading_block_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 31))
        k = int(rng.integers(1, min(11, d)))
        Q = rng.normal(size=(d, d))
        F = Q @ Q.T + d * np.eye(d)
        J = rng.normal(size=(k, d))

        def lead(Fmat):
            big = np.zeros((d + k, d + k))
            big[:d, :d] = Fmat
            big[:d, d:] = J.T
            big[d:, :d] = J
            return np.linalg.inv(big)[:d, :d]

        lhs, rhs = lead(F), lead(F + J.T @ J)
        worst = max(worst, np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), 1e-300))
    assert worst < 1e-9, worst
    report(f"3 bordered leading-block identity (100 pairs, worst {worst:.1e})")


# ---------------------------------------------------------------------------
# 4. joint latent uncertainty against dense oracle
# ---------------------------------------------------------------------------

def test_criterion_04_joint_uv_oracle():
    worst = 0.0
    for M in (1, 2):
        scheme = SimScheme(dims=(12, 8, 2, 2, M), seed=40 + M)
        Y, truth = simulate_dataset(scheme)
        result = est.fit(Y, truth.cov, M)
        prior = PriorConfig()
        pieces = inf.preprocess(Y, result.params, truth.cov, prior)
        varU, varV = inf.joint_uv_uncertainty(pieces)
        oU, oV = oracles.joint_uv_dense_oracle(pieces)
        worst = max(worst,
                    np.abs(varU / oU - 1.0).max(),
                    np.abs(varV / oV - 1.0).max())
    assert worst < 1e-8, worst
    report(f"4 joint (U,V) dense-oracle agreement (worst rel {worst:.1e})")


# ---------------------------------------------------------------------------
# 5. delta-propagation Jacobians against finite differences
# ---------------------------------------------------------------------------

def test_criterion_05_delta_propagation_jacobians():
    scheme = SimScheme(dims=(10, 6, 2, 2, 1), seed=11)
    Y, truth = simulate_dataset(scheme)
    result = est.fit(Y, truth.cov, 1)
    params, cov = result.params, truth.cov
    prior = PriorConfig()
    pieces = inf.preprocess(Y, params, cov, prior)
    h = 1e-5
    rng = np.random.default_rng(3)
    M, I, J, K, L = params.M, cov.I, cov.J, cov.K, cov.L
    worst = {}

    def workspace_of(pp):
        lp = linear_predictor(pp, cov)
        return nb.nb_workspace(Y, lp, pp.S, pp.T, pp.omega)

    def h_a(pp, j):
        w = workspace_of(pp)
        Fj = cov.X.T @ (w.W[:, j:j + 1] * cov.X) + prior.lambda_a * np.eye(K)
        return pp.A[j] + np.linalg.solve(Fj, cov.X.T @ w.E[:, j])

    def h_b(pp, i):
        w = workspace_of(pp)
        Fi = cov.Z.T @ (w.W[i][:, None] * cov.Z) + prior.lambda_b * np.eye(L)
        return pp.B[i] + np.linalg.solve(Fi, cov.Z.T @ w.E[i])

    def h_c(pp):
        w = workspace_of(pp)
        F = est.fisher_c(est._row_fisher_blocks(w.W, cov.X), cov.Z)
        F += prior.lambda_c * np.eye(K * L)
        g = (cov.X.T @ w.E @ cov.Z).ravel(order="F")
        return pp.C.ravel(order="F") + np.linalg.solve(F, g)

    def h_s(pp):
        w = workspace_of(pp)
        dv = nb.dispersion_derivatives(Y, w.mu, w.r)
        grad = -prior.lambda_s * (pp.S - prior.m_s) + dv.delta.sum(axis=1)
        return pp.S + grad / (prior.lambda_s - dv.delta_prime.sum(axis=1))

    def h_t(pp):
        w = workspace_of(pp)
        dv = nb.dispersion_derivatives(Y, w.mu, w.r)
        grad = -prior.lambda_t * (pp.T - prior.m_t) + dv.delta.sum(axis=0)
        return pp.T + grad / (prior.lambda_t - dv.delta_prime.sum(axis=0))

    def fd(fn, block, idx, *args):
        pp1, pp2 = params.copy(), params.copy()
        pp1.blocks()[block][idx] += h
        pp2.blocks()[block][idx] -= h
        return (fn(pp1, *args) - fn(pp2, *args)) / (2 * h)

    def record(edge, analytic, numeric):
        scale = max(np.abs(numeric).max(), 1e-8)
        err = np.abs(analytic - numeric).max() / scale
        worst[edge] = max(worst.get(edge, 0.0), err)

    work = inf._workspace(pieces)
    Q, P = inf._score_sensitivities(work.W, work.E, work.mu, work.r)
    VD, UD = params.V * params.D, params.U * params.D
    dS_U = oracles.dispersion_jacobian_same_axis(Q, P, VD, pieces.invFs, pieces.gradS)
    dS_V = oracles.dispersion_jacobian_other_axis(Q, P, UD, pieces.invFs, pieces.gradS)
    dS_A = oracles.dispersion_jacobian_other_axis(Q, P, cov.X, pieces.invFs, pieces.gradS)
    dS_B = oracles.dispersion_jacobian_same_axis(Q, P, cov.Z, pieces.invFs, pieces.gradS)
    Qt, Pt = Q.T, P.T
    dT_V = oracles.dispersion_jacobian_same_axis(Qt, Pt, UD, pieces.invFt, pieces.gradT)
    dT_U = oracles.dispersion_jacobian_other_axis(Qt, Pt, VD, pieces.invFt, pieces.gradT)
    # A rows share the transposed data's row index, B rows its column index
    dT_A = oracles.dispersion_jacobian_same_axis(Qt, Pt, cov.X, pieces.invFt, pieces.gradT)
    dT_B = oracles.dispersion_jacobian_other_axis(Qt, Pt, cov.Z, pieces.invFt, pieces.gradT)
    # B edges are A edges of the problem for Y'; its C is C'
    flipped = inf.preprocess(DataMatrix(Y.values.T), transposed_params(params),
                             transposed_cov(cov), swapped_prior(prior))
    dA_eta = oracles.coef_eta_jacobian(pieces)
    dB_eta = oracles.coef_eta_jacobian(flipped)
    dC_A = oracles.interaction_jacobian_from_a(pieces)
    dC_B = oracles.interaction_jacobian_from_a(flipped)

    for _ in range(20):
        i, j = int(rng.integers(I)), int(rng.integers(J))
        m, k, ell = int(rng.integers(M)), int(rng.integers(K)), int(rng.integers(L))

        # (U, V) -> A
        record("uv->a", dA_eta[j, :, i] * VD[j, m], fd(h_a, "U", (i, m), j))
        record("uv->a", dA_eta[j] @ UD[:, m], fd(h_a, "V", (j, m), j))

        # (U, V) -> B
        record("uv->b", dB_eta[i, :, j] * UD[i, m], fd(h_b, "V", (j, m), i))
        record("uv->b", dB_eta[i] @ VD[:, m], fd(h_b, "U", (i, m), i))

        # A -> C and B -> C
        record("a->c", dC_A[j, :, k], fd(h_c, "A", (j, k)))
        record("b->c", dC_B[i, :, ell].reshape(K, L).ravel(order="F"),
               fd(h_c, "B", (i, ell)))

        # everything -> S
        full = np.zeros(I)
        full[i] = dS_U[i, m]
        record("uv->s", full, fd(h_s, "U", (i, m)))
        record("uv->s", dS_V[:, j, m], fd(h_s, "V", (j, m)))
        record("a->s", dS_A[:, j, k], fd(h_s, "A", (j, k)))
        full = np.zeros(I)
        full[i] = dS_B[i, ell]
        record("b->s", full, fd(h_s, "B", (i, ell)))

        # everything -> T
        full = np.zeros(J)
        full[j] = dT_V[j, m]
        record("uv->t", full, fd(h_t, "V", (j, m)))
        record("uv->t", dT_U[:, i, m], fd(h_t, "U", (i, m)))
        full = np.zeros(J)
        full[j] = dT_A[j, k]
        record("a->t", full, fd(h_t, "A", (j, k)))
        record("b->t", dT_B[:, i, ell], fd(h_t, "B", (i, ell)))

    bad = {k: v for k, v in worst.items() if v >= 1e-3}
    assert not bad, f"delta-propagation mismatches: {bad}"
    report("5 delta-propagation Jacobians (worst per edge: "
           + ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items())) + ")")


# ---------------------------------------------------------------------------
# 6. convergence behavior
# ---------------------------------------------------------------------------

def test_criterion_06_convergence():
    failures = []
    for seed in range(25):
        scheme = SimScheme(dims=(200, 50, 2, 2, 1), seed=seed)
        Y, truth = simulate_dataset(scheme)
        result = est.fit(Y, truth.cov, 1)
        trace = np.asarray(result.trace)
        if not result.converged:
            failures.append((seed, "not converged within 50 iterations"))
        decreases = -np.diff(trace) / (np.abs(trace[1:]) + 1.0)
        late = decreases[2:]
        if late.size and late.max() > 1e-6:
            failures.append((seed, f"trace decrease {late.max():.2e} after iteration 2"))
    assert not failures, f"convergence violations: {failures}"
    report("6 convergence on 25 seeded instances")


# ---------------------------------------------------------------------------
# 7. consistency trend
# ---------------------------------------------------------------------------

def test_criterion_07_consistency_trend():
    medians = {}
    for I in (100, 400, 1600):
        mses = []
        for rep in range(20):
            scheme = SimScheme(dims=(I, 50, 2, 2, 1), seed=700 + rep)
            Y, truth = simulate_dataset(scheme)
            result = est.fit(Y, truth.cov, 1)
            aligned = align_latent_factors(result.params, truth.params0)
            from nbgbm.simulate import relative_mse

            mses.append(relative_mse(aligned.A, truth.params0.A))
        medians[I] = float(np.median(mses))
    assert medians[100] > medians[400] > medians[1600], medians
    assert medians[100] / medians[1600] > 4.0, medians
    report(f"7 consistency trend (medians {medians})")


# ---------------------------------------------------------------------------
# 8. coverage calibration
# ---------------------------------------------------------------------------

N_COVERAGE_REPS = 200


def test_criterion_08_coverage_calibration():
    schemes = [SimScheme(dims=(200, 50, 2, 2, 1), seed=8000 + rep)
               for rep in range(N_COVERAGE_REPS)]
    coverage = pooled_coverage(schemes, ("A", "B", "C", "U", "S", "V", "T"),
                               level=(0.95, 0.50))
    failures = []
    for name in ("A", "B", "C", "U", "S"):
        c95, c50 = coverage[name][0.95], coverage[name][0.50]
        if not 0.90 <= c95 <= 0.98:
            failures.append((name, "95%", c95))
        if not 0.42 <= c50 <= 0.58:
            failures.append((name, "50%", c50))
    for name in ("V", "T"):
        c95 = coverage[name][0.95]
        if not 0.85 <= c95 <= 0.99:
            failures.append((name, "95%", c95))
    assert not failures, f"coverage out of band: {failures}; all: {coverage}"
    summary = ", ".join(f"{n} {coverage[n][0.95]:.3f}/{coverage[n][0.50]:.3f}"
                        for n in ("A", "B", "C", "U", "S", "V", "T"))
    report(f"8 coverage calibration ({N_COVERAGE_REPS} reps: {summary})")


# ---------------------------------------------------------------------------
# 9. mock-null p-value uniformity
# ---------------------------------------------------------------------------

def test_criterion_09_mock_null_uniformity():
    pvals = []
    for rep in range(20):
        scheme = SimScheme(dims=(200, 40, 2, 2, 0), seed=9000 + rep)
        Y, truth = simulate_dataset(scheme)
        rng = stream_rng(9000 + rep, "outcomes", 777)
        extra = (rng.random(40) < 0.5).astype(float)
        while extra.std() == 0:
            extra = (rng.random(40) < 0.5).astype(float)
        Zaug = np.column_stack([truth.cov.Z, extra])
        cov_aug = est.prepare_covariates(truth.cov.X, Zaug, standardize=True)
        result = est.fit(Y, cov_aug, 0)
        ser = inf.standard_errors(Y, result.params, cov_aug)
        tests = inf.wald_tests(result.params.B[:, 2], ser.se_B[:, 2])
        pvals.append(tests["p_values"])
    stat = kstest(np.concatenate(pvals), "uniform").statistic
    assert stat < 0.03, stat
    report(f"9 mock-null uniformity (KS distance {stat:.4f})")


# ---------------------------------------------------------------------------
# 10. robustness to the outcome distribution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("outcome", ["LNP", "Poisson"])
def test_criterion_10_robustness(outcome):
    schemes = [SimScheme(outcome=outcome, dims=(200, 50, 2, 2, 1), seed=10_000 + rep)
               for rep in range(N_COVERAGE_REPS)]
    coverage = pooled_coverage(schemes, ("A", "B", "C"), level=(0.95, 0.50))
    failures = []
    for name in ("A", "B", "C"):
        c95, c50 = coverage[name][0.95], coverage[name][0.50]
        if not 0.90 <= c95 <= 0.98:
            failures.append((name, "95%", c95))
        if not 0.42 <= c50 <= 0.58:
            failures.append((name, "50%", c50))
    assert not failures, f"{outcome} coverage out of band: {failures}; all: {coverage}"
    summary = ", ".join(f"{n} {coverage[n][0.95]:.3f}/{coverage[n][0.50]:.3f}"
                        for n in ("A", "B", "C"))
    report(f"10 robustness under {outcome} ({summary})")


# ---------------------------------------------------------------------------
# 11. initialization insensitivity
# ---------------------------------------------------------------------------

def test_criterion_11_initialization_insensitivity():
    from nbgbm.simulate import relative_mse

    # run the optimizer to tight convergence so the comparison reflects the
    # estimator, not the stopping point along the final slow drift
    config = FitConfig(tol=1e-10, max_iter=500)
    failures = []
    for rep in range(10):
        scheme = SimScheme(dims=(200, 50, 2, 2, 1), seed=11_000 + rep)
        Y, truth = simulate_dataset(scheme)
        default = est.fit(Y, truth.cov, 1, config=config)
        warm = est.fit(Y, truth.cov, 1, config=config, init_params=truth.params0)
        for name in ("A", "B", "C", "D", "U", "V", "S", "T", "omega"):
            a = default.params.blocks()[name]
            b = warm.params.blocks()[name]
            gap = relative_mse(a, b)
            if gap >= 1e-4:
                failures.append((rep, name, gap))
    assert not failures, f"initialization-sensitive blocks: {failures}"
    report("11 initialization insensitivity (10 instances, all blocks < 1e-4)")


# ---------------------------------------------------------------------------
# 12. metrics oracles
# ---------------------------------------------------------------------------

def test_criterion_12_metrics_oracles():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n = int(rng.integers(2, 120))
        k = 2 * int(rng.integers(0, 10))
        x = rng.normal(size=n) * 5.0
        w = rng.random(n) + 0.05
        series = WeightedSeries(x, w, k=k)
        np.testing.assert_allclose(weighted_moving_average(series),
                                   naive_wma(x, w, k), atol=1e-12, rtol=1e-12)
        assert lrse(series) == pytest.approx(naive_lrse(x, w, k), abs=1e-12, rel=1e-12)
        assert wmad(series) == pytest.approx(naive_wmad(x, w, k), abs=1e-12, rel=1e-12)
    report("12 metrics oracles (1000 random series)")


# ---------------------------------------------------------------------------
# 13. scaling smoke tests
# ---------------------------------------------------------------------------

def time_best_of(fn, n=3):
    best = np.inf
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_13_scaling():
    config = FitConfig(tol=1e-300, max_iter=6)
    per_iter = {}
    for I in (400, 800):
        scheme = SimScheme(dims=(I, 40, 2, 2, 2), seed=13)
        Y, truth = simulate_dataset(scheme)
        est.fit(Y, truth.cov, 2, config=config)  # warm-up
        per_iter[I] = time_best_of(lambda: est.fit(Y, truth.cov, 2, config=config)) / 6.0
    fit_ratio = per_iter[800] / per_iter[400]
    assert fit_ratio <= 2.5, (per_iter, fit_ratio)

    infer_time = {}
    for J in (40, 80):
        scheme = SimScheme(dims=(300, J, 2, 2, 2), seed=14)
        Y, truth = simulate_dataset(scheme)
        result = est.fit(Y, truth.cov, 2, config=FitConfig(max_iter=8, tol=1e-6))
        inf.standard_errors(Y, result.params, truth.cov)  # warm-up
        infer_time[J] = time_best_of(
            lambda: inf.standard_errors(Y, result.params, truth.cov))
    infer_ratio = infer_time[80] / infer_time[40]
    assert infer_ratio <= 5.0, (infer_time, infer_ratio)
    report(f"13 scaling (fit x{fit_ratio:.2f} for 2x rows, "
           f"inference x{infer_ratio:.2f} for 2x columns)")
