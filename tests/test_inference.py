import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.stats import norm

from nbgbm import estimation as est
from nbgbm import inference as inf
from nbgbm import nb
from nbgbm.exceptions import DomainError, RankError, ShapeError
from nbgbm.model import CovariateSet, DataMatrix, GbmParams, PriorConfig, linear_predictor
from nbgbm.simulate import SimScheme, simulate_dataset

import oracles
from conftest import (ASYMMETRIC_PRIOR, random_constrained_params, swapped_prior, transposed_cov,
                      transposed_params)


@pytest.fixture(scope="module")
def fitted(tiny_fit):
    Y, truth, result = tiny_fit
    prior = PriorConfig()
    pieces = inf.preprocess(Y, result.params, truth.cov, prior)
    return Y, truth, result, prior, pieces


class TestConditionalInverses:
    def test_matches_dense_inversion(self, fitted):
        Y, truth, result, prior, pieces = fitted
        cov = truth.cov
        for j in range(cov.J):
            F = cov.X.T @ (inf._workspace(pieces).W[:, j:j + 1] * cov.X) + np.eye(cov.K)
            np.testing.assert_allclose(pieces.invFa[j], np.linalg.inv(F), atol=1e-10)
        for i in range(cov.I):
            F = cov.Z.T @ (inf._workspace(pieces).W[i][:, None] * cov.Z) + np.eye(cov.L)
            np.testing.assert_allclose(pieces.invFb[i], np.linalg.inv(F), atol=1e-10)

    def test_orthonormal_design_halves(self):
        # unit weights and orthonormal columns: inverse of (I + I) = I/2
        F = np.eye(3) + np.eye(3)
        np.testing.assert_allclose(np.linalg.inv(F), 0.5 * np.eye(3))

    def test_blocks_positive_definite(self, fitted):
        _, _, _, _, pieces = fitted
        for blocks in (pieces.invFa, pieces.invFb, pieces.invFu, pieces.invFv):
            for block in blocks:
                np.testing.assert_allclose(block, block.T, atol=1e-12)
                assert np.linalg.eigvalsh(block).min() > 0
        assert np.linalg.eigvalsh(pieces.invFc).min() > 0
        assert np.all(pieces.invFs > 0) and np.all(pieces.invFt > 0)


class TestConstraintJacobians:
    def test_hand_assembly_rank_one(self):
        rng = np.random.default_rng(0)
        I = 7
        X = np.ones((I, 1))
        u = rng.normal(size=(I, 1))
        u /= np.linalg.norm(u)
        Ju = inf._factor_jacobian(X, u)
        assert Ju.shape == (2, I)
        np.testing.assert_allclose(Ju[0], np.ones(I))
        np.testing.assert_allclose(Ju[1], 2 * u[:, 0])

    def test_zero_factor_zero_symmetric_block(self):
        X = np.ones((5, 2))
        Ju = inf._factor_jacobian(X, np.zeros((5, 2)))
        np.testing.assert_array_equal(Ju[2 * 2:], 0.0)

    def test_matches_finite_difference_of_constraints(self, fitted):
        Y, truth, result, prior, pieces = fitted
        params, cov = result.params, truth.cov
        Ju, _ = oracles.constraint_jacobians(params, cov)
        M, I = params.M, cov.I

        def constraint_value(U):
            return np.concatenate([
                (U.T @ cov.X).ravel(order="F"),
                (U.T @ U - np.eye(M)).ravel(order="F"),
            ])

        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(10):
            direction = rng.normal(size=(I, M))
            fd = (constraint_value(params.U + h * direction)
                  - constraint_value(params.U - h * direction)) / (2 * h)
            analytic = Ju @ direction.ravel()
            np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_independent_rows_are_the_upper_orthonormality_rows(self, M):
        rng = np.random.default_rng(M)
        X, U = rng.normal(size=(9, 2)), rng.normal(size=(9, M))
        full = inf._factor_jacobian(X, U)
        upper = np.ravel_multi_index(np.triu_indices(M), (M, M))
        np.testing.assert_array_equal(inf._factor_jacobian(X, U, independent=True),
                                      full[np.concatenate([np.arange(2 * M), 2 * M + upper])])

    def test_requires_latent_factors(self, fitted):
        Y, truth, result, prior, pieces = fitted
        params = GbmParams.zeros(truth.cov.I, truth.cov.J, 2, 2, 0)
        with pytest.raises(ShapeError):
            oracles.constraint_jacobians(params, truth.cov)


class TestJointUv:
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_matches_dense_bordered_inverse(self, M):
        scheme = SimScheme(dims=(12, 8, 2, 2, M), seed=40 + M)
        Y, truth = simulate_dataset(scheme)
        result = est.fit(Y, truth.cov, M)
        prior = PriorConfig()
        pieces = inf.preprocess(Y, result.params, truth.cov, prior)
        varU, varV = inf.joint_uv_uncertainty(pieces)
        oU, oV = oracles.joint_uv_dense_oracle(pieces)
        np.testing.assert_allclose(varU, oU, rtol=1e-8)
        np.testing.assert_allclose(varV, oV, rtol=1e-8)
        assert np.all(varU > 0) and np.all(varV > 0)

    @pytest.mark.parametrize("M", [1, 2])
    def test_more_columns_than_rows_matches_dense_bordered_inverse(self, M):
        # J > I: V is eliminated first, from the column-side arrays
        scheme = SimScheme(dims=(8, 12, 2, 2, M), seed=40 + M)
        Y, truth = simulate_dataset(scheme)
        result = est.fit(Y, truth.cov, M)
        prior = PriorConfig()
        pieces = inf.preprocess(Y, result.params, truth.cov, prior)
        varU, varV = inf.joint_uv_uncertainty(pieces)
        oU, oV = oracles.joint_uv_dense_oracle(pieces)
        np.testing.assert_allclose(varU, oU, rtol=1e-8)
        np.testing.assert_allclose(varV, oV, rtol=1e-8)

    # odd J pads the packed Schur complement with an identity block; odd J M
    # gives an odd order before padding; I < J eliminates V first
    @pytest.mark.parametrize("dims", [(13, 7, 2, 2, 1), (13, 7, 2, 2, 2), (13, 7, 2, 2, 3),
                                      (11, 9, 2, 2, 3), (9, 13, 2, 2, 1), (7, 11, 2, 1, 2),
                                      (6, 3, 1, 1, 2), (6, 3, 1, 1, 1)])
    def test_packed_solve_matches_dense_bordered_inverse(self, dims):
        Y, truth = simulate_dataset(SimScheme(dims=dims, seed=50 + dims[4]))
        params, cov = truth.params0, truth.cov
        pieces = inf.preprocess(Y, params, cov, PriorConfig())
        varU, varV = inf.joint_uv_uncertainty(pieces)
        oU, oV = oracles.joint_uv_dense_oracle(pieces)
        np.testing.assert_allclose(varU, oU, rtol=1e-8)
        np.testing.assert_allclose(varV, oV, rtol=1e-8)

    def test_row_blocks_of_one_row_agree(self, monkeypatch):
        Y, truth = simulate_dataset(SimScheme(dims=(13, 7, 2, 2, 3), seed=53))
        params, cov = truth.params0, truth.cov
        pieces = inf.preprocess(Y, params, cov, PriorConfig())
        whole = inf.joint_uv_uncertainty(pieces)
        monkeypatch.setattr(inf, "ROW_BLOCK_BYTES", 1)
        for got, want in zip(inf.joint_uv_uncertainty(pieces), whole):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_factor_rows_are_rows_of_the_cross_information(self, n_blocks):
        Y, truth = simulate_dataset(SimScheme(dims=(10, 5, 2, 2, 2), seed=3))
        params, cov = truth.params0, truth.cov
        pieces = inf.preprocess(Y, params, cov, PriorConfig())
        rows, M, J = slice(2, 6), params.M, cov.J
        blocks = np.random.default_rng(4).normal(size=(4, M, M))
        VDt = np.zeros((M, J + 1))                               # one padding column
        VDt[:, :J] = (params.V * params.D).T
        outs = np.empty((n_blocks, 4 * M, (J + 1) * M // n_blocks))
        inf._factor_rows(blocks, inf._workspace(pieces, rows).W, VDt, (params.U * params.D)[rows],
                         outs)
        Fuv = inf.latent_cross_information(pieces, rows).reshape(4, M, J * M)
        want = np.matmul(blocks, Fuv).reshape(4 * M, J * M)
        got = np.hstack(list(outs))
        np.testing.assert_allclose(got[:, :J * M], want, rtol=1e-12, atol=1e-12 * abs(want).max())
        np.testing.assert_array_equal(got[:, J * M:], 0.0)

    def test_packed_factor_inverse_matches_dense(self):
        rng = np.random.default_rng(8)
        n = 10
        Q = rng.normal(size=(n, n))
        S = Q @ Q.T + n * np.eye(n)
        Linv = np.linalg.inv(np.linalg.cholesky(S))
        packed, _ = lapack.dtrttf(S, transr="T", uplo="L")
        rfp = packed.reshape(n // 2, n + 1, order="F")
        inf._packed_inverse_cholesky(rfp, "test matrix")
        np.testing.assert_allclose(inf._packed_inverse_diagonal(rfp), np.diag(np.linalg.inv(S)),
                                   rtol=1e-12)
        y = rng.normal(size=(n, 3))
        for transpose, op in ((False, Linv), (True, Linv.T)):
            top, bottom = np.asfortranarray(y[:n // 2]), np.asfortranarray(y[n // 2:])
            inf._apply_inverse_factor(rfp, top, bottom, transpose=transpose)
            np.testing.assert_allclose(np.vstack([top, bottom]), op @ y, rtol=1e-11, atol=1e-13)

    def test_packed_factor_of_singular_matrix_raises_rank_error(self):
        rfp = np.zeros((2, 5), order="F")
        lapack.dsfrk(4, 1, 1.0, np.ones((4, 1)), 0.0, rfp.ravel(order="F"),
                     transr="T", uplo="L", overwrite_c=1)
        with pytest.raises(RankError):
            inf._packed_inverse_cholesky(rfp, "rank-one matrix")

    def test_memory_holds_one_packed_schur_buffer(self):
        # the packed triangle (JM (JM + 1) / 2 doubles) plus row blocks of 1 MB
        Y, truth = simulate_dataset(SimScheme(dims=(300, 300, 2, 2, 3), seed=2))
        params, cov, prior = truth.params0, truth.cov, PriorConfig()
        pieces = inf.preprocess(Y, params, cov, prior)
        JM = cov.J * params.M
        tracemalloc.start()
        try:
            inf.joint_uv_uncertainty(pieces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        packed = JM * (JM + 1) // 2 * 8
        assert peak <= packed + 3 * 2 ** 20, (peak - packed) / 2 ** 20

    def test_memory_holds_one_schur_buffer(self):
        # the dense route held about seven JM x JM / IM x JM arrays at once
        Y, truth = simulate_dataset(SimScheme(dims=(300, 300, 2, 2, 3), seed=2))
        params, cov, prior = truth.params0, truth.cov, PriorConfig()
        pieces = inf.preprocess(Y, params, cov, prior)
        JM = cov.J * params.M
        tracemalloc.start()
        try:
            inf.joint_uv_uncertainty(pieces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * JM ** 2 * 8, peak / (JM ** 2 * 8)

    @pytest.mark.parametrize("side", ["U", "V"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_factor_in_covariate_span_raises_rank_error(self, side, column):
        # a factor column equal to a covariate column makes an orthogonality
        # row and an orthonormality row of the constraint Jacobian parallel
        Y, truth = simulate_dataset(SimScheme(dims=(12, 8, 2, 2, 2), seed=41))
        cov = truth.cov
        design = cov.X if side == "U" else cov.Z
        factor = getattr(truth.params0, side).copy()
        factor[:, column] = design[:, 1] / np.linalg.norm(design[:, 1])
        params = dataclasses.replace(truth.params0, **{side: factor})
        prior = PriorConfig()
        pieces = inf.preprocess(Y, params, cov, prior)
        with pytest.raises(RankError):
            inf.joint_uv_uncertainty(pieces)

    def test_proposition_leading_submatrix_equality(self):
        # bordering with F versus F + J'J leaves the leading block unchanged
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.integers(3, 31)
            k = int(rng.integers(1, min(11, d)))
            Q = rng.normal(size=(d, d))
            F = Q @ Q.T + d * np.eye(d)
            J = rng.normal(size=(k, d))

            def bordered_inv(Fmat):
                n = d + k
                big = np.zeros((n, n))
                big[:d, :d] = Fmat
                big[:d, d:] = J.T
                big[d:, :d] = J
                return np.linalg.inv(big)[:d, :d]

            lhs = bordered_inv(F)
            rhs = bordered_inv(F + J.T @ J)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_m_zero_empty(self):
        scheme = SimScheme(dims=(8, 5, 2, 2, 0), seed=1)
        Y, truth = simulate_dataset(scheme)
        result = est.fit(Y, truth.cov, 0)
        prior = PriorConfig()
        pieces = inf.preprocess(Y, result.params, truth.cov, prior)
        varU, varV = inf.joint_uv_uncertainty(pieces)
        assert varU.size == 0 and varV.size == 0


class TestPropagation:
    def test_zero_source_variance_gives_zero(self, fitted):
        Y, truth, result, prior, pieces = fitted
        M, cov = result.params.M, truth.cov
        *out, _, _ = inf.propagate_uv_to_ab(pieces, np.zeros(cov.I * M), np.zeros(cov.J * M))
        for vec in out:
            np.testing.assert_array_equal(vec, 0.0)

    def test_outputs_nonnegative(self, fitted):
        Y, truth, result, prior, pieces = fitted
        cov = truth.cov
        varU, varV = inf.joint_uv_uncertainty(pieces)
        *out, HG_a, HG_b = inf.propagate_uv_to_ab(pieces, varU, varV)
        assert all(np.all(v >= 0) for v in out)
        varCa, varCb = inf.propagate_ab_to_c(pieces, HG_a, HG_b,
                                             np.einsum("jkk->jk", pieces.invFa).ravel(),
                                             np.einsum("ill->il", pieces.invFb).ravel())
        assert np.all(varCa >= 0) and np.all(varCb >= 0)

    def test_zero_score_kills_dispersion_edges(self):
        # synthetic exact-mean counts: E = 0, so Q = P = 0 and every
        # dispersion propagation Jacobian vanishes
        scheme = SimScheme(dims=(8, 5, 2, 2, 1), seed=2)
        Y, truth = simulate_dataset(scheme)
        params = truth.params0
        prior = PriorConfig()
        pieces = inf.preprocess(Y, params, truth.cov, prior)
        pieces.y = inf._workspace(pieces).mu
        varA = np.ones(truth.cov.J * 2)
        varB = np.ones(truth.cov.I * 2)
        varU = np.ones(truth.cov.I)
        varV = np.ones(truth.cov.J)
        var_s, var_t = inf.propagate_to_dispersions(pieces, varA, varB, varU, varV)
        for v in var_s.values():
            np.testing.assert_array_equal(v, 0.0)

    def test_transposition_symmetry(self):
        # a fully symmetric instance: I = J, X = Z, symmetric Y and
        # parameters, so the S and T ledgers coincide after relabeling
        rng = np.random.default_rng(5)
        n, K, M = 9, 2, 1
        from nbgbm.simulate import generate_covariates

        X = generate_covariates(n, K, "Normal", rng)
        cov = CovariateSet(X, X)
        A = rng.normal(size=(n, K)) * 0.3
        A -= cov.Z @ (cov.Zplus @ A)
        Csym = rng.normal(size=(K, K))
        Csym = (Csym + Csym.T) / 2.0
        Csym[0, 0] += 3.0
        raw = rng.normal(size=(n, M))
        raw -= X @ np.linalg.solve(X.T @ X, X.T @ raw)
        U = np.linalg.qr(raw)[0]
        s = rng.normal(size=n)
        s -= np.log(np.mean(np.exp(s)))
        params = GbmParams(A=A, B=A.copy(), C=Csym, D=np.array([10.0]),
                           U=U, V=U.copy(), S=s, T=s.copy(), omega=-2.3)
        upper = rng.poisson(np.exp(linear_predictor(params, cov)))
        Y = np.triu(upper) + np.triu(upper, 1).T  # symmetric counts
        prior = PriorConfig()
        pieces = inf.preprocess(DataMatrix(Y), params, cov, prior)
        varU, varV = inf.joint_uv_uncertainty(pieces)
        varA = np.einsum("jkk->jk", pieces.invFa).ravel()
        varB = np.einsum("ill->il", pieces.invFb).ravel()
        var_s, var_t = inf.propagate_to_dispersions(pieces, varA, varB, varU, varV)
        np.testing.assert_allclose(var_s["U"], var_t["V"], rtol=1e-10)
        np.testing.assert_allclose(var_s["V"], var_t["U"], rtol=1e-10)
        np.testing.assert_allclose(var_s["A"], var_t["B"], rtol=1e-10)
        np.testing.assert_allclose(var_s["B"], var_t["A"], rtol=1e-10)


class TestStreamedContractions:
    """The standard errors contract the delta-propagation Jacobians without
    forming them; the contractions of the formed Jacobians must agree."""

    @pytest.fixture(scope="class")
    def case(self):
        Y, truth = simulate_dataset(SimScheme(dims=(40, 25, 3, 2, 2), seed=5))
        params, cov, prior = truth.params0, truth.cov, ASYMMETRIC_PRIOR
        pieces = inf.preprocess(Y, params, cov, prior)
        # the pieces of the problem for Y', whose A-side blocks are B's
        flipped = inf.preprocess(DataMatrix(Y.values.T), transposed_params(params),
                                 transposed_cov(cov), swapped_prior(prior))
        rng = np.random.default_rng(9)
        I, J, K, L, M = cov.I, cov.J, cov.K, cov.L, params.M
        var = {"A": rng.uniform(0.1, 2.0, J * K), "B": rng.uniform(0.1, 2.0, I * L),
               "U": rng.uniform(0.1, 2.0, I * M), "V": rng.uniform(0.1, 2.0, J * M)}
        return pieces, params, cov, var, flipped

    def test_uv_to_ab(self, case):
        pieces, params, cov, var, flipped = case
        UD, VD = params.U * params.D, params.V * params.D
        varU, varV = var["U"].reshape(cov.I, -1), var["V"].reshape(cov.J, -1)
        QA = oracles.coef_eta_jacobian(pieces)                               # J x K x I
        QB = oracles.coef_eta_jacobian(flipped)                              # I x L x J
        want = [
            np.einsum("jki,ji->jk", QA ** 2, VD ** 2 @ varU.T).ravel(),
            np.einsum("jkm,jm->jk", (QA @ UD) ** 2, varV).ravel(),
            np.einsum("ilm,im->il", (QB @ VD) ** 2, varU).ravel(),
            np.einsum("ilj,ij->il", QB ** 2, UD ** 2 @ varV.T).ravel(),
        ]
        got = inf.propagate_uv_to_ab(pieces, var["U"], var["V"])
        for name, g, w in zip(("AfromU", "AfromV", "BfromU", "BfromV"), got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, err_msg=name)

    def test_ab_to_c(self, case):
        pieces, params, cov, var, flipped = case
        K, L = cov.K, cov.L
        want = []
        for side, n, v in ((pieces, cov.J, var["A"]), (flipped, cov.I, var["B"])):
            jac = oracles.interaction_jacobian_from_a(side)
            extra = np.maximum(v.reshape(n, -1) - np.einsum("jkk->jk", side.invFa), 0.0)
            want.append(np.einsum("jck,jkl,jcl->c", jac, side.invFa, jac)
                        + np.einsum("jck,jk->c", jac ** 2, extra))
        want[1] = want[1].reshape(K, L).ravel(order="F")
        # the C-edge blocks come from the A/B pass, under the same chunking
        *_, HG_a, HG_b = inf.propagate_uv_to_ab(pieces, var["U"], var["V"])
        got = inf.propagate_ab_to_c(pieces, HG_a, HG_b, var["A"], var["B"])
        for name, g, w in zip(("CfromA", "CfromB"), got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, err_msg=name)

    def test_to_dispersions(self, case):
        pieces, params, cov, var, _ = case
        UD, VD = params.U * params.D, params.V * params.D
        work = inf._workspace(pieces)
        Q, P = inf._score_sensitivities(work.W, work.E, work.mu, work.r)
        vA, vB = var["A"].reshape(cov.J, -1), var["B"].reshape(cov.I, -1)
        vU, vV = var["U"].reshape(cov.I, -1), var["V"].reshape(cov.J, -1)

        def contract(Q, P, invF, grad, same, other):
            out = {n: np.einsum("im,im->i", oracles.dispersion_jacobian_same_axis(
                Q, P, s, invF, grad) ** 2, v) for n, (s, v) in same.items()}
            out.update({n: np.einsum("ijm,jm->i", oracles.dispersion_jacobian_other_axis(
                Q, P, s, invF, grad) ** 2, v) for n, (s, v) in other.items()})
            return out

        want_s = contract(Q, P, pieces.invFs, pieces.gradS,
                          {"B": (cov.Z, vB), "U": (VD, vU)}, {"A": (cov.X, vA), "V": (UD, vV)})
        want_t = contract(Q.T, P.T, pieces.invFt, pieces.gradT,
                          {"A": (cov.X, vA), "V": (UD, vV)}, {"B": (cov.Z, vB), "U": (VD, vU)})
        var_s, var_t = inf.propagate_to_dispersions(pieces, var["A"], var["B"], var["U"], var["V"])
        for name in "ABUV":
            np.testing.assert_allclose(var_s[name], want_s[name], rtol=1e-12, err_msg=f"S{name}")
            np.testing.assert_allclose(var_t[name], want_t[name], rtol=1e-12, err_msg=f"T{name}")

    # 75-entry chunks cover the 40 x 25 counts in 3-row chunks, the last one
    # ragged, so each stage's sums run over several chunks
    @pytest.mark.parametrize("stage", ["uv_to_ab", "ab_to_c", "to_dispersions"])
    def test_stage_in_ragged_chunks(self, case, monkeypatch, stage):
        monkeypatch.setattr(nb, "CHUNK_ELEMENTS", 75)
        getattr(self, f"test_{stage}")(case)

    def test_coefficient_propagation_builds_each_chunk_workspace_once(self, case, monkeypatch):
        # the A, B and C edges share one workspace per row chunk: 14 chunks here
        pieces, params, cov, var, _ = case
        monkeypatch.setattr(nb, "CHUNK_ELEMENTS", 75)
        builds = []
        build = nb.nb_workspace

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(nb, "nb_workspace", counted)
        *_, HG_a, HG_b = inf.propagate_uv_to_ab(pieces, var["U"], var["V"])
        inf.propagate_ab_to_c(pieces, HG_a, HG_b, var["A"], var["B"])
        assert len(builds) == len(nb.row_chunks(cov.I, cov.J)) == 14


class TestTransposition:
    def test_column_side_joint_stage_is_the_row_side_of_the_transposed_problem(self):
        # I < J eliminates V first from the column-side arrays, W read by
        # column blocks: the variances of the hand-built Y' (I > J, where U
        # is eliminated first) with U and V swapped
        Y, truth = simulate_dataset(SimScheme(dims=(12, 30, 2, 2, 2), seed=7))
        params, cov, prior = truth.params0, truth.cov, ASYMMETRIC_PRIOR
        pieces = inf.preprocess(Y, params, cov, prior)
        flipped = inf.preprocess(DataMatrix(Y.values.T), transposed_params(params),
                                 transposed_cov(cov), swapped_prior(prior))
        varU, varV = inf.joint_uv_uncertainty(pieces)
        varV_t, varU_t = inf.joint_uv_uncertainty(flipped)
        np.testing.assert_allclose(varU, varU_t, rtol=1e-10)
        np.testing.assert_allclose(varV, varV_t, rtol=1e-10)
        state = est.make_state(Y, cov, params.copy())
        chunk = inf._workspace(pieces, cols=slice(3, 9))
        np.testing.assert_array_equal(chunk.mu, state.mu[:, 3:9])
        np.testing.assert_array_equal(chunk.W, state.weights()[0][:, 3:9])
        np.testing.assert_array_equal(chunk.r, state.r[:, 3:9])

    def test_rebuilt_weights_equal_the_workspace(self, small_fit, monkeypatch):
        # mu, r, W and E are built per chunk from y and the parameters: bit
        # for bit the fit's mu and r and the W and E its steps build
        monkeypatch.setattr(nb, "CHUNK_ELEMENTS", 75)
        Y, truth, result = small_fit
        params, cov = result.params, truth.cov
        state = est.make_state(Y, cov, params.copy())
        W, E = state.weights()
        pieces = inf.preprocess(Y, params, cov, ASYMMETRIC_PRIOR)
        np.testing.assert_array_equal(inf._workspace(pieces).mu, state.mu)
        np.testing.assert_array_equal(inf._workspace(pieces).E, E)
        np.testing.assert_array_equal(inf._workspace(pieces).W, W)
        np.testing.assert_array_equal(inf._workspace(pieces).r, state.r)
        for rows in nb.row_chunks(*Y.values.shape):
            chunk = inf._workspace(pieces, rows)
            np.testing.assert_array_equal(chunk.W, state.weights(rows)[0])
            np.testing.assert_array_equal(chunk.r, state.r[rows])

    def test_derived_eta_derivatives(self, small_fit):
        Y, truth, result = small_fit
        pieces = inf.preprocess(Y, result.params, truth.cov, ASYMMETRIC_PRIOR)
        work = inf._workspace(pieces)
        mu, r, y = work.mu, work.r, Y.values
        dWM = mu * r ** 2 / (r + mu) ** 2
        dEM = -mu * r * (r + y) / (r + mu) ** 2
        flipped = inf.preprocess(DataMatrix(Y.values.T), transposed_params(result.params),
                                 transposed_cov(truth.cov), swapped_prior(ASYMMETRIC_PRIOR))
        np.testing.assert_allclose(inf._eta_derivatives(pieces)[0], dWM, rtol=1e-12)
        np.testing.assert_allclose(inf._eta_derivatives(pieces)[1], dEM, rtol=1e-12)
        np.testing.assert_allclose(inf._eta_derivatives(flipped)[0], dWM.T, rtol=1e-12)
        np.testing.assert_allclose(inf._eta_derivatives(flipped)[1], dEM.T, rtol=1e-12)


class TestChunkedMemory:
    """preprocess and standard_errors hold no I x J array whole: every I x J
    quantity, the workspace mu, r, W, E included, is built one row chunk at
    a time."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # small chunks, and joint (U, V) row blocks of one row, so that
        # what remains of the peaks is whole I x J arrays (the joint stage's
        # own bound is test_memory_holds_one_schur_buffer)
        monkeypatch.setattr(nb, "CHUNK_ELEMENTS", 1000)
        monkeypatch.setattr(inf, "ROW_BLOCK_BYTES", 1)

    @pytest.fixture
    def case(self, small_blocks):
        Y, truth = simulate_dataset(SimScheme(dims=(300, 300, 2, 2, 3), seed=2))
        return Y, truth.params0, truth.cov, PriorConfig()

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_preprocess_holds_the_workspace(self, case):
        # the whole-array preprocess held about 18 I x J arrays at once
        Y, params, cov, prior = case
        peak = self.peak(lambda: inf.preprocess(Y, params, cov, prior))
        assert peak <= 6 * cov.I * cov.J * 8, peak / (cov.I * cov.J * 8)

    def test_standard_errors_hold_the_workspace_and_the_schur_buffer(self, case):
        # the whole-array stages held about 13 I x J arrays beside the buffer
        Y, params, cov, prior = case
        JM = min(cov.I, cov.J) * params.M
        peak = self.peak(lambda: inf.standard_errors(Y, params, cov, prior))
        assert peak <= JM ** 2 * 8 + 6 * cov.I * cov.J * 8, \
            (peak - JM ** 2 * 8) / (cov.I * cov.J * 8)

    def test_standard_errors_hold_mu_and_the_packed_buffer(self, case):
        Y, params, cov, prior = case
        JM = min(cov.I, cov.J) * params.M
        packed = JM * (JM + 1) // 2 * 8
        peak = self.peak(lambda: inf.standard_errors(Y, params, cov, prior))
        assert peak <= packed + 2 * cov.I * cov.J * 8, (peak - packed) / (cov.I * cov.J * 8)

    def test_standard_errors_do_not_grow_with_the_counts(self, small_blocks):
        # at a fixed n = min(I, J) M the packed buffer is fixed and every
        # other I x J quantity chunk-sized, so quadrupling I adds well under
        # one I x J array (a stored mu adds about 0.9 of one)
        def extra(dims):
            Y, truth = simulate_dataset(SimScheme(dims=dims, seed=2))
            n = min(dims[:2]) * dims[4]
            peak = self.peak(lambda: inf.standard_errors(Y, truth.params0, truth.cov))
            return peak - n * (n + 1) // 2 * 8

        growth = extra((1200, 300, 2, 2, 1)) - extra((300, 300, 2, 2, 1))
        assert growth < 0.3 * 1200 * 300 * 8, growth / (1200 * 300 * 8)

    def test_pieces_hold_no_array_of_their_own_only_the_counts(self, case):
        Y, params, cov, prior = case
        pieces = inf.preprocess(Y, params, cov, prior)
        data_sized = {f.name: getattr(pieces, f.name) for f in dataclasses.fields(pieces)
                      if np.size(getattr(pieces, f.name)) >= cov.I * cov.J}
        assert sorted(data_sized) == ["y"]
        assert data_sized["y"] is Y.values
        assert pieces.params is params and pieces.cov is cov


class TestStandardErrors:
    def test_all_finite_positive(self, small_fit):
        Y, truth, result = small_fit
        ser = inf.standard_errors(Y, result.params, truth.cov)
        for name, block in ser.blocks().items():
            assert np.all(np.isfinite(block)), name
            assert np.all(block > 0) or block.size == 0, name

    def test_se_at_least_conditional(self, small_fit):
        Y, truth, result = small_fit
        prior = PriorConfig()
        pieces = inf.preprocess(Y, result.params, truth.cov, prior)
        ser = inf.standard_errors(Y, result.params, truth.cov, prior)
        cond_A = np.sqrt(np.einsum("jkk->jk", pieces.invFa))
        assert np.all(ser.se_A >= cond_A - 1e-12)
        cond_S = np.sqrt(pieces.invFs)
        assert np.all(ser.se_S >= cond_S - 1e-12)

    @pytest.mark.parametrize("bad, error", [(-3, "negative"), (np.nan, "non-finite"),
                                            (2.5, "non-integral")])
    def test_counts_outside_the_domain_raise(self, bad, error):
        Y, truth = simulate_dataset(SimScheme(dims=(40, 12, 2, 2, 1), seed=1))
        values = Y.values if isinstance(bad, int) else Y.values.astype(np.float64)
        values[0, 0] = bad
        with pytest.raises(DomainError, match=error):
            inf.standard_errors(values, truth.params0, truth.cov)

    @pytest.mark.parametrize("stage", ["joint_uv_uncertainty", "latent_cross_information",
                                       "propagate_uv_to_ab", "propagate_ab_to_c",
                                       "propagate_to_dispersions"])
    def test_stages_take_the_fitted_model_only_from_the_pieces(self, stage):
        # parameters or covariates passed beside the pieces could differ from
        # theirs, and the stage would mix two models without an error
        names = list(inspect.signature(getattr(inf, stage)).parameters)
        assert names[0] == "pieces" and not {"params", "cov"} & set(names), names

    def test_rounding_level_variances_of_either_sign_are_zeroed(self, small_fit, monkeypatch):
        # a factor entry the constraints fix has joint variance 0 up to
        # rounding, which may fall on either side of 0; a positive one was
        # kept, and its SE read 2.2e-10 instead of 0
        Y, truth, result = small_fit
        joint_uv = inf._joint_uv

        def rounded(*args):
            varU, varV = joint_uv(*args)
            varV[:3] = (5e-20, -5e-20, 0.0)
            return varU, varV

        monkeypatch.setattr(inf, "_joint_uv", rounded)
        with pytest.warns(UserWarning, match="V is zero up to rounding at 3 entries"):
            ser = inf.standard_errors(Y, result.params, truth.cov)
        assert np.all(ser.se_V.ravel()[:3] == 0.0)
        assert np.all(ser.se_V.ravel()[3:] > 0.0)

    def test_no_se_for_singular_values_or_global_dispersion(self, small_fit):
        Y, truth, result = small_fit
        ser = inf.standard_errors(Y, result.params, truth.cov)
        assert set(ser.blocks()) == {"A", "B", "C", "U", "V", "S", "T"}

    def test_m_zero_matches_full_fisher_for_interactions(self):
        # with no latent factors and heavily shrunk nuisance coefficient
        # blocks, the propagated interaction SEs approach the classical
        # bordered full-Fisher values
        scheme = SimScheme(dims=(50, 10, 2, 2, 0), seed=14)
        Y, truth = simulate_dataset(scheme)
        prior = PriorConfig(lambda_a=1e6, lambda_b=1e6)
        result = est.fit(Y, truth.cov, 0, prior=prior)
        ser = inf.standard_errors(Y, result.params, truth.cov, prior)
        oracle = oracles.full_fisher_variances(Y, result.params, truth.cov, prior)
        np.testing.assert_allclose(ser.se_C, np.sqrt(oracle["C"]), rtol=0.05)


class TestWaldTests:
    def test_zero_estimate(self):
        out = inf.wald_tests(np.array([0.0]), np.array([2.0]), level=0.95)
        np.testing.assert_allclose(out["p_values"], 1.0)
        np.testing.assert_allclose(out["ci_lower"], -out["ci_upper"])

    def test_reference_quantiles(self):
        out = inf.wald_tests(np.array([1.96]), np.array([1.0]), level=0.95)
        assert abs(out["p_values"][0] - 0.05) < 1e-3
        assert abs(out["ci_lower"][0]) < 1e-3
        out = inf.wald_tests(np.array([0.5]), np.array([1.0]))
        assert abs(out["p_values"][0] - 0.6171) < 1e-4

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    def test_matches_scipy_stats(self, level):
        rng = np.random.default_rng(5)
        estimates = np.concatenate([[0.0, -0.0, 40.0, -40.0, 1e-300], rng.normal(size=2000) * 3])
        ses = np.concatenate([[1.0, 1.0, 1.0, 1.0, 1.0], np.exp(rng.normal(size=2000))])
        out = inf.wald_tests(estimates, ses, level=level)
        z = norm.ppf(0.5 + level / 2.0)
        assert np.array_equal(out["p_values"], 2.0 * norm.sf(np.abs(estimates / ses)))
        assert np.array_equal(out["ci_lower"], estimates - z * ses)
        assert np.array_equal(out["ci_upper"], estimates + z * ses)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            inf.wald_tests(np.array([1.0]), np.array([0.0]))
        with pytest.raises(DomainError):
            inf.wald_tests(np.array([1.0]), np.array([1.0]), level=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_standard_errors(self, bad):
        # a NaN SE gave a NaN p-value and interval, an infinite one p = 1 and
        # the interval (-inf, inf)
        with pytest.raises(DomainError, match="finite and positive"):
            inf.wald_tests(np.array([1.0, 2.0]), np.array([1.0, bad]))


class TestFullFisherOracle:
    def test_dispersion_cross_information_is_zero(self):
        # E[(Y - mu)/(r + mu)^2] = 0 under the model: verified by exact
        # truncated summation of the pmf
        mu, r = 4.0, 2.0
        y = np.arange(0, 5000)
        pmf = np.exp(nb.nb_log_pmf(y, mu, r))
        cross = np.sum(pmf * (y - mu) / (r + mu) ** 2)
        assert abs(cross) < 1e-10

    def test_uv_block_consistent_with_joint_route(self):
        scheme = SimScheme(dims=(12, 8, 2, 2, 1), seed=44)
        Y, truth = simulate_dataset(scheme)
        result = est.fit(Y, truth.cov, 1)
        prior = PriorConfig()
        pieces = inf.preprocess(Y, result.params, truth.cov, prior)
        varU, varV = inf.joint_uv_uncertainty(pieces)
        oU, oV = oracles.joint_uv_dense_oracle(pieces)
        np.testing.assert_allclose(varU, oU, rtol=1e-6)
        np.testing.assert_allclose(varV, oV, rtol=1e-6)

    def test_bordered_matrix_symmetric_variances_positive(self, fitted):
        Y, truth, result, prior, pieces = fitted
        out = oracles.full_fisher_variances(Y, result.params, truth.cov, prior)
        for name in ("A", "B", "C", "U", "V"):
            assert np.all(np.isfinite(out[name]))
