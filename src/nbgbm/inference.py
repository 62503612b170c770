"""Approximate standard errors for fitted models.

Three ingredients:

1. Conditional uncertainty: per-block inverse Fisher information treating
   every other block as known.  Alone, this understates the uncertainty of
   A, B, C, S, T whenever latent factors are present.
2. Joint latent uncertainty: variances for U and V come from the diagonal
   of the inverse constraint-augmented (bordered) Fisher information for
   (U, V) jointly, on the independent constraint rows.  Two Cholesky
   eliminations of the constraints solve it: one for U on its block-diagonal
   Fisher information, one for V on the Schur complement that remains, so
   the cost is O(I J^2 M^3 + J^3 M^3) instead of a dense inversion over both
   factors.
3. Delta propagation: the extra variance of A, B (from U, V), of C (from
   A, B), and of S, T (from A, B, U, V), obtained by differentiating each
   block's one-step Fisher-scoring map through the source block and
   contracting the Jacobian with the source variances (diagonal, except
   that the C edges contract with the per-row conditional inverse blocks).

Every B, V and T quantity of steps 1 and 3 is its A, U or S twin computed
on InferencePieces.transposed(), the pieces of the problem for Y' (X and Z,
A and B, U and V, S and T swapped, C turned into C').

No standard errors are produced for D or the global log-dispersion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from . import nb
from .estimation import _row_fisher_blocks, fisher_c
from .exceptions import DomainError, RankError, ShapeError, SizeGuardError
from .model import CovariateSet, GbmParams, PriorConfig, linear_predictor

FULL_FISHER_GUARD = 2000


@dataclass
class InferencePieces:
    """Workspace, scores, score derivatives, and conditional inverses."""

    W: np.ndarray
    E: np.ndarray
    mu: np.ndarray
    r: np.ndarray
    dWM: np.ndarray          # d w_ij / d linpred_ij
    dEM: np.ndarray          # d e_ij / d linpred_ij
    gradA: np.ndarray        # J x K likelihood score rows
    gradB: np.ndarray        # I x L
    gradC: np.ndarray        # K x L
    gradS: np.ndarray        # length I log-posterior score
    gradT: np.ndarray        # length J
    Fu: np.ndarray           # (I, M, M) regularized
    Fv: np.ndarray           # (J, M, M) regularized
    invFa: np.ndarray        # (J, K, K)
    invFb: np.ndarray        # (I, L, L)
    invFc: np.ndarray        # (KL, KL)
    invFu: np.ndarray        # (I, M, M)
    invFv: np.ndarray        # (J, M, M)
    invFs: np.ndarray        # length I
    invFt: np.ndarray        # length J

    def transposed(self) -> "InferencePieces":
        """The pieces for Y', sharing the arrays; invFc goes to vec(C') order."""
        K, L = self.gradC.shape
        return InferencePieces(
            W=self.W.T, E=self.E.T, mu=self.mu.T, r=self.r.T, dWM=self.dWM.T, dEM=self.dEM.T,
            gradA=self.gradB, gradB=self.gradA, gradC=self.gradC.T,
            gradS=self.gradT, gradT=self.gradS, Fu=self.Fv, Fv=self.Fu,
            invFa=self.invFb, invFb=self.invFa,
            invFc=self.invFc.reshape(L, K, L, K).transpose(1, 0, 3, 2).reshape(K * L, K * L),
            invFu=self.invFv, invFv=self.invFu, invFs=self.invFt, invFt=self.invFs,
        )


def preprocess(Y, params: GbmParams, cov: CovariateSet, prior: PriorConfig) -> InferencePieces:
    """One pass computing every reusable quantity of the inference algorithm."""
    values = Y.values if hasattr(Y, "values") else np.asarray(Y)
    linpred = linear_predictor(params, cov)
    work = nb.nb_workspace(values, linpred, params.S, params.T, params.omega)
    mu, r, W, E = work.mu, work.r, work.W, work.E
    dWM = mu * r ** 2 / (r + mu) ** 2
    dEM = -mu * r * (r + values) / (r + mu) ** 2
    derivs = nb.dispersion_derivatives(values, mu, r)
    gradS = -prior.lambda_s * (params.S - prior.m_s) + derivs.delta.sum(axis=1)
    gradT = -prior.lambda_t * (params.T - prior.m_t) + derivs.delta.sum(axis=0)

    X, Z = cov.X, cov.Z
    invFa = np.linalg.inv(_row_fisher_blocks(W, X) + prior.lambda_a * np.eye(cov.K))
    invFb = np.linalg.inv(_row_fisher_blocks(W.T, Z) + prior.lambda_b * np.eye(cov.L))
    invFc = np.linalg.inv(fisher_c(W, cov) + prior.lambda_c * np.eye(cov.K * cov.L))
    Fu = _row_fisher_blocks(W.T, params.V * params.D) + prior.lambda_u * np.eye(params.M)
    Fv = _row_fisher_blocks(W, params.U * params.D) + prior.lambda_v * np.eye(params.M)

    def observed_inv(lam, second_deriv_sums, label):
        denom = lam - second_deriv_sums
        bad = denom <= 0
        if np.any(bad):
            warnings.warn(
                f"observed information for {label} not positive at entries "
                f"{np.flatnonzero(bad).tolist()}; using absolute value"
            )
            denom = np.where(bad, np.abs(denom), denom)
        return 1.0 / denom

    invFs = observed_inv(prior.lambda_s, derivs.delta_prime.sum(axis=1), "S")
    invFt = observed_inv(prior.lambda_t, derivs.delta_prime.sum(axis=0), "T")
    return InferencePieces(
        W=W, E=E, mu=mu, r=r, dWM=dWM, dEM=dEM,
        gradA=E.T @ X, gradB=E @ Z, gradC=X.T @ E @ Z,
        gradS=gradS, gradT=gradT,
        Fu=Fu, Fv=Fv, invFa=invFa, invFb=invFb, invFc=invFc,
        invFu=np.linalg.inv(Fu), invFv=np.linalg.inv(Fv), invFs=invFs, invFt=invFt,
    )


# ---------------------------------------------------------------------------
# constraint Jacobians and the joint (U, V) system
# ---------------------------------------------------------------------------

@dataclass
class ConstraintJacobians:
    """Jacobians of the orthogonality-to-covariates and orthonormality
    constraints, columns ordered like vec(U') / vec(V') (factor index fastest)."""

    Ju: np.ndarray   # (M K + M^2) x (I M)
    Jv: np.ndarray   # (M L + M^2) x (J M)


def _factor_jacobian(design: np.ndarray, factor: np.ndarray) -> np.ndarray:
    n, K = design.shape
    M = factor.shape[1]
    eye = np.eye(M)
    top = np.einsum("ik,mn->kmin", design, eye).reshape(K * M, n * M)
    bot = (
        np.einsum("ia,mn->amin", factor, eye)
        + np.einsum("an,im->amin", eye, factor)
    ).reshape(M * M, n * M)
    return np.vstack([top, bot])


def constraint_jacobians(params: GbmParams, cov: CovariateSet) -> ConstraintJacobians:
    if params.M == 0:
        raise ShapeError("constraint Jacobians require at least one latent factor")
    return ConstraintJacobians(
        Ju=_factor_jacobian(cov.X, params.U),
        Jv=_factor_jacobian(cov.Z, params.V),
    )


def latent_cross_information(pieces: InferencePieces, params: GbmParams) -> np.ndarray:
    """IM x JM cross information; block (i, j) is w_ij (D V_j)(D U_i)'."""
    DU = params.U * params.D
    DV = params.V * params.D
    I, J = pieces.W.shape
    M = params.M
    return np.einsum("ij,jm,in->imjn", pieces.W, DV, DU, optimize=True).reshape(I * M, J * M)


def _cholesky(mat, label):
    """Lower Cholesky factor of a symmetric positive-definite matrix; RankError
    when it fails or its smallest squared pivot is at most 1e-12 of the largest."""
    try:
        factor = cho_factor(mat, lower=True)
    except np.linalg.LinAlgError:
        raise RankError(f"{label} is not positive definite") from None
    pivots = np.diag(factor[0]) ** 2
    if pivots.min() <= 1e-12 * pivots.max():
        raise RankError(f"{label} is numerically singular")
    return factor


def _constrained_inverse(solve, jac, label):
    """Cov = A^-1 - A^-1 J' (J A^-1 J')^-1 J A^-1, the leading block of the
    inverse of [[A, J'], [J, 0]], for symmetric positive-definite A applied as
    solve(B) = A^-1 B and full-row-rank J (Nocedal & Wright, Numerical
    Optimization, 16.2).  Returns B -> Cov B and the diagonal of the
    subtracted term."""
    AJ = solve(jac.T)
    KAJ = cho_solve(_cholesky(jac @ AJ, label), AJ.T)
    return (lambda B: solve(B) - AJ @ (KAJ @ B)), np.einsum("ik,ki->i", AJ, KAJ)


def joint_uv_uncertainty(pieces: InferencePieces, params: GbmParams, cov: CovariateSet,
                         prior: PriorConfig):
    """Variances of vec(U') and vec(V') from the bordered joint system.

    Keeps the independent constraint rows (orthonormality rows (a, m) and
    (m, a) are identical, so only a <= m) and solves by two Cholesky
    eliminations: U with its constraints gives Cu (Fu is block diagonal,
    applied through invFu), then V with its constraints is solved on the
    Schur complement Fv - Fuv' Cu Fuv.
    """
    M = params.M
    if M == 0:
        return np.zeros(0), np.zeros(0)
    I, J = cov.I, cov.J
    jac = constraint_jacobians(params, cov)
    upper = np.ravel_multi_index(np.triu_indices(M), (M, M))   # rows (a, m), a <= m
    Fuv = latent_cross_information(pieces, params)
    cov_u, drop_u = _constrained_inverse(
        lambda B: np.einsum("imn,inq->imq", pieces.invFu, B.reshape(I, M, -1),
                            optimize=True).reshape(I * M, -1),
        jac.Ju[np.r_[:cov.K * M, cov.K * M + upper]], "left-factor constraint system")
    CuFuv = cov_u(Fuv)
    schur = -(Fuv.T @ CuFuv)
    schur.reshape(J, M, J, M)[np.arange(J), :, np.arange(J), :] += pieces.Fv
    factor = _cholesky(schur, "right-factor Schur complement")
    cov_v, _ = _constrained_inverse(lambda B: cho_solve(factor, B),
                                    jac.Jv[np.r_[:cov.L * M, cov.L * M + upper]],
                                    "right-factor constraint system")
    Cv = cov_v(np.eye(J * M))
    varU = (np.einsum("imm->im", pieces.invFu).ravel() - drop_u
            + np.einsum("ij,ij->i", CuFuv @ Cv, CuFuv))
    varV = np.diag(Cv).copy()
    if np.any(varU <= 0) or np.any(varV <= 0):
        warnings.warn("non-positive joint factor variance; inference may be unreliable")
    return varU, varV


# ---------------------------------------------------------------------------
# delta propagation: latent factors -> coefficients
# ---------------------------------------------------------------------------

def coef_eta_jacobian(pieces: InferencePieces, cov: CovariateSet) -> np.ndarray:
    """J x K x I derivatives d a_j / d eta_ij of the one-step A-row estimators,
    invFa_j x_i (dEM_ij - dWM_ij x_i' invFa_j gradA_j).

    eta_ij moves with u_im by (V D)_jm and with v_jm by (U D)_im.  Pass the
    transposed pieces and covariates for B.
    """
    base = np.einsum("jkl,jl->jk", pieces.invFa, pieces.gradA)
    weight = pieces.dEM - pieces.dWM * (cov.X @ base.T)          # (I, J)
    return np.einsum("jkl,il,ij->jki", pieces.invFa, cov.X, weight, optimize=True)


def _coef_variances_from_factors(pieces, params, cov, varU, varV):
    """Extra variances of vec(A') from U and from V (diagonal contractions)."""
    Q = coef_eta_jacobian(pieces, cov)
    UD, VD = params.U * params.D, params.V * params.D
    varU = varU.reshape(cov.I, params.M)
    varV = varV.reshape(cov.J, params.M)
    fromU = np.einsum("jki,ji->jk", Q ** 2, VD ** 2 @ varU.T, optimize=True)
    fromV = np.einsum("jkm,jm->jk", (Q @ UD) ** 2, varV, optimize=True)
    return fromU.ravel(), fromV.ravel()


def propagate_uv_to_ab(pieces: InferencePieces, params: GbmParams, cov: CovariateSet,
                       varU: np.ndarray, varV: np.ndarray):
    """Extra variances of A and B due to uncertainty in the latent factors,
    as flat vectors in vec(A') / vec(B') order."""
    varAfromU, varAfromV = _coef_variances_from_factors(pieces, params, cov, varU, varV)
    varBfromV, varBfromU = _coef_variances_from_factors(
        pieces.transposed(), params.transposed(), cov.transposed(), varV, varU)
    return varAfromU, varAfromV, varBfromU, varBfromV


# ---------------------------------------------------------------------------
# delta propagation: coefficients -> interactions
# ---------------------------------------------------------------------------

def interaction_jacobian_from_a(pieces: InferencePieces, cov: CovariateSet) -> np.ndarray:
    """J x KL x K derivatives of the one-step vec(C) estimator in the rows of A.

    Block j is invFc (z_j kron (H_j - G_j)): H_j = X' diag(dEM_j) X from the
    score, G_j = X' diag(dWM_j * (X C1 Z')_j) X from the Fisher information,
    C1 = invFc vec(gradC).  For B pass the transposed problem (vec(C') order).
    """
    X, Z = cov.X, cov.Z
    C1 = (pieces.invFc @ pieces.gradC.ravel(order="F")).reshape(cov.K, cov.L, order="F")
    HG = _row_fisher_blocks(pieces.dEM, X) - _row_fisher_blocks(pieces.dWM * (X @ C1 @ Z.T), X)
    kron = np.einsum("jl,jak->jlak", Z, HG).reshape(cov.J, cov.K * cov.L, cov.K)
    return pieces.invFc @ kron


def _interaction_variance_from_a(pieces, cov, varA):
    """Extra variance of vec(C) from A (see propagate_ab_to_c)."""
    jac = interaction_jacobian_from_a(pieces, cov)
    var = np.einsum("jck,jkl,jcl->c", jac, pieces.invFa, jac, optimize=True)
    if varA is not None:
        extra = np.maximum(varA.reshape(cov.J, cov.K) - np.einsum("jkk->jk", pieces.invFa), 0.0)
        var += np.einsum("jck,jk->c", jac ** 2, extra, optimize=True)
    return var


def propagate_ab_to_c(pieces: InferencePieces, params: GbmParams, cov: CovariateSet,
                      varA=None, varB=None):
    """Extra variance of vec(C) due to uncertainty in A and in B.

    varA/varB are the full per-entry variances (conditional plus latent-
    propagated) in vec(A')/vec(B') order.  The conditional part contracts
    with the per-row inverse Fisher blocks; the propagated remainder, which
    carries the latent-to-coefficient chain, contracts diagonally.  Omitting
    varA/varB keeps the conditional part only.
    """
    varCfromA = _interaction_variance_from_a(pieces, cov, varA)
    varCfromB = _interaction_variance_from_a(pieces.transposed(), cov.transposed(), varB)
    return varCfromA, varCfromB.reshape(cov.K, cov.L).ravel(order="F")


# ---------------------------------------------------------------------------
# delta propagation: everything -> dispersions
# ---------------------------------------------------------------------------

def _score_sensitivities(W, E, mu, r):
    """Derivatives of the dispersion score pieces with respect to the linear
    predictor: Q = d delta / d linpred, and P entering the curvature term."""
    Q = -W * E / r
    P = 2.0 * W * Q / mu
    return Q, P


def dispersion_jacobian_same_axis(Q, P, scaled_other, invF, gradv):
    """d (one-step offset estimate) / d (same-axis factor row), all rows.

    Q, P are n x J; scaled_other is the J x M other-axis factor times D.
    Returns n x M: row i holds the sensitivities to factor row i.
    """
    dgrad = Q @ scaled_other
    dF = dgrad - P @ scaled_other
    return (-invF ** 2 * gradv)[:, None] * dF + invF[:, None] * dgrad


def dispersion_jacobian_other_axis(Q, P, scaled_same, invF, gradv):
    """d (one-step offset estimate) / d (every other-axis factor entry).

    scaled_same is the n x M same-axis factor times D.  Returns n x J x M.
    """
    dgrad = Q[:, :, None] * scaled_same[:, None, :]
    dF = dgrad - P[:, :, None] * scaled_same[:, None, :]
    return (-invF ** 2 * gradv)[:, None, None] * dF + invF[:, None, None] * dgrad


def _dispersion_variances(pieces, params, cov, varA, varB, varU, varV):
    """Extra variances of S from A, B, U and V, keyed by source block."""
    Q, P = _score_sensitivities(pieces.W, pieces.E, pieces.mu, pieces.r)
    UD, VD = params.U * params.D, params.V * params.D
    invF, grad = pieces.invFs, pieces.gradS
    return {
        "A": np.einsum("ijk,jk->i", dispersion_jacobian_other_axis(Q, P, cov.X, invF, grad) ** 2,
                       varA.reshape(cov.J, cov.K), optimize=True),
        "B": np.einsum("il,il->i", dispersion_jacobian_same_axis(Q, P, cov.Z, invF, grad) ** 2,
                       varB.reshape(cov.I, cov.L), optimize=True),
        "U": np.einsum("im,im->i", dispersion_jacobian_same_axis(Q, P, VD, invF, grad) ** 2,
                       varU.reshape(cov.I, params.M), optimize=True),
        "V": np.einsum("ijm,jm->i", dispersion_jacobian_other_axis(Q, P, UD, invF, grad) ** 2,
                       varV.reshape(cov.J, params.M), optimize=True),
    }


def propagate_to_dispersions(pieces: InferencePieces, params: GbmParams, cov: CovariateSet,
                             varA, varB, varU, varV):
    """Extra variances of S and T from uncertainty in A, B, U, V.

    varA/varB must be the full (conditional + propagated) variances in
    vec(A') / vec(B') order.  Returns two dicts keyed by source block; T's
    is S's computed on the transposed problem.
    """
    var_s = _dispersion_variances(pieces, params, cov, varA, varB, varU, varV)
    flipped = _dispersion_variances(pieces.transposed(), params.transposed(),
                                    cov.transposed(), varB, varA, varV, varU)
    var_t = {"A": flipped["B"], "B": flipped["A"], "U": flipped["V"], "V": flipped["U"]}
    return var_s, var_t


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class InferenceResult:
    """Per-entry approximate standard errors plus the variance ledgers."""

    se_A: np.ndarray
    se_B: np.ndarray
    se_C: np.ndarray
    se_U: np.ndarray
    se_V: np.ndarray
    se_S: np.ndarray
    se_T: np.ndarray
    ledger: dict

    def blocks(self) -> dict:
        return {"A": self.se_A, "B": self.se_B, "C": self.se_C, "U": self.se_U,
                "V": self.se_V, "S": self.se_S, "T": self.se_T}


def standard_errors(Y, params: GbmParams, cov: CovariateSet,
                    prior: PriorConfig = None) -> InferenceResult:
    """Full inference pass: conditional + joint latent + delta propagation."""
    prior = prior or PriorConfig()
    pieces = preprocess(Y, params, cov, prior)
    M = params.M
    varU, varV = joint_uv_uncertainty(pieces, params, cov, prior)
    varAfromU, varAfromV, varBfromU, varBfromV = propagate_uv_to_ab(pieces, params, cov, varU, varV)
    varA = np.einsum("jkk->jk", pieces.invFa).ravel() + varAfromU + varAfromV
    varB = np.einsum("ill->il", pieces.invFb).ravel() + varBfromU + varBfromV
    varCfromA, varCfromB = propagate_ab_to_c(pieces, params, cov, varA, varB)
    varC = np.diag(pieces.invFc) + varCfromA + varCfromB
    var_s, var_t = propagate_to_dispersions(pieces, params, cov, varA, varB, varU, varV)
    varS = pieces.invFs + var_s["A"] + var_s["B"] + var_s["U"] + var_s["V"]
    varT = pieces.invFt + var_t["A"] + var_t["B"] + var_t["U"] + var_t["V"]
    ledger = {
        "varAfromU": varAfromU, "varAfromV": varAfromV,
        "varBfromU": varBfromU, "varBfromV": varBfromV,
        "varCfromA": varCfromA, "varCfromB": varCfromB,
        **{f"varSfrom{src}": v for src, v in var_s.items()},
        **{f"varTfrom{src}": v for src, v in var_t.items()},
        "varU": varU, "varV": varV,
    }
    return InferenceResult(
        se_A=np.sqrt(varA).reshape(cov.J, cov.K),
        se_B=np.sqrt(varB).reshape(cov.I, cov.L),
        se_C=np.sqrt(varC).reshape(cov.K, cov.L, order="F"),
        se_U=np.sqrt(varU).reshape(cov.I, M) if M else np.zeros((cov.I, 0)),
        se_V=np.sqrt(varV).reshape(cov.J, M) if M else np.zeros((cov.J, 0)),
        se_S=np.sqrt(varS),
        se_T=np.sqrt(varT),
        ledger=ledger,
    )


def wald_tests(estimates, ses, level=0.95):
    """Two-sided p-values and Wald confidence intervals."""
    estimates = np.asarray(estimates, dtype=np.float64)
    ses = np.asarray(ses, dtype=np.float64)
    if np.any(ses <= 0):
        raise DomainError("standard errors must be positive")
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    zstat = estimates / ses
    p_values = 2.0 * norm.sf(np.abs(zstat))
    z = norm.ppf(0.5 + level / 2.0)
    return {
        "p_values": p_values,
        "ci_lower": estimates - z * ses,
        "ci_upper": estimates + z * ses,
    }


# ---------------------------------------------------------------------------
# dense oracles
# ---------------------------------------------------------------------------

def _eta_jacobian(params: GbmParams, cov: CovariateSet) -> np.ndarray:
    """(I J) x P Jacobian of the vectorized linear predictor (rows in C order)
    with respect to [vec(A'), vec(B'), vec(C), d, vec(U'), vec(V')]."""
    X, Z, U, V, D = cov.X, cov.Z, params.U, params.V, params.D
    I, J, K, L, M = cov.I, cov.J, cov.K, cov.L, params.M
    A_part = np.einsum("jl,ik->ijlk", np.eye(J), X).reshape(I * J, J * K)
    B_part = np.einsum("im,jl->ijml", np.eye(I), Z).reshape(I * J, I * L)
    C_part = np.einsum("ik,jl->ijlk", X, Z).reshape(I * J, L * K)
    parts = [A_part, B_part, C_part]
    if M:
        parts.append((U[:, None, :] * V[None, :, :]).reshape(I * J, M))
        parts.append(np.einsum("ia,jm->ijam", np.eye(I), V * D).reshape(I * J, I * M))
        parts.append(np.einsum("ja,im->ijam", np.eye(J), U * D).reshape(I * J, J * M))
    else:
        parts.extend([np.zeros((I * J, 0))] * 3)
    return np.hstack(parts)


def full_fisher_variances(Y, params: GbmParams, cov: CovariateSet,
                          prior: PriorConfig = None) -> dict:
    """Variances from the dense bordered Fisher system over every block.

    Comparison oracle only: builds the full regularized Fisher information
    for (A, B, C, D, U, V) with every cross block, borders it with the
    stacked constraint Jacobians, inverts densely, and returns the leading
    diagonal split per block.  Guarded to small problems.
    """
    prior = prior or PriorConfig()
    I, J, K, L, M = cov.I, cov.J, cov.K, cov.L, params.M
    sizes = [J * K, I * L, K * L, M, I * M, J * M]
    P = sum(sizes)
    if P > FULL_FISHER_GUARD:
        raise SizeGuardError(f"full Fisher oracle refused: {P} parameters > {FULL_FISHER_GUARD}")
    values = Y.values if hasattr(Y, "values") else np.asarray(Y)
    linpred = linear_predictor(params, cov)
    work = nb.nb_workspace(values, linpred, params.S, params.T, params.omega)
    Jeta = _eta_jacobian(params, cov)
    F = Jeta.T @ (work.W.ravel()[:, None] * Jeta)
    lam = np.concatenate([
        np.full(J * K, prior.lambda_a), np.full(I * L, prior.lambda_b),
        np.full(K * L, prior.lambda_c), np.full(M, prior.lambda_d),
        np.full(I * M, prior.lambda_u), np.full(J * M, prior.lambda_v),
    ])
    F += np.diag(lam)

    Ja = np.kron(cov.Z.T, np.eye(K))
    Jb = np.kron(cov.X.T, np.eye(L))
    rows = [
        np.hstack([Ja, np.zeros((Ja.shape[0], P - J * K))]),
        np.hstack([np.zeros((Jb.shape[0], J * K)), Jb,
                   np.zeros((Jb.shape[0], P - J * K - I * L))]),
    ]
    if M:
        jac = constraint_jacobians(params, cov)
        off_u = J * K + I * L + K * L + M
        rows.append(np.hstack([np.zeros((jac.Ju.shape[0], off_u)), jac.Ju,
                               np.zeros((jac.Ju.shape[0], J * M))]))
        rows.append(np.hstack([np.zeros((jac.Jv.shape[0], off_u + I * M)), jac.Jv]))
    Jall = np.vstack(rows)
    nc = Jall.shape[0]
    bordered = np.zeros((P + nc, P + nc))
    bordered[:P, :P] = F
    bordered[:P, P:] = Jall.T
    bordered[P:, :P] = Jall
    # the factor constraint rows are redundant for M > 1
    variances = np.diag(np.linalg.pinv(bordered, rcond=1e-12))[:P]
    out = {}
    offset = 0
    for name, size in zip(("A", "B", "C", "D", "U", "V"), sizes):
        out[name] = variances[offset:offset + size]
        offset += size
    return {
        "A": out["A"].reshape(J, K),
        "B": out["B"].reshape(I, L),
        "C": out["C"].reshape(K, L, order="F"),
        "U": out["U"].reshape(I, M) if M else np.zeros((I, 0)),
        "V": out["V"].reshape(J, M) if M else np.zeros((J, 0)),
    }


def joint_uv_dense_oracle(pieces: InferencePieces, params: GbmParams, cov: CovariateSet):
    """Diagonal of the inverse bordered (U, V) system by direct dense inversion."""
    M = params.M
    I, J = cov.I, cov.J
    jac = constraint_jacobians(params, cov)
    Fuv = latent_cross_information(pieces, params)
    Fu_full = np.zeros((I * M, I * M))
    for i in range(I):
        Fu_full[i * M:(i + 1) * M, i * M:(i + 1) * M] = pieces.Fu[i]
    Fv_full = np.zeros((J * M, J * M))
    for j in range(J):
        Fv_full[j * M:(j + 1) * M, j * M:(j + 1) * M] = pieces.Fv[j]
    nu, nv = jac.Ju.shape[0], jac.Jv.shape[0]
    n = I * M + J * M + nu + nv
    big = np.zeros((n, n))
    big[:I * M, :I * M] = Fu_full
    big[:I * M, I * M:I * M + J * M] = Fuv
    big[I * M:I * M + J * M, :I * M] = Fuv.T
    big[I * M:I * M + J * M, I * M:I * M + J * M] = Fv_full
    big[:I * M, I * M + J * M:I * M + J * M + nu] = jac.Ju.T
    big[I * M + J * M:I * M + J * M + nu, :I * M] = jac.Ju
    big[I * M:I * M + J * M, I * M + J * M + nu:] = jac.Jv.T
    big[I * M + J * M + nu:, I * M:I * M + J * M] = jac.Jv
    diag = np.diag(np.linalg.pinv(big, rcond=1e-12))
    return diag[:I * M], diag[I * M:I * M + J * M]
