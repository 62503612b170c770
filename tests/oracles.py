"""Analytic references that only the tests call.

Each builds, densely, a quantity the library contracts without forming:
the bordered (U, V) inverse, the constraint and delta-propagation
Jacobians and the bordered Fisher system over every block.  They are
written from the library's own helpers, so a test that compares the
library against one of them checks the contraction, not a second copy of
the weights.
"""

import numpy as np

from nbgbm import nb
from nbgbm.estimation import _row_fisher_blocks
from nbgbm.exceptions import ShapeError
from nbgbm.inference import (
    InferencePieces,
    _coef_eta_weight,
    _dispersion_response,
    _eta_derivatives,
    _factor_jacobian,
    latent_cross_information,
)
from nbgbm.model import CovariateSet, GbmParams, PriorConfig, linear_predictor


def constraint_jacobians(params: GbmParams, cov: CovariateSet):
    """(Ju, Jv): the Jacobians of the orthogonality-to-covariates and
    orthonormality constraints, (M K + M^2) x (I M) and (M L + M^2) x (J M),
    columns ordered like vec(U') / vec(V') (factor index fastest)."""
    if params.M == 0:
        raise ShapeError("constraint Jacobians require at least one latent factor")
    return _factor_jacobian(cov.X, params.U), _factor_jacobian(cov.Z, params.V)


def coef_eta_jacobian(pieces: InferencePieces) -> np.ndarray:
    """J x K x I derivatives d a_j / d eta_ij of the one-step A-row estimators,
    invFa_j x_i (dEM_ij - dWM_ij x_i' invFa_j gradA_j).

    eta_ij moves with u_im by (V D)_jm and with v_jm by (U D)_im.  For B pass
    the pieces of the problem for Y'.  Analytic reference only: the standard
    errors contract it without forming it.
    """
    cov = pieces.cov
    base = np.einsum("jkl,jl->jk", pieces.invFa, pieces.gradA)
    weight = _coef_eta_weight(*_eta_derivatives(pieces), cov.X, base)
    return np.einsum("jkl,il,ij->jki", pieces.invFa, cov.X, weight, optimize=True)


def interaction_jacobian_from_a(pieces: InferencePieces) -> np.ndarray:
    """J x KL x K derivatives of the one-step vec(C) estimator in the rows of A.

    Block j is invFc (z_j kron (H_j - G_j)): H_j = X' diag(dEM_j) X from the
    score, G_j = X' diag(dWM_j * (X C1 Z')_j) X from the Fisher information,
    C1 = invFc vec(gradC).  For B pass the problem for Y' (vec(C') order).
    Analytic reference only: the standard errors build the blocks by chunks.
    """
    cov = pieces.cov
    C1 = (pieces.invFc @ pieces.gradC.ravel(order="F")).reshape(cov.K, cov.L, order="F")
    weight = _coef_eta_weight(*_eta_derivatives(pieces), cov.X, cov.Z @ C1.T)
    HG = _row_fisher_blocks(weight, cov.X)
    kron = np.einsum("jl,jak->jlak", cov.Z, HG).reshape(cov.J, -1, cov.K)
    return pieces.invFc @ kron


def dispersion_jacobian_same_axis(Q, P, scaled_other, invF, gradv):
    """d (one-step offset estimate) / d (same-axis factor row), all rows.

    Q, P are n x J; scaled_other is the J x M other-axis factor times D.
    Returns n x M: row i holds the sensitivities to factor row i.
    """
    return _dispersion_response(Q, P, invF, gradv) @ scaled_other


def dispersion_jacobian_other_axis(Q, P, scaled_same, invF, gradv):
    """d (one-step offset estimate) / d (every other-axis factor entry).

    scaled_same is the n x M same-axis factor times D.  Returns n x J x M.
    Analytic reference only: the standard errors contract it without forming it.
    """
    return _dispersion_response(Q, P, invF, gradv)[:, :, None] * scaled_same[:, None, :]


def joint_uv_dense_oracle(pieces: InferencePieces):
    """Diagonal of the inverse bordered (U, V) system by direct dense inversion."""
    params, cov = pieces.params, pieces.cov
    I, J, M = cov.I, cov.J, params.M
    Ju, Jv = constraint_jacobians(params, cov)
    Fuv = latent_cross_information(pieces)
    Fu_full = np.zeros((I * M, I * M))
    for i in range(I):
        Fu_full[i * M:(i + 1) * M, i * M:(i + 1) * M] = pieces.Fu[i]
    Fv_full = np.zeros((J * M, J * M))
    for j in range(J):
        Fv_full[j * M:(j + 1) * M, j * M:(j + 1) * M] = pieces.Fv[j]
    nu, nv = Ju.shape[0], Jv.shape[0]
    n = I * M + J * M + nu + nv
    big = np.zeros((n, n))
    big[:I * M, :I * M] = Fu_full
    big[:I * M, I * M:I * M + J * M] = Fuv
    big[I * M:I * M + J * M, :I * M] = Fuv.T
    big[I * M:I * M + J * M, I * M:I * M + J * M] = Fv_full
    big[:I * M, I * M + J * M:I * M + J * M + nu] = Ju.T
    big[I * M + J * M:I * M + J * M + nu, :I * M] = Ju
    big[I * M:I * M + J * M, I * M + J * M + nu:] = Jv.T
    big[I * M + J * M + nu:, I * M:I * M + J * M] = Jv
    diag = np.diag(np.linalg.pinv(big, rcond=1e-12))
    return diag[:I * M], diag[I * M:I * M + J * M]


def _eta_jacobian(params: GbmParams, cov: CovariateSet) -> np.ndarray:
    """(I J) x P Jacobian of the vectorized linear predictor (rows in C order)
    with respect to [vec(A'), vec(B'), vec(C), d, vec(U'), vec(V')]."""
    X, Z, U, V, D = cov.X, cov.Z, params.U, params.V, params.D
    I, J, K, L, M = cov.I, cov.J, cov.K, cov.L, params.M
    A_part = np.einsum("jl,ik->ijlk", np.eye(J), X).reshape(I * J, J * K)
    B_part = np.einsum("im,jl->ijml", np.eye(I), Z).reshape(I * J, I * L)
    C_part = np.einsum("ik,jl->ijlk", X, Z).reshape(I * J, L * K)
    D_part = (U[:, None, :] * V[None, :, :]).reshape(I * J, M)
    U_part = np.einsum("ia,jm->ijam", np.eye(I), V * D).reshape(I * J, I * M)
    V_part = np.einsum("ja,im->ijam", np.eye(J), U * D).reshape(I * J, J * M)
    return np.hstack([A_part, B_part, C_part, D_part, U_part, V_part])


def full_fisher_variances(Y, params: GbmParams, cov: CovariateSet,
                          prior: PriorConfig = None) -> dict:
    """Variances from the dense bordered Fisher system over every block.

    Builds the full regularized Fisher information for (A, B, C, D, U, V)
    with every cross block, borders it with the stacked constraint
    Jacobians, inverts densely, and returns the leading diagonal split per
    block.  Its cost is cubic in the parameter count, so call it on small
    problems only.
    """
    prior = prior or PriorConfig()
    I, J, K, L, M = cov.I, cov.J, cov.K, cov.L, params.M
    sizes = [J * K, I * L, K * L, M, I * M, J * M]
    P = sum(sizes)
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
        Ju, Jv = constraint_jacobians(params, cov)
        off_u = J * K + I * L + K * L + M
        rows.append(np.hstack([np.zeros((Ju.shape[0], off_u)), Ju,
                               np.zeros((Ju.shape[0], J * M))]))
        rows.append(np.hstack([np.zeros((Jv.shape[0], off_u + I * M)), Jv]))
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
        "U": out["U"].reshape(I, M),
        "V": out["V"].reshape(J, M),
    }
