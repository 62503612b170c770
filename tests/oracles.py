"""Analytic references that only the tests call.

Each builds, densely, a quantity the library contracts without forming:
the bordered (U, V) inverse, the Jacobians of the delta propagation, and
trigamma on its own.  They are written from the library's own helpers, so
a test that compares the library against one of them checks the
contraction, not a second copy of the weights.
"""

import numpy as np

from nbgbm.estimation import _row_fisher_blocks
from nbgbm.inference import (
    InferencePieces,
    _coef_eta_weight,
    _dispersion_response,
    _eta_derivatives,
    constraint_jacobians,
    latent_cross_information,
)
from nbgbm.model import CovariateSet, GbmParams
from nbgbm.nb import _psi_trigamma, _scalar_or_array


def trigamma(x):
    """Trigamma function psi'(x) for x > 0, elementwise (see `nb._psi_trigamma`)."""
    return _scalar_or_array(_psi_trigamma(np.asarray(x, dtype=np.float64))[1])


def coef_eta_jacobian(pieces: InferencePieces, cov: CovariateSet) -> np.ndarray:
    """J x K x I derivatives d a_j / d eta_ij of the one-step A-row estimators,
    invFa_j x_i (dEM_ij - dWM_ij x_i' invFa_j gradA_j).

    eta_ij moves with u_im by (V D)_jm and with v_jm by (U D)_im.  Pass the
    transposed pieces and covariates for B.  Analytic reference only: the
    standard errors contract it without forming it.
    """
    base = np.einsum("jkl,jl->jk", pieces.invFa, pieces.gradA)
    weight = _coef_eta_weight(*_eta_derivatives(pieces), cov.X, base)
    return np.einsum("jkl,il,ij->jki", pieces.invFa, cov.X, weight, optimize=True)


def interaction_jacobian_from_a(pieces: InferencePieces, cov: CovariateSet) -> np.ndarray:
    """J x KL x K derivatives of the one-step vec(C) estimator in the rows of A.

    Block j is invFc (z_j kron (H_j - G_j)): H_j = X' diag(dEM_j) X from the
    score, G_j = X' diag(dWM_j * (X C1 Z')_j) X from the Fisher information,
    C1 = invFc vec(gradC).  For B pass the transposed problem (vec(C') order).
    Analytic reference only: the standard errors build the blocks by chunks.
    """
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


def joint_uv_dense_oracle(pieces: InferencePieces, params: GbmParams, cov: CovariateSet):
    """Diagonal of the inverse bordered (U, V) system by direct dense inversion."""
    M = params.M
    I, J = cov.I, cov.J
    Ju, Jv = constraint_jacobians(params, cov)
    Fuv = latent_cross_information(pieces, params)
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
