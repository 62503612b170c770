"""Approximate standard errors for fitted models.

Three ingredients:

1. Conditional uncertainty: per-block inverse Fisher information treating
   every other block as known.  Alone, this understates the uncertainty of
   A, B, C, S, T whenever latent factors are present.
2. Joint latent uncertainty: variances for U and V come from the diagonal
   of the inverse constraint-augmented (bordered) Fisher information for
   (U, V) jointly, on the independent constraint rows.  Two Cholesky
   eliminations of the constraints solve it: one for the factor with more
   rows on its block-diagonal Fisher information, one for the other on the
   Schur complement that remains.  The Schur complement is streamed into
   one packed lower triangle (rectangular full packed storage, n (n + 1) / 2
   doubles for n = min(I, J) M) in row blocks of the cross information,
   which are built from their Kronecker factors, and is factored and
   inverted there in place, so the cost is O(I J^2 M^3 + J^3 M^3) and the
   memory that triangle plus row blocks.
3. Delta propagation: the extra variance of A, B (from U, V), of C (from
   A, B), and of S, T (from A, B, U, V), obtained by differentiating each
   block's one-step Fisher-scoring map through the source block and
   contracting the Jacobian with the source variances (diagonal, except
   that the C edges contract with the per-row conditional inverse blocks).
   The U, V -> A, B and -> S, T Jacobians factor into data-sized (I x J)
   weights and small designs, so the contractions are taken in factored
   form and those Jacobians are not formed; the C edges contract small
   blocks that the A, B pass sums from the same weights' chunks.  The tests'
   reference module forms the Jacobians, the bordered (U, V) inverse and the
   bordered Fisher system over every block densely.

Every stage after preprocess takes only the InferencePieces and the earlier
stages' variances, and reads the counts, parameters and covariates from the
pieces: the caller's objects, which must not change until the last stage.
No I x J array is held whole: each (the workspace mu, r, W and E, from
nb.nb_workspace as in FitState.refresh; the dispersion derivatives; dWM and
dEM, the derivatives of W and E in the linear predictor; the propagation
weights) is formed one row chunk of at most nb.CHUNK_ELEMENTS entries at a
time and contracted at once: each stage feeds both twins from one workspace
per chunk, summing over the chunk's rows for A, C from A and T, and over its
columns for B, C from B and S; A, B and C share one pass over the chunks.

Each kernel is handed its axis's arrays: the propagations read the B-side
blocks as they are and build B's vec(C) Jacobian in vec(C) order, and the
joint stage eliminates the factor with more rows, passing the column-side
arrays and W by column blocks (transposed views) when I < J.

No standard errors are produced for D or the global log-dispersion.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import nb
from .estimation import _row_fisher_blocks, fisher_c
from .exceptions import DomainError, RankError
from .model import CovariateSet, DataMatrix, GbmParams, PriorConfig, linear_predictor

ROW_BLOCK_BYTES = 1 << 20   # bytes of one row block of R Fuv or Cu Fuv in the joint (U, V) solve


@dataclass
class InferencePieces:
    """The fitted state that every stage after preprocess reads, and only it.

    y is the counts' DataMatrix values; params and cov are the caller's
    objects, which must not change until the last stage; the scores and
    inverses are per-row, per-column or coefficient-sized.  _workspace builds
    the NB workspace (mu, r, W, E) of any slice from them, _eta_derivatives
    dWM and dEM, the derivatives of W and E in the linear predictor.
    """

    y: np.ndarray
    params: GbmParams
    cov: CovariateSet
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


def _workspace(pieces: InferencePieces, rows: slice = slice(None), cols: slice = slice(None)):
    """Rows `rows` and columns `cols` of the NB workspace (mu, r, W, E) of
    the fitted parameters, by the kernels of FitState.refresh: bit for bit
    its arrays on its row chunks; on other slices the linear predictor's
    product may round differently in the last bit."""
    p = pieces.params
    return nb.nb_workspace(pieces.y[rows, cols], linear_predictor(p, pieces.cov, rows, cols),
                           p.S[rows], p.T[cols], p.omega)


def _eta_derivatives(pieces: InferencePieces, rows: slice = slice(None)):
    """Rows `rows` of dWM = d w / d linpred = W^2 / mu = mu r^2 / (r + mu)^2
    and dEM = d e / d linpred = -W (1 + E / r) = -mu r (r + y) / (r + mu)^2."""
    work = _workspace(pieces, rows)
    dWM = work.W * work.W
    dWM /= work.mu
    dEM = np.divide(work.E, work.r, out=work.E)
    dEM += 1.0
    dEM *= work.W
    np.negative(dEM, out=dEM)
    return dWM, dEM


def preprocess(Y, params: GbmParams, cov: CovariateSet, prior: PriorConfig) -> InferencePieces:
    """One pass computing every reusable quantity of the inference algorithm.

    The workspace is built one row chunk at a time; each chunk's W and E
    feed the Fisher blocks of A, B, U, V, the scores of A and B and the
    dispersion sums at once, and are then dropped."""
    if not isinstance(Y, DataMatrix):
        Y = DataMatrix(Y)
    values = Y.values
    I, J = values.shape
    X, Z, M = cov.X, cov.Z, params.M
    UD, VD = params.U * params.D, params.V * params.D
    Fa, Fv = np.zeros((J, cov.K, cov.K)), np.zeros((J, M, M))
    Fb, Fu = np.empty((I, cov.L, cov.L)), np.empty((I, M, M))
    gradA, gradB = np.zeros((J, cov.K)), np.empty((I, cov.L))
    sums = nb.empty_dispersion_sums(I, J)
    for rows in nb.row_chunks(I, J):
        work = nb.nb_workspace(values[rows], linear_predictor(params, cov, rows),
                               params.S[rows], params.T, params.omega)
        Fa += _row_fisher_blocks(work.W, X[rows])
        Fv += _row_fisher_blocks(work.W, UD[rows])
        Fb[rows] = _row_fisher_blocks(work.W.T, Z)
        Fu[rows] = _row_fisher_blocks(work.W.T, VD)
        gradA += work.E.T @ X[rows]
        gradB[rows] = work.E @ Z
        nb.add_dispersion_sums(sums, rows, values[rows], work.mu, work.r)
        del work                                               # before the next chunk
    col_sums, row_sums = sums
    gradS = -prior.lambda_s * (params.S - prior.m_s) + row_sums.delta
    gradT = -prior.lambda_t * (params.T - prior.m_t) + col_sums.delta
    invFa = np.linalg.inv(Fa + prior.lambda_a * np.eye(cov.K))
    invFb = np.linalg.inv(Fb + prior.lambda_b * np.eye(cov.L))
    invFc = np.linalg.inv(fisher_c(Fa, Z) + prior.lambda_c * np.eye(cov.K * cov.L))
    Fu += prior.lambda_u * np.eye(M)
    Fv += prior.lambda_v * np.eye(M)

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

    invFs = observed_inv(prior.lambda_s, row_sums.delta_prime, "S")
    invFt = observed_inv(prior.lambda_t, col_sums.delta_prime, "T")
    return InferencePieces(
        y=values, params=params, cov=cov,
        gradA=gradA, gradB=gradB, gradC=X.T @ gradB,
        gradS=gradS, gradT=gradT,
        Fu=Fu, Fv=Fv, invFa=invFa, invFb=invFb, invFc=invFc,
        invFu=np.linalg.inv(Fu), invFv=np.linalg.inv(Fv), invFs=invFs, invFt=invFt,
    )


# ---------------------------------------------------------------------------
# constraint Jacobians and the joint (U, V) system
# ---------------------------------------------------------------------------

def _factor_jacobian(design: np.ndarray, factor: np.ndarray, independent=False) -> np.ndarray:
    """Jacobian of the constraints on one factor, columns ordered like
    vec(factor'): the rows (k, m) of factor' design = 0, then the rows (a, m)
    of factor' factor = I, all M^2 of them or, when `independent`, only
    a <= m (rows (a, m) and (m, a) are identical)."""
    n, K = design.shape
    M = factor.shape[1]
    a, m = np.triu_indices(M) if independent else np.divmod(np.arange(M * M), M)
    jac = np.zeros((K * M + a.size, n, M))
    for col in range(M):
        jac[col:K * M:M, :, col] = design.T
    pair = K * M + np.arange(a.size)
    jac[pair, :, m] += factor[:, a].T
    jac[pair, :, a] += factor[:, m].T
    return jac.reshape(-1, n * M)


def latent_cross_information(pieces: InferencePieces, rows: slice = slice(None)) -> np.ndarray:
    """IM x JM cross information; block (i, j) is w_ij (D V_j)(D U_i)'.

    `rows` selects a slice of i and returns only those block rows.  Dense
    reference only: the joint solve builds the rows it needs from their
    Kronecker factors (_factor_rows).
    """
    p = pieces.params
    DU = (p.U * p.D)[rows]
    weighted = _workspace(pieces, rows).W[:, None, :] * (p.V * p.D).T[None]      # (n, M, J)
    n, M, J = weighted.shape
    out = np.empty((n, M, J, M))
    for q in range(M):
        np.multiply(weighted, DU[:, q, None, None], out=out[..., q])
    return out.reshape(n * M, J * M)


def _check_pivots(diagonal, info, label):
    """RankError when a Cholesky factorization failed or the smallest squared
    pivot on its diagonal is at most 1e-12 of the largest."""
    pivots = diagonal ** 2
    if info != 0 or not np.all(np.isfinite(pivots)):
        raise RankError(f"{label} is not positive definite")
    if pivots.min() <= 1e-12 * pivots.max():
        raise RankError(f"{label} is numerically singular")


def _inverse_cholesky(mat, label):
    """L^-1 (lower triangular, other triangle zero) for mat = L L' symmetric
    positive definite; RankError as in _check_pivots."""
    from scipy.linalg import lapack
    factor, info = lapack.dpotrf(mat, lower=1, clean=1)
    _check_pivots(np.diag(factor), info, label)
    inverse, _ = lapack.dtrtri(factor, lower=1, overwrite_c=1)
    return inverse


def _squares(a, axis):
    return np.einsum("ij,ij->j" if axis == 0 else "ij,ij->i", a, a)


# A symmetric n x n matrix, n = 2k, in rectangular full packed (RFP) storage
# with TRANSR = 'T', lower (LAPACK; Gustavson, Wasniewski, Dongarra and
# Langou, ACM TOMS 37(2), 2010): one k x (n + 1) Fortran array whose columns
# [:k] hold the trailing block A22 (lower triangle), [1:k+1] the leading
# block A11 transposed (upper triangle) and [k+1:] A21'.  The two triangles
# share their k x k square without overlapping, and each of the three views
# is Fortran-contiguous, so LAPACK and BLAS work on them in place.

def _rfp_blocks(rfp):
    """The views (A22 lower, A11' upper, A21') of an RFP array."""
    k = rfp.shape[0]
    return rfp[:, :k], rfp[:, 1:k + 1], rfp[:, k + 1:]


def _packed_inverse_cholesky(rfp, label):
    """Overwrite the RFP array of a symmetric positive definite S = L L' with
    L^-1 in the same layout; RankError as in _check_pivots.

    With L = [[L11, 0], [L21, L22]], L^-1 = [[L11^-1, 0], [X21, L22^-1]] and
    X21 = -L22^-1 L21 L11^-1: two triangular inverses and two triangular
    products on the blocks."""
    from scipy.linalg import blas, lapack
    k = rfp.shape[0]
    _, info = lapack.dpftrf(2 * k, rfp.ravel(order="F"), transr="T", uplo="L", overwrite_a=1)
    low, up, off = _rfp_blocks(rfp)
    _check_pivots(np.concatenate([np.diag(up), np.diag(low)]), info, label)
    lapack.dtrtri(up, lower=0, overwrite_c=1)                  # (L11^-1)'
    lapack.dtrtri(low, lower=1, overwrite_c=1)                 # L22^-1
    blas.dtrmm(-1.0, up, off, lower=0, overwrite_b=1)          # -(L11^-1)' L21'
    blas.dtrmm(1.0, low, off, side=1, lower=1, trans_a=1, overwrite_b=1)   # X21'


def _apply_inverse_factor(rfp, top, bottom, transpose=False):
    """Overwrite y = [top; bottom], two Fortran-ordered k x p halves, with
    L^-1 y (L^-T y when `transpose`), L^-1 in RFP storage from
    _packed_inverse_cholesky."""
    from scipy.linalg import blas
    low, up, off = _rfp_blocks(rfp)
    if transpose:       # [L11^-T y1 + X21' y2; L22^-T y2]
        blas.dtrmm(1.0, up, top, lower=0, overwrite_b=1)
        blas.dgemm(1.0, off, bottom, beta=1.0, c=top, overwrite_c=1)
        blas.dtrmm(1.0, low, bottom, lower=1, trans_a=1, overwrite_b=1)
    else:               # [L11^-1 y1; X21 y1 + L22^-1 y2]
        blas.dtrmm(1.0, low, bottom, lower=1, overwrite_b=1)
        blas.dgemm(1.0, off, top, beta=1.0, c=bottom, trans_a=1, overwrite_c=1)
        blas.dtrmm(1.0, up, top, lower=0, trans_a=1, overwrite_b=1)


def _packed_inverse_diagonal(rfp):
    """diag(S^-1) = the squared column norms of L^-1, from the RFP array of
    L^-1; the triangles are masked one column chunk at a time."""
    low, up, off = _rfp_blocks(rfp)
    k = rfp.shape[0]

    def lower_column_squares(tri):
        out = np.empty(k)
        for cols in nb.row_chunks(k, k):
            out[cols] = _squares(np.tril(tri[cols.start:, cols]), 0)
        return out

    return np.concatenate([lower_column_squares(up.T) + _squares(off, 1),
                           lower_column_squares(low)])


def _factor_rows(blocks, W, VDt, UD, outs):
    """Rows of blocks_i Fuv_i for the rows i of W, written into `outs`.

    Row i of the cross information is Fuv_i = (V D diag(w_i))' kron (D u_i)',
    so blocks_i Fuv_i = (blocks_i (V D)' diag(w_i)) kron (D u_i)': one
    (n M x M)(M x J') product, then an outer product.  VDt is (V D)'
    padded with zero columns to J' = 2 J'' columns; `outs` are n M x (J' M /
    len(outs)) arrays taking consecutive column ranges.
    """
    n, M = UD.shape
    G = (blocks.reshape(n * M, M) @ VDt).reshape(n, M, -1)
    G[:, :, :W.shape[1]] *= W[:, None, :]
    width = G.shape[2] // len(outs)
    for part, out in enumerate(outs):
        out = out.reshape(n, M, width, M)
        for q in range(M):       # one pass per q runs along j, not along a length-M axis
            np.multiply(G[:, :, part * width:(part + 1) * width], UD[:, q, None, None],
                        out=out[..., q])


def joint_uv_uncertainty(pieces: InferencePieces):
    """Variances of vec(U') and vec(V') from the bordered joint system
    (_joint_uv), eliminating the factor with more rows first: U when I >= J;
    V when I < J, from the column-side arrays and W read by column blocks.

    A variance of either sign within 1e-12 times the largest diagonal entry of
    its factor's conditional inverse (invFu, invFv) is zero up to rounding, as
    where the constraints leave the factor no free direction (V at J = L + 1,
    M = 1), and is set to 0 with a warning naming the factor."""
    p, cov = pieces.params, pieces.cov
    if p.M == 0:
        return np.zeros(0), np.zeros(0)
    if cov.I >= cov.J:
        varU, varV = _joint_uv(lambda rows: _workspace(pieces, rows).W, pieces.Fu, pieces.invFu,
                               pieces.Fv, cov.X, p.U, cov.Z, p.V, p.D)
    else:
        varV, varU = _joint_uv(lambda cols: _workspace(pieces, cols=cols).W.T, pieces.Fv,
                               pieces.invFv, pieces.Fu, cov.Z, p.V, cov.X, p.U, p.D)
    for name, var, invF in (("U", varU, pieces.invFu), ("V", varV, pieces.invFv)):
        zero = np.abs(var) <= 1e-12 * np.einsum("imm->im", invF).max()
        if zero.any():
            var[zero] = 0.0
            warnings.warn(f"joint variance of {name} is zero up to rounding at "
                          f"{np.count_nonzero(zero)} entries; their standard errors are 0")
    if np.any(varU < 0) or np.any(varV < 0):
        warnings.warn("non-positive joint factor variance; inference may be unreliable")
    return varU, varV


def _joint_uv(weights, Fu, invFu, Fv, X, U, Z, V, D):
    """Variances of vec(U') and vec(V'), eliminating U first; weights(rows)
    is the rows x J block of W for a slice of the I rows.

    Keeps the independent constraint rows (_factor_jacobian) and eliminates
    the constraints twice (Nocedal & Wright, Numerical Optimization, 16.2):
    the leading block of the inverse of [[A, J'], [J, 0]] is A^-1 - Z Z' with
    Z = A^-1 J' L^-T and J A^-1 J' = L L'.  First U on its block-diagonal
    Fisher information, Cu = invFu - Zu Zu'; then V on the Schur complement
    S = Fv - Fuv' Cu Fuv, which is J M square.

    Neither Fuv nor S is held whole.  S is kept in RFP storage (n (n + 1) / 2
    doubles; J is padded to even with identity blocks of S that no other
    row touches, so that each half of the storage holds whole j blocks).  It
    is accumulated by dsfrk in row blocks of i as
    Fv - sum_b (R_b Fuv_b)'(R_b Fuv_b) + H'H, with R_i' R_i = invFu_i,
    Fu_i = C_i C_i' and H = Zu' Fuv = sum_i (C_i' Zu_i)'(R_i Fuv_i); the rows
    R_i Fuv_i are built from their Kronecker factors (_factor_rows).  S = L L'
    is factored and L inverted in place.  varV = diag(S^-1) - rowsum(Zv^2),
    and varU adds, for every row x of Cu Fuv (rebuilt in a second pass over
    the row blocks), x Cv x' = |L^-1 x'|^2 - |x Zv|^2.
    """
    from scipy.linalg import blas, lapack
    (I, M), J = U.shape, V.shape[0]
    half = (J + 1) // 2                                        # j blocks per RFP half
    k = half * M
    Ju = _factor_jacobian(X, U, independent=True)
    Zu = np.matmul(invFu, Ju.T.reshape(I, M, -1)).reshape(I * M, -1)
    Zu = Zu @ _inverse_cholesky(Ju @ Zu, "left-factor constraint system").T
    del Ju
    chol = np.linalg.cholesky(Fu)                              # C_i
    whiten = np.linalg.inv(chol)                               # R_i = C_i^-1
    Zw = np.matmul(chol.transpose(0, 2, 1), Zu.reshape(I, M, -1)).reshape(I * M, -1)
    UD = U * D
    VDt = np.zeros((M, 2 * half))
    VDt[:, :J] = (V * D).T
    step = max(1, ROW_BLOCK_BYTES // (8 * M * 2 * k))          # rows i per block
    blocks = [(slice(i, min(i + step, I)), slice(i * M, min(i + step, I) * M))
              for i in range(0, I, step)]

    rfp = np.zeros((k, 2 * k + 1), order="F")                  # S, lower, packed
    packed = rfp.ravel(order="F")
    H = np.zeros((Zu.shape[1], 2 * k))
    white = np.empty((step * M, 2 * k))
    for rows, rows_m in blocks:
        w = white[:rows_m.stop - rows_m.start]
        _factor_rows(whiten[rows], weights(rows), VDt, UD[rows], [w])
        lapack.dsfrk(2 * k, w.shape[0], -1.0, w.T, 1.0, packed, transr="T", uplo="L",
                     overwrite_c=1)
        H += Zw[rows_m].T @ w
    del white, w, Zw                                           # the second pass needs none
    lapack.dsfrk(2 * k, H.shape[0], 1.0, H.T, 1.0, packed, transr="T", uplo="L", overwrite_c=1)
    a, b = np.tril_indices(M)                                  # Fv_j[a, b], a >= b
    fv = np.empty((2 * half, a.size))
    fv[:J] = Fv[:, a, b]
    fv[J:] = a == b                                            # the padding block
    first = M * np.arange(half)[:, None]
    rfp[first + b, first + a + 1] += fv[:half]                 # A11 transposed
    rfp[first + a, first + b] += fv[half:]                     # A22

    _packed_inverse_cholesky(rfp, "right-factor Schur complement")
    Jv = _factor_jacobian(Z, V, independent=True)
    LJv = np.zeros((2, Jv.shape[0], k))                        # Jv' in two k-row halves
    LJv[0], LJv[1, :, :J * M - k] = Jv[:, :k], Jv[:, k:]
    del Jv
    _apply_inverse_factor(rfp, LJv[0].T, LJv[1].T)             # L^-1 Jv'
    Lc = _inverse_cholesky(LJv[0] @ LJv[0].T + LJv[1] @ LJv[1].T,
                           "right-factor constraint system")
    Zv = [(Lc @ part).T for part in LJv]                       # Fortran-ordered halves
    del LJv
    _apply_inverse_factor(rfp, *Zv, transpose=True)
    varV = (_packed_inverse_diagonal(rfp)
            - np.concatenate([_squares(part, 1) for part in Zv]))[:J * M]

    varU = np.einsum("imm->im", invFu).ravel() - _squares(Zu, 1)
    halves = np.empty((2, step * M, k))
    for rows, rows_m in blocks:
        x = halves[:, :rows_m.stop - rows_m.start]
        _factor_rows(invFu[rows], weights(rows), VDt, UD[rows], x)
        for part, h in zip(x, (H[:, :k], H[:, k:])):          # rows of Cu Fuv
            blas.dgemm(-1.0, h, Zu[rows_m], beta=1.0, c=part.T, trans_a=1, trans_b=1,
                       overwrite_c=1)
        xz = x[0] @ Zv[0] + x[1] @ Zv[1]
        _apply_inverse_factor(rfp, x[0].T, x[1].T)             # rows of (L^-1 x')'
        varU[rows_m] += _squares(x[0], 1) + _squares(x[1], 1) - _squares(xz, 1)
    return varU, varV


# ---------------------------------------------------------------------------
# delta propagation: latent factors -> coefficients
# ---------------------------------------------------------------------------

def _coef_eta_weight(dWM, dEM, design, base) -> np.ndarray:
    """Weights dEM_ij - dWM_ij x_i' base_j for the rows of design (X) given:
    with base_j = invFa_j gradA_j, of the A-row Jacobian d a_j / d eta_ij =
    invFa_j x_i weight_ij (B: Z and invFb_i gradB_i, derivatives transposed);
    with base_j = C1 z_j, of the vec(C) Jacobians (propagate_ab_to_c)."""
    return dEM - dWM * (design @ base.T)


def _coef_variances(invF, spread, sums, var_other):
    """Extra variances of the coefficient rows n from their own-axis factor
    (diag of invF_n spread_n invF_n) and from the other axis's factor
    (sum_m (invF_n sums_n)_km^2 var_other_nm); see propagate_uv_to_ab."""
    n, K, _ = spread.shape
    same = np.einsum("nkl,nkl->nk", invF @ spread, invF)
    other = np.einsum("nkm,nm->nk", (invF @ sums.reshape(n, K, -1)) ** 2, var_other)
    return same.ravel(), other.ravel()


def propagate_uv_to_ab(pieces: InferencePieces, varU: np.ndarray, varV: np.ndarray):
    """Extra variances of A and B due to uncertainty in the latent factors,
    flat in vec(A') / vec(B') order, and propagate_ab_to_c's HG_a, HG_b.

    Diagonal contractions of the Jacobian Q_jki = d a_j / d eta_ij
    (_coef_eta_weight), which is never formed: sum_i Q_jki^2 t_ji is the
    diagonal of invFa_j X' diag(weight_.j^2 t_j.) X invFa_j with
    t = varU (V D)^2', and Q_j (U D) is invFa_j X' diag(weight_.j) U D;
    B is the same with rows and columns swapped (Z, invFb, gradB, V D, U D).
    A third weight, base_j = C1 z_j with C1 = invFc vec(gradC), gives the
    X blocks HG_j of A (summed over i) and Z blocks HG_i of B (over j).  The
    sums are taken one row chunk at a time, from one _eta_derivatives each.
    """
    p, cov = pieces.params, pieces.cov
    X, Z, UD, VD = cov.X, cov.Z, p.U * p.D, p.V * p.D
    I, J, K, L, M = cov.I, cov.J, cov.K, cov.L, p.M
    UD2, VD2 = UD ** 2, VD ** 2
    varU, varV = varU.reshape(I, M), varV.reshape(J, M)
    base_a = np.einsum("jkl,jl->jk", pieces.invFa, pieces.gradA)
    base_b = np.einsum("ilm,im->il", pieces.invFb, pieces.gradB)
    C1 = (pieces.invFc @ pieces.gradC.ravel(order="F")).reshape(K, L, order="F")
    base_c = Z @ C1.T
    XUD = (X[:, :, None] * UD[:, None, :]).reshape(I, K * M)
    ZVD = (Z[:, :, None] * VD[:, None, :]).reshape(J, L * M)
    spread_a, sums_a, HG_a = np.zeros((J, K, K)), np.zeros((J, K * M)), np.zeros((J, K, K))
    spread_b, sums_b, HG_b = np.empty((I, L, L)), np.empty((I, L * M)), np.empty((I, L, L))
    for rows in nb.row_chunks(I, J):
        dWM, dEM = _eta_derivatives(pieces, rows)
        weight_a = _coef_eta_weight(dWM, dEM, X[rows], base_a)
        weight_b = _coef_eta_weight(dWM.T, dEM.T, Z, base_b[rows])      # J x n
        spread_a += _row_fisher_blocks(weight_a ** 2 * (varU[rows] @ VD2.T), X[rows])
        sums_a += weight_a.T @ XUD[rows]
        spread_b[rows] = _row_fisher_blocks(weight_b ** 2 * (varV @ UD2[rows].T), Z)
        sums_b[rows] = weight_b.T @ ZVD
        weight_c = _coef_eta_weight(dWM, dEM, X[rows], base_c)
        HG_a += _row_fisher_blocks(weight_c, X[rows])
        HG_b[rows] = _row_fisher_blocks(weight_c.T, Z)
    varAfromU, varAfromV = _coef_variances(pieces.invFa, spread_a, sums_a, varV)
    varBfromV, varBfromU = _coef_variances(pieces.invFb, spread_b, sums_b, varU)
    return varAfromU, varAfromV, varBfromU, varBfromV, HG_a, HG_b


# ---------------------------------------------------------------------------
# delta propagation: coefficients -> interactions
# ---------------------------------------------------------------------------

def _interaction_variance(jac, invF, var):
    """Extra variance of vec(C) from the rows of A (or B), given their vec(C)
    Jacobian blocks `jac` and conditional inverses `invF` (see propagate_ab_to_c)."""
    extra = np.maximum(var.reshape(invF.shape[:2]) - np.einsum("jkk->jk", invF), 0.0)
    return np.einsum("jck,jck->c", jac @ invF, jac) + np.einsum("jck,jk->c", jac ** 2, extra)


def propagate_ab_to_c(pieces: InferencePieces, HG_a, HG_b, varA, varB):
    """Extra variance of vec(C) due to uncertainty in A and in B.

    HG_a, HG_b are the X blocks of A and Z blocks of B from
    propagate_uv_to_ab; the vec(C) Jacobian blocks, in vec(C) order, are
    invFc (z_j kron HG_j) and invFc (HG_i kron x_i).  varA/varB are the full
    per-entry variances (conditional plus latent-propagated) in
    vec(A')/vec(B') order.  The conditional part contracts with the per-row
    inverse Fisher blocks; the propagated remainder, which carries the
    latent-to-coefficient chain, contracts diagonally.
    """
    cov = pieces.cov
    # one Jacobian at a time: varCfromA is taken before the B blocks are built
    varCfromA = _interaction_variance(
        pieces.invFc @ np.einsum("jl,jak->jlak", cov.Z, HG_a).reshape(cov.J, -1, cov.K),
        pieces.invFa, varA)
    return varCfromA, _interaction_variance(
        pieces.invFc @ np.einsum("ilm,ik->ilkm", HG_b, cov.X).reshape(cov.I, -1, cov.L),
        pieces.invFb, varB)


# ---------------------------------------------------------------------------
# delta propagation: everything -> dispersions
# ---------------------------------------------------------------------------

def _score_sensitivities(W, E, mu, r):
    """Derivatives of the dispersion score pieces with respect to the linear
    predictor: Q = d delta / d linpred, and P entering the curvature term."""
    Q = -W * E / r
    P = 2.0 * W * Q / mu
    return Q, P


def _dispersion_response(Q, P, invF, grad):
    """n x J response R = (-invF^2 grad)(Q - P) + invF Q of the one-step
    offset estimates to the linear predictor, through which both dispersion
    Jacobians factor."""
    return (-invF ** 2 * grad)[:, None] * (Q - P) + invF[:, None] * Q


def propagate_to_dispersions(pieces: InferencePieces, varA, varB, varU, varV):
    """Extra variances of S and T from uncertainty in A, B, U, V.

    varA/varB must be the full (conditional + propagated) variances in
    vec(A') / vec(B') order.  Returns two dicts keyed by source block.  The
    score sensitivities of a row chunk give both responses R: S's, summed
    over the chunk's columns, and T's (transposed), summed over its rows.
    A same-axis source (B and U for S) has Jacobian R @ (Z or V D), so it
    contributes sum_m (R @ factor)^2 var; an other-axis source (A and V for
    S) has entries (X or U D)[n, m] R[n, j], so it contributes
    sum_m factor^2 (R^2 @ var).  T's four sums over rows are accumulated.
    """
    p, cov = pieces.params, pieces.cov
    X, Z, UD, VD = cov.X, cov.Z, p.U * p.D, p.V * p.D
    varA, varB = varA.reshape(cov.J, cov.K), varB.reshape(cov.I, cov.L)
    varU, varV = varU.reshape(cov.I, p.M), varV.reshape(cov.J, p.M)
    var_s = {name: np.empty(cov.I) for name in "ABUV"}
    RX, RUD = np.zeros((cov.J, cov.K)), np.zeros((cov.J, p.M))
    R2varB, R2varU = np.zeros((cov.J, cov.L)), np.zeros((cov.J, p.M))
    for rows in nb.row_chunks(cov.I, cov.J):
        work = _workspace(pieces, rows)
        Q, P = _score_sensitivities(work.W, work.E, work.mu, work.r)
        R = _dispersion_response(Q, P, pieces.invFs[rows], pieces.gradS[rows])
        R2 = R ** 2
        var_s["A"][rows] = np.einsum("nm,nm->n", X[rows] ** 2, R2 @ varA)
        var_s["B"][rows] = np.einsum("nm,nm->n", (R @ Z) ** 2, varB[rows])
        var_s["U"][rows] = np.einsum("nm,nm->n", (R @ VD) ** 2, varU[rows])
        var_s["V"][rows] = np.einsum("nm,nm->n", UD[rows] ** 2, R2 @ varV)
        R = _dispersion_response(Q.T, P.T, pieces.invFt, pieces.gradT)
        R2 = R ** 2
        RX += R @ X[rows]
        RUD += R @ UD[rows]
        R2varB += R2 @ varB[rows]
        R2varU += R2 @ varU[rows]
    var_t = {"A": np.einsum("nm,nm->n", RX ** 2, varA),
             "B": np.einsum("nm,nm->n", Z ** 2, R2varB),
             "U": np.einsum("nm,nm->n", VD ** 2, R2varU),
             "V": np.einsum("nm,nm->n", RUD ** 2, varV)}
    return var_s, var_t


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

INFERENCE_STAGES = ("preprocess", "joint_uv", "uv_to_ab", "ab_to_c", "to_dispersions")


@dataclass
class InferenceResult:
    """Per-entry approximate standard errors.

    `stage_seconds` holds the wall seconds of each of INFERENCE_STAGES.
    """

    se_A: np.ndarray
    se_B: np.ndarray
    se_C: np.ndarray
    se_U: np.ndarray
    se_V: np.ndarray
    se_S: np.ndarray
    se_T: np.ndarray
    stage_seconds: dict = field(default_factory=dict)

    def blocks(self) -> dict:
        return {"A": self.se_A, "B": self.se_B, "C": self.se_C, "U": self.se_U,
                "V": self.se_V, "S": self.se_S, "T": self.se_T}


def standard_errors(Y, params: GbmParams, cov: CovariateSet,
                    prior: PriorConfig = None) -> InferenceResult:
    """Full inference pass: conditional + joint latent + delta propagation."""
    prior = prior or PriorConfig()
    clock = [time.perf_counter()]
    pieces = preprocess(Y, params, cov, prior)
    clock.append(time.perf_counter())
    varU, varV = joint_uv_uncertainty(pieces)
    clock.append(time.perf_counter())
    varAfromU, varAfromV, varBfromU, varBfromV, HG_a, HG_b = propagate_uv_to_ab(pieces, varU, varV)
    varA = np.einsum("jkk->jk", pieces.invFa).ravel() + varAfromU + varAfromV
    varB = np.einsum("ill->il", pieces.invFb).ravel() + varBfromU + varBfromV
    clock.append(time.perf_counter())
    varCfromA, varCfromB = propagate_ab_to_c(pieces, HG_a, HG_b, varA, varB)
    varC = np.diag(pieces.invFc) + varCfromA + varCfromB
    clock.append(time.perf_counter())
    var_s, var_t = propagate_to_dispersions(pieces, varA, varB, varU, varV)
    varS = pieces.invFs + var_s["A"] + var_s["B"] + var_s["U"] + var_s["V"]
    varT = pieces.invFt + var_t["A"] + var_t["B"] + var_t["U"] + var_t["V"]
    clock.append(time.perf_counter())
    shapes = GbmParams.shapes(cov.I, cov.J, cov.K, cov.L, params.M)
    return InferenceResult(
        se_A=np.sqrt(varA).reshape(shapes["A"]),
        se_B=np.sqrt(varB).reshape(shapes["B"]),
        se_C=np.sqrt(varC).reshape(shapes["C"], order="F"),
        se_U=np.sqrt(varU).reshape(shapes["U"]),
        se_V=np.sqrt(varV).reshape(shapes["V"]),
        se_S=np.sqrt(varS),
        se_T=np.sqrt(varT),
        stage_seconds={stage: end - start for stage, start, end
                       in zip(INFERENCE_STAGES, clock, clock[1:])},
    )


def wald_tests(estimates, ses, level=0.95):
    """Two-sided p-values and Wald confidence intervals."""
    from scipy.special import ndtr, ndtri
    estimates = np.asarray(estimates, dtype=np.float64)
    ses = np.asarray(ses, dtype=np.float64)
    if not np.all(np.isfinite(ses) & (ses > 0)):
        raise DomainError("standard errors must be finite and positive")
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    zstat = estimates / ses
    p_values = 2.0 * ndtr(-np.abs(zstat))
    z = ndtri(0.5 + level / 2.0)
    return {
        "p_values": p_values,
        "ci_lower": estimates - z * ses,
        "ci_upper": estimates + z * ses,
    }
