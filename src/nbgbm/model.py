"""Core model types, the linear predictor, residuals, and constraint checks.

The model for an I x J count matrix Y is, entrywise on the log scale,

    log E(Y) = X A' + B Z' + X C Z' + U D V'

with row covariates X (I x K), column covariates Z (J x L), coefficient
blocks A (J x K), B (I x L), C (K x L), and a rank-M latent term with
orthonormal factors U (I x M), V (J x M) and positive diagonal D.
Negative-binomial dispersions are parametrized as 1/r_ij = exp(s_i + t_j + w)
with mean-exp-one constraints on S and T.

Identifiability constraints enforced throughout:
  (a) X'X and Z'Z invertible,
  (b) Z'A = 0, X'B = 0, X'U = 0, Z'V = 0,
  (c) U'U = V'V = identity,
  (d) d_1 > d_2 > ... > d_M > 0,
  (e) first nonzero entry of each column of U positive (finalization only).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (DegenerateCovariateError, DomainError, PreconditionError, RankError,
                         ShapeError)
from .nb import row_chunks

CONSTRAINT_TOL = 1e-8
EPSILON = 0.125   # pseudocount of the log-scale residuals log(y + EPSILON)


def _numeric_objects(values: np.ndarray) -> np.ndarray:
    """An object array of Python numbers as int64 (all integers) or float64.

    Integers are range-checked here, where Python compares them exactly.
    """
    flat = values.ravel().tolist()
    if not all(isinstance(v, (numbers.Real, np.bool_)) for v in flat):
        raise DomainError("count matrix has entries that are not real numbers")
    if not all(isinstance(v, (numbers.Integral, np.bool_)) for v in flat):
        return values.astype(np.float64)
    if any(v < 0 for v in flat):
        raise DomainError("count matrix has negative entries")
    if any(v >= 2**63 for v in flat):
        raise DomainError("count matrix has entries of 2**63 or more, beyond the int64 range")
    return values.astype(np.int64)


@dataclass(frozen=True)
class DataMatrix:
    """Nonnegative integer count matrix."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ShapeError("count matrix must be 2-d with at least one row and column")
        if values.dtype.kind == "O":
            values = _numeric_objects(values)
        elif values.dtype.kind not in "biuf":
            raise DomainError(f"count matrix must be real numbers, not dtype {values.dtype}")
        # checked before the int64 cast, which wraps NaN, inf and >= 2**63
        # silently, and with no I x J temporary: the minimum or maximum is
        # NaN or infinite when an entry is, and integrality is checked one
        # row chunk at a time
        low, high = values.min(), values.max()
        if values.dtype.kind == "f" and not (np.isfinite(low) and np.isfinite(high)):
            raise DomainError("count matrix has non-finite entries (NaN or infinity)")
        if low < 0:
            raise DomainError("count matrix has negative entries")
        if values.dtype.kind == "f" and not all(np.all(values[rows] == np.floor(values[rows]))
                                                for rows in row_chunks(*values.shape)):
            raise DomainError("count matrix has non-integral entries")
        if values.dtype.kind in "uf" and high >= 2**63:
            raise DomainError("count matrix has entries of 2**63 or more, beyond the int64 range")
        object.__setattr__(self, "values", np.asarray(values, dtype=np.int64))

    @property
    def I(self) -> int:
        return self.values.shape[0]

    @property
    def J(self) -> int:
        return self.values.shape[1]


def _covariate_copy(name, Q) -> np.ndarray:
    """A float64 copy of covariate matrix `name`, checked finite first, then 2-d."""
    Q = np.array(Q, dtype=np.float64, order="C")
    if not np.all(np.isfinite(Q)):
        raise DomainError(f"{name} holds NaN or infinite entries")
    if Q.ndim != 2:
        raise ShapeError(f"{name} must be 2-d")
    return Q


def standardize_covariates(Xraw: np.ndarray, name="covariate matrix") -> np.ndarray:
    """Center non-intercept columns and scale them to unit mean square.

    Column 1 (the intercept) is left untouched and must already be all ones.
    """
    X = _covariate_copy(name, Xraw)
    if not np.allclose(X[:, 0], 1.0):
        raise DomainError("first covariate column must be all ones")
    for k in range(1, X.shape[1]):
        col = X[:, k] - X[:, k].mean()
        ms = np.mean(col ** 2)
        if ms <= 1e-12 * max(1.0, np.mean(X[:, k] ** 2)):
            raise DegenerateCovariateError(f"covariate column {k} has zero variance")
        X[:, k] = col / np.sqrt(ms)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankError("covariate matrix is rank deficient after standardization")
    return X


class CovariateSet:
    """Row and column covariates with precomputed pseudoinverses.

    Parameters
    ----------
    X : ndarray of shape (I, K)
        Row covariates; first column all ones, remaining columns centered.
    Z : ndarray of shape (J, L)
        Column covariates, same conventions.

    Use :func:`standardize_covariates` (or pass already standardized
    matrices) before construction; the constructor validates
    the intercept/centering conventions and full column rank.
    """

    def __init__(self, X, Z):
        X, Z = _covariate_copy("X", X), _covariate_copy("Z", Z)
        for name, Q in (("X", X), ("Z", Z)):
            n = Q.shape[0]
            if not np.allclose(Q[:, 0], 1.0):
                raise DomainError(f"first column of {name} must be all ones")
            if Q.shape[1] > 1:
                colsums = Q[:, 1:].sum(axis=0)
                if not np.all(np.abs(colsums) <= 1e-6 * max(1.0, n)):
                    raise DomainError(f"columns 2..{Q.shape[1]} of {name} must sum to zero")
            if np.linalg.matrix_rank(Q) < Q.shape[1]:
                raise DomainError(f"{name} is rank deficient")
        self.X = X
        self.Z = Z
        self.Xplus = np.linalg.solve(X.T @ X, X.T)
        self.Zplus = np.linalg.solve(Z.T @ Z, Z.T)

    @property
    def I(self) -> int:
        return self.X.shape[0]

    @property
    def J(self) -> int:
        return self.Z.shape[0]

    @property
    def K(self) -> int:
        return self.X.shape[1]

    @property
    def L(self) -> int:
        return self.Z.shape[1]


@dataclass
class GbmParams:
    """Full parameter state of the model.

    D is stored as a length-M vector (the diagonal).  M = 0 is supported
    everywhere: U, V have zero columns and D is empty.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    U: np.ndarray
    V: np.ndarray
    S: np.ndarray
    T: np.ndarray
    omega: float

    @staticmethod
    def shapes(I=0, J=0, K=0, L=0, M=0) -> dict:
        """The shape of each array block, in field order, at dimensions
        I, J, K, L, M; omega is a float.  Without dimensions, the keys name
        the blocks."""
        return {"A": (J, K), "B": (I, L), "C": (K, L), "D": (M,),
                "U": (I, M), "V": (J, M), "S": (I,), "T": (J,)}

    def __post_init__(self):
        for name in self.shapes():
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self.D = np.atleast_1d(self.D)
        self.omega = float(self.omega)

    @property
    def M(self) -> int:
        return self.D.shape[0]

    def copy(self) -> "GbmParams":
        return GbmParams(*(getattr(self, name).copy() for name in self.shapes()), self.omega)

    def blocks(self) -> dict:
        """Named views of every block, for serialization and evaluation."""
        return {**{name: getattr(self, name) for name in self.shapes()},
                "omega": np.array([self.omega])}

    @staticmethod
    def zeros(I, J, K, L, M) -> "GbmParams":
        return GbmParams(*map(np.zeros, GbmParams.shapes(I, J, K, L, M).values()), 0.0)


@dataclass(frozen=True)
class PriorConfig:
    """Normal prior precisions (finite, positive) and log-dispersion means (finite)."""

    lambda_a: float = 1.0
    lambda_b: float = 1.0
    lambda_c: float = 1.0
    lambda_d: float = 1.0
    lambda_u: float = 1.0
    lambda_v: float = 1.0
    lambda_s: float = 1.0
    lambda_t: float = 1.0
    m_s: float = 0.0
    m_t: float = 0.0

    def __post_init__(self):
        for name in (f"lambda_{block.lower()}" for block in GbmParams.shapes()):
            if not 0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be finite and positive")
        if not np.isfinite([self.m_s, self.m_t]).all():
            raise DomainError("m_s and m_t must be finite")


@dataclass(frozen=True)
class FitConfig:
    """Optimizer controls.

    tol is the relative change of log-likelihood + log-prior that stops
    iteration, and seed the seed of the random latent factors of the
    initialization.
    """

    tol: float = 1e-6
    max_iter: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise DomainError("tol must be finite and positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")


def _check_dims(params: GbmParams, cov: CovariateSet) -> None:
    for name, want in GbmParams.shapes(cov.I, cov.J, cov.K, cov.L, params.M).items():
        got = getattr(params, name).shape
        if got != want:
            raise ShapeError(f"component {name} has shape {got}, expected {want}")


def linear_predictor(params: GbmParams, cov: CovariateSet, rows: slice = slice(None),
                     cols: slice = slice(None)) -> np.ndarray:
    """Return the I x J matrix X A' + B Z' + X C Z' + U D V', or the rows
    `rows` and columns `cols` of it, as one product of the stacked factors
    [X | B | X C | U D] and [A | Z | Z | V]."""
    _check_dims(params, cov)
    X = cov.X[rows]
    left = np.concatenate([X, params.B[rows], X @ params.C, params.U[rows] * params.D], axis=1)
    return left @ np.concatenate([params.A, cov.Z, cov.Z, params.V], axis=1)[cols].T


def residuals(Y: DataMatrix, linpred: np.ndarray, epsilon: float = EPSILON) -> np.ndarray:
    """log(Y + epsilon) minus the linear predictor (log link)."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    values = Y.values if isinstance(Y, DataMatrix) else np.asarray(Y)
    if values.shape != linpred.shape:
        raise ShapeError(f"counts {values.shape} and linear predictor {linpred.shape} differ")
    return np.log(values + epsilon) - linpred


def partial_residuals(params, cov, resid, keep_x=(), keep_z=(), keep_u=()):
    """Residuals with selected effects added back.

    keep_x, keep_z, keep_u are 0-based column indices of X, Z, and U whose
    contributions are retained; all other columns are adjusted out.  Keeping
    everything returns log(Y + epsilon) exactly; keeping nothing returns the
    residuals unchanged.
    """
    _check_dims(params, cov)
    keep_x = np.asarray(sorted(keep_x), dtype=int)
    keep_z = np.asarray(sorted(keep_z), dtype=int)
    keep_u = np.asarray(sorted(keep_u), dtype=int)
    for name, idx, limit in (("x", keep_x, cov.K), ("z", keep_z, cov.L), ("u", keep_u, params.M)):
        if idx.size and (idx.min() < 0 or idx.max() >= limit):
            raise IndexError(f"keep_{name} index out of range [0, {limit})")
    # dropping column k of X (of Z) zeroes column k of A (of B) and row
    # (column) k of C; dropping column m of U zeroes the m-th singular value
    kept = params.copy()
    drop_x = np.setdiff1d(np.arange(cov.K), keep_x)
    drop_z = np.setdiff1d(np.arange(cov.L), keep_z)
    kept.A[:, drop_x] = kept.C[drop_x] = 0.0
    kept.B[:, drop_z] = kept.C[:, drop_z] = 0.0
    kept.D[np.setdiff1d(np.arange(params.M), keep_u)] = 0.0
    return linear_predictor(kept, cov) + resid


def residual_precisions(mu: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Model-based precisions r*mu/(r + mu) of the log-scale residuals."""
    mu = np.asarray(mu, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if np.any(mu <= 0) or np.any(r <= 0):
        raise DomainError("mu and r must be positive")
    return r * mu / (r + mu)


def sum_of_squares_decomposition(params: GbmParams, cov: CovariateSet) -> dict:
    """Additive sum-of-squares split of the linear predictor.

    Requires the orthogonality constraints Z'A = 0, X'B = 0, X'U = 0,
    Z'V = 0 (within CONSTRAINT_TOL), under which the four terms are
    mutually orthogonal and their sums of squares add up exactly.
    """
    report = check_constraints(params, cov)
    ortho = max(report.max_zta, report.max_xtb, report.max_xtu, report.max_ztv)
    if ortho > CONSTRAINT_TOL * report.scale:
        raise PreconditionError(
            f"orthogonality violation {ortho:.3e} exceeds "
            f"{CONSTRAINT_TOL:.0e} * {report.scale:.3g}; "
            "decomposition is not valid"
        )
    X, Z = cov.X, cov.Z
    parts = {
        "ss_xa": float(np.sum((X @ params.A.T) ** 2)),
        "ss_bz": float(np.sum((params.B @ Z.T) ** 2)),
        "ss_xcz": float(np.sum((X @ params.C @ Z.T) ** 2)),
        "ss_udv": float(np.sum(((params.U * params.D) @ params.V.T) ** 2)),
    }
    parts["ss_total"] = float(np.sum(linear_predictor(params, cov) ** 2))
    return parts


@dataclass
class ConstraintReport:
    """Max absolute violations of each identifiability condition."""

    max_zta: float
    max_xtb: float
    max_xtu: float
    max_ztv: float
    max_utu: float
    max_vtv: float
    d_ordered: bool
    d_positive: bool
    u_signs_ok: bool
    mean_exp_s: float
    mean_exp_t: float
    scale: float = 1.0
    passed: bool = field(init=False)

    def __post_init__(self):
        ortho = max(self.max_zta, self.max_xtb, self.max_xtu, self.max_ztv)
        self.passed = (
            ortho <= CONSTRAINT_TOL * self.scale
            and max(self.max_utu, self.max_vtv) <= CONSTRAINT_TOL
            and self.d_ordered and self.d_positive
            and abs(self.mean_exp_s - 1.0) <= CONSTRAINT_TOL
            and abs(self.mean_exp_t - 1.0) <= CONSTRAINT_TOL
        )


def nullspace_frame(design: np.ndarray, M: int, rng) -> np.ndarray:
    """n x M orthonormal frame with columns orthogonal to the design's span.

    Gaussian draws projected out of span(design) and orthonormalized by QR,
    with the signs fixed so that R has a positive diagonal: a uniformly
    distributed (Haar) frame in that nullspace, at O(n M^2) cost.  M = 0
    gives an n x 0 frame and draws nothing.
    """
    raw = rng.standard_normal((design.shape[0], M))
    raw -= design @ np.linalg.solve(design.T @ design, design.T @ raw)
    q, r = np.linalg.qr(raw)
    return q * np.sign(np.diag(r))


def first_nonzero_signs(U: np.ndarray) -> np.ndarray:
    """Sign of the first nonzero entry of each column; 0 for a zero column."""
    signs = np.zeros(U.shape[1])
    for m in range(U.shape[1]):
        nz = np.flatnonzero(U[:, m])
        if nz.size:
            signs[m] = np.sign(U[nz[0], m])
    return signs


def check_constraints(params: GbmParams, cov: CovariateSet) -> ConstraintReport:
    """Report per-condition max violations; `passed` compares them to
    CONSTRAINT_TOL.

    Product checks are compared against CONSTRAINT_TOL * max(1, largest
    |entry| of the corresponding block) so the criterion is scale-free, and
    so is (d): a singular value at or below CONSTRAINT_TOL times that scale
    is not positive, since its factors are then fixed by rounding, not by
    the data (all-zero counts drive D there).  The column sign convention
    (u_signs_ok) is reported but does not enter `passed`, since it is
    enforced only at finalization.
    """
    _check_dims(params, cov)
    M = params.M
    if M >= min(cov.I, cov.J):
        raise ShapeError(f"M = {M} must be smaller than min(I, J) = {min(cov.I, cov.J)}")

    def maxabs(q):
        return float(np.abs(q).max()) if q.size else 0.0

    eye = np.eye(M)
    scale = max(1.0, *(maxabs(q) for q in (params.A, params.B, params.U, params.V)))
    report = ConstraintReport(
        max_zta=maxabs(cov.Z.T @ params.A),
        max_xtb=maxabs(cov.X.T @ params.B),
        max_xtu=maxabs(cov.X.T @ params.U),
        max_ztv=maxabs(cov.Z.T @ params.V),
        max_utu=maxabs(params.U.T @ params.U - eye),
        max_vtv=maxabs(params.V.T @ params.V - eye),
        d_ordered=bool(np.all(np.diff(params.D) < 0)),
        d_positive=bool(np.all(params.D > CONSTRAINT_TOL * scale)),
        u_signs_ok=bool(np.all(first_nonzero_signs(params.U) >= 0)),
        mean_exp_s=float(np.mean(np.exp(params.S))),
        mean_exp_t=float(np.mean(np.exp(params.T))),
        scale=scale,
    )
    return report
