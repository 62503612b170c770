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

from .exceptions import DomainError, PreconditionError, ShapeError

CONSTRAINT_TOL = 1e-8


def _unchecked(cls, **fields):
    """An instance of cls holding `fields` as they are, without validation."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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
        # checked before the int64 cast, which wraps NaN, inf and >= 2**63 silently
        if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
            raise DomainError("count matrix has non-finite entries (NaN or infinity)")
        if not np.all(values >= 0):
            raise DomainError("count matrix has negative entries")
        if not np.all(values == np.floor(values)):
            raise DomainError("count matrix has non-integral entries")
        if values.dtype.kind in "uf" and not np.all(values < 2**63):
            raise DomainError("count matrix has entries of 2**63 or more, beyond the int64 range")
        object.__setattr__(self, "values", np.asarray(values, dtype=np.int64))

    @property
    def I(self) -> int:
        return self.values.shape[0]

    @property
    def J(self) -> int:
        return self.values.shape[1]

    def transposed(self) -> "DataMatrix":
        """Y' as a view of the same counts."""
        return _unchecked(DataMatrix, values=self.values.T)


class CovariateSet:
    """Row and column covariates with precomputed pseudoinverses.

    Parameters
    ----------
    X : ndarray of shape (I, K)
        Row covariates; first column all ones, remaining columns centered.
    Z : ndarray of shape (J, L)
        Column covariates, same conventions.

    Use :func:`nbgbm.estimation.standardize_covariates` (or pass already
    standardized matrices) before construction; the constructor validates
    the intercept/centering conventions and full column rank.
    """

    def __init__(self, X, Z):
        X = np.ascontiguousarray(X, dtype=np.float64)
        Z = np.ascontiguousarray(Z, dtype=np.float64)
        for name, Q in (("X", X), ("Z", Z)):
            if Q.ndim != 2:
                raise ShapeError(f"{name} must be 2-d")
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

    def transposed(self) -> "CovariateSet":
        """The designs of the transposed problem: Z for the rows, X for the columns."""
        return _unchecked(CovariateSet, X=self.Z, Z=self.X, Xplus=self.Zplus, Zplus=self.Xplus)


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

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        self.C = np.asarray(self.C, dtype=np.float64)
        self.D = np.atleast_1d(np.asarray(self.D, dtype=np.float64))
        self.U = np.asarray(self.U, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        self.S = np.asarray(self.S, dtype=np.float64)
        self.T = np.asarray(self.T, dtype=np.float64)
        self.omega = float(self.omega)

    @property
    def M(self) -> int:
        return self.D.shape[0]

    def copy(self) -> "GbmParams":
        return GbmParams(
            self.A.copy(), self.B.copy(), self.C.copy(), self.D.copy(),
            self.U.copy(), self.V.copy(), self.S.copy(), self.T.copy(), self.omega,
        )

    def transposed(self) -> "GbmParams":
        """Parameters for Y' (linear predictor Z B' + A X' + Z C' X' + V D U'),
        sharing the arrays."""
        return GbmParams(A=self.B, B=self.A, C=self.C.T, D=self.D,
                         U=self.V, V=self.U, S=self.T, T=self.S, omega=self.omega)

    def blocks(self) -> dict:
        """Named views of every block, for serialization and evaluation."""
        return {
            "A": self.A, "B": self.B, "C": self.C, "D": self.D,
            "U": self.U, "V": self.V, "S": self.S, "T": self.T,
            "omega": np.array([self.omega]),
        }

    @staticmethod
    def zeros(I, J, K, L, M) -> "GbmParams":
        return GbmParams(
            A=np.zeros((J, K)), B=np.zeros((I, L)), C=np.zeros((K, L)),
            D=np.zeros(M), U=np.zeros((I, M)), V=np.zeros((J, M)),
            S=np.zeros(I), T=np.zeros(J), omega=0.0,
        )


@dataclass(frozen=True)
class PriorConfig:
    """Normal prior precisions and log-dispersion prior means."""

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
        for name in ("lambda_a", "lambda_b", "lambda_c", "lambda_d",
                     "lambda_u", "lambda_v", "lambda_s", "lambda_t"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")

    def transposed(self) -> "PriorConfig":
        """The same priors with the row and column blocks swapped."""
        return _unchecked(
            PriorConfig, lambda_a=self.lambda_b, lambda_b=self.lambda_a,
            lambda_c=self.lambda_c, lambda_d=self.lambda_d,
            lambda_u=self.lambda_v, lambda_v=self.lambda_u,
            lambda_s=self.lambda_t, lambda_t=self.lambda_s, m_s=self.m_t, m_t=self.m_s)


@dataclass(frozen=True)
class FitConfig:
    """Optimizer controls.

    rho is the cap on the root-mean-square of every update step, tol the
    relative change of log-likelihood + log-prior that stops iteration,
    epsilon the pseudocount used in log-scale residuals, and
    s_floor/t_floor the bias-correction floors for the log-dispersions.
    """

    rho: float = 5.0
    tol: float = 1e-6
    max_iter: int = 50
    epsilon: float = 0.125
    s_floor: float = -4.0
    t_floor: float = -4.0
    standardize: bool = True
    init_st_iters: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.rho <= 0:
            raise DomainError("rho must be positive")
        if self.tol <= 0:
            raise DomainError("tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")


def _check_dims(params: GbmParams, cov: CovariateSet) -> None:
    I, J, K, L = cov.I, cov.J, cov.K, cov.L
    M = params.M
    checks = [
        ("A", params.A.shape, (J, K)),
        ("B", params.B.shape, (I, L)),
        ("C", params.C.shape, (K, L)),
        ("U", params.U.shape, (I, M)),
        ("V", params.V.shape, (J, M)),
        ("S", params.S.shape, (I,)),
        ("T", params.T.shape, (J,)),
    ]
    for name, got, want in checks:
        if got != want:
            raise ShapeError(f"component {name} has shape {got}, expected {want}")


def linear_predictor(params: GbmParams, cov: CovariateSet) -> np.ndarray:
    """Return the I x J matrix X A' + B Z' + X C Z' + U D V'."""
    _check_dims(params, cov)
    X, Z = cov.X, cov.Z
    out = X @ params.A.T + params.B @ Z.T + X @ params.C @ Z.T
    if params.M > 0:
        out += (params.U * params.D) @ params.V.T
    return out


def residuals(Y: DataMatrix, linpred: np.ndarray, epsilon: float = 0.125) -> np.ndarray:
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
    Xr = np.zeros_like(cov.X)
    Xr[:, keep_x] = cov.X[:, keep_x]
    Zr = np.zeros_like(cov.Z)
    Zr[:, keep_z] = cov.Z[:, keep_z]
    kept = Xr @ params.A.T + params.B @ Zr.T + Xr @ params.C @ Zr.T
    if keep_u.size:
        Ur = params.U[:, keep_u]
        kept += (Ur * params.D[keep_u]) @ params.V[:, keep_u].T
    return kept + resid


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
    report = check_constraints(params, cov, tol=CONSTRAINT_TOL)
    ortho = max(report.max_zta, report.max_xtb, report.max_xtu, report.max_ztv)
    scale = max(1.0, *(np.abs(q).max(initial=0.0) for q in (params.A, params.B, params.U, params.V)))
    if ortho > CONSTRAINT_TOL * scale:
        raise PreconditionError(
            f"orthogonality violation {ortho:.3e} exceeds {CONSTRAINT_TOL:.0e} * {scale:.3g}; "
            "decomposition is not valid"
        )
    X, Z = cov.X, cov.Z
    parts = {
        "ss_xa": float(np.sum((X @ params.A.T) ** 2)),
        "ss_bz": float(np.sum((params.B @ Z.T) ** 2)),
        "ss_xcz": float(np.sum((X @ params.C @ Z.T) ** 2)),
        "ss_udv": float(np.sum(((params.U * params.D) @ params.V.T) ** 2)) if params.M else 0.0,
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
    tol: float = CONSTRAINT_TOL
    strict: bool = False
    passed: bool = field(init=False)

    def __post_init__(self):
        ok = (
            max(self.max_zta, self.max_xtb, self.max_xtu, self.max_ztv) <= self.tol * self.scale
            and max(self.max_utu, self.max_vtv) <= self.tol
            and self.d_ordered and self.d_positive
            and abs(self.mean_exp_s - 1.0) <= self.tol
            and abs(self.mean_exp_t - 1.0) <= self.tol
        )
        if self.strict:
            ok = ok and self.u_signs_ok
        self.passed = ok


def first_nonzero_signs(U: np.ndarray) -> np.ndarray:
    """Sign of the first nonzero entry of each column; 0 for a zero column."""
    signs = np.zeros(U.shape[1])
    for m in range(U.shape[1]):
        nz = np.flatnonzero(U[:, m])
        if nz.size:
            signs[m] = np.sign(U[nz[0], m])
    return signs


def check_constraints(params: GbmParams, cov: CovariateSet,
                      tol: float = CONSTRAINT_TOL, strict: bool = False) -> ConstraintReport:
    """Report per-condition max violations; `passed` compares them to tol.

    Product checks are compared against tol * max(1, largest |entry| of the
    corresponding block) so the criterion is scale-free, and so is (d): a
    singular value at or below tol times that scale is not positive, since
    its factors are then fixed by rounding, not by the data (all-zero counts
    drive D there).  The column sign
    convention is reported always but only enters `passed` when strict=True,
    since it is enforced only at finalization.
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
        d_ordered=bool(np.all(np.diff(params.D) < 0)) if M > 1 else True,
        d_positive=bool(np.all(params.D > tol * scale)) if M else True,
        u_signs_ok=bool(np.all(first_nonzero_signs(params.U) >= 0)),
        mean_exp_s=float(np.mean(np.exp(params.S))),
        mean_exp_t=float(np.mean(np.exp(params.T))),
        scale=scale,
        tol=tol,
        strict=strict,
    )
    return report
