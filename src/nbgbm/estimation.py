"""MAP estimation via bounded regularized Fisher scoring.

Each outer iteration cycles through the blocks A, B, C, D, G = U*D,
H = V*D, S, T.  Every block update is an optimization-projection step:
a regularized Fisher-scoring (or Newton, for S/T) step whose root mean
square is capped at rho, followed by a projection back onto the
identifiability-constrained parameter set that leaves the linear predictor
(hence the likelihood) unchanged by compensating through other blocks.

Each step is taken on the log-posterior after its projection, so the prior
term it regularizes is the one the projected state actually carries: A, B,
C and D their own priors; G and H the D prior lambda_d (the SVD refactoring
keeps ||U||^2 and ||V||^2 constant and puts ||G||^2 into ||D||^2); S and T
their priors at the recentred offsets (the common shift goes into omega,
which has no prior).  The cycle is then an ascent method on the quantity
FitState.log_posterior reports.

Rows and columns are symmetric (Y' swaps X and Z, A and B, U and V, S and
T, and turns C into C'), so every B, H and T update and projection is its
A, G or S twin run on FitState.transposed(), which shares the arrays.

Workspace invariant: after make_state and after every block update,
state.work is the NB workspace (mu, r, W, E) of state.params.  Each update
reads it as it stands and brings it up to date with what it changed: the
mean blocks A, B, C, D, G and H recompute the linear predictor, mu, W and E
and keep r; the S and T steps recompute r, W and E and keep mu.  The bare
projections (project_a, project_g, project_s and their twins) leave the
likelihood unchanged and do not touch it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import nb
from .exceptions import (
    DegenerateCovariateError,
    DomainError,
    NumericError,
    RankError,
    ShapeError,
)
from .model import (
    ConstraintReport,
    CovariateSet,
    DataMatrix,
    FitConfig,
    GbmParams,
    PriorConfig,
    check_constraints,
    first_nonzero_signs,
    linear_predictor,
)
from .rngstreams import stream_rng


def standardize_covariates(Xraw: np.ndarray) -> np.ndarray:
    """Center non-intercept columns and scale them to unit mean square.

    Column 1 (the intercept) is left untouched and must already be all ones.
    """
    X = np.array(Xraw, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("covariate matrix must be 2-d")
    if not np.allclose(X[:, 0], 1.0):
        raise DomainError("first covariate column must be all ones")
    n = X.shape[0]
    for k in range(1, X.shape[1]):
        col = X[:, k] - X[:, k].mean()
        ms = np.mean(col ** 2)
        if ms <= 1e-12 * max(1.0, np.mean(X[:, k] ** 2)):
            raise DegenerateCovariateError(f"covariate column {k} has zero variance")
        X[:, k] = col / np.sqrt(ms)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankError("covariate matrix is rank deficient after standardization")
    return X


def prepare_covariates(X, Z, standardize=True) -> CovariateSet:
    """Standardize (optionally) and wrap the designs with pseudoinverses."""
    if standardize:
        X = standardize_covariates(X)
        Z = standardize_covariates(Z)
    return CovariateSet(X, Z)


def compact_svd(Q: np.ndarray, rank: int):
    """Rank-`rank` compact SVD of a dense matrix; singular values descending."""
    if rank == 0:
        return np.zeros((Q.shape[0], 0)), np.zeros(0), np.zeros((Q.shape[1], 0))
    U, s, Vt = np.linalg.svd(Q, full_matrices=False)
    return U[:, :rank], s[:rank], Vt[:rank].T


def svd_of_product(P: np.ndarray, Q: np.ndarray):
    """Compact SVD of P Q' without forming the I x J product.

    P is I x M and Q is J x M; QR-reduce both sides, SVD the small M x M
    core.  Returns (U, d, V) with U d V' = P Q' and d descending.
    """
    M = P.shape[1]
    if M == 0:
        return np.zeros((P.shape[0], 0)), np.zeros(0), np.zeros((Q.shape[0], 0))
    Qp, Rp = np.linalg.qr(P)
    Qq, Rq = np.linalg.qr(Q)
    Us, s, Vst = np.linalg.svd(Rp @ Rq.T)
    if M > 1 and np.any(np.diff(s) > -1e-10 * max(s[0], 1e-300)):
        warnings.warn("nearly repeated singular values in latent factor update")
    return Qp @ Us, s, Qq @ Vst.T


def bounded_fisher_step(beta, grad, fisher, lam, rho):
    """One regularized Fisher-scoring step with RMS-capped length.

    Solves (fisher + lam*I) xi = grad - lam*beta and returns
    beta + xi * min(1, rho * sqrt(dim) / ||xi||).  `lam` may be a scalar or
    a vector of per-coordinate precisions.
    """
    beta = np.asarray(beta, dtype=np.float64)
    rhs = np.asarray(grad, dtype=np.float64) - np.asarray(lam, dtype=np.float64) * beta
    fisher = np.asarray(fisher, dtype=np.float64)
    return beta + _batched_capped_solve(fisher[None], rhs[None], lam, rho)[0]


def _capped(xi_rows: np.ndarray, rho: float) -> np.ndarray:
    """Cap each row of xi_rows at root mean square rho."""
    dim = xi_rows.shape[1]
    norms = np.linalg.norm(xi_rows, axis=1)
    factor = np.minimum(1.0, np.where(norms > 0, rho * np.sqrt(dim) / np.maximum(norms, 1e-300), 1.0))
    return xi_rows * factor[:, None]


@dataclass
class AdaptiveStepState:
    """Per-coordinate maximum step sizes for the S and T updates."""

    rho_s: np.ndarray
    rho_t: np.ndarray

    @staticmethod
    def fresh(I, J, rho) -> "AdaptiveStepState":
        return AdaptiveStepState(rho_s=np.full(I, rho), rho_t=np.full(J, rho))


@dataclass
class FitState:
    """Mutable bundle passed between block updates.

    `y` holds the counts as float64 and `log_y_factorial` the sum of log y!
    over them; both are computed once and shared with transposed twins.
    """

    Y: DataMatrix
    cov: CovariateSet
    params: GbmParams
    prior: PriorConfig
    config: FitConfig
    adapt: AdaptiveStepState
    work: nb.NbWorkspace = None
    clamp_events: int = 0
    y: np.ndarray = field(default=None, repr=False)
    log_y_factorial: float = None

    def __post_init__(self):
        if self.y is None:
            self.y = self.Y.values.astype(np.float64)
            self.log_y_factorial = float(np.sum(gammaln(self.y + 1.0)))

    def transposed(self) -> "FitState":
        """The same state for Y', sharing the arrays, the workspace included."""
        return FitState(Y=self.Y.transposed(), cov=self.cov.transposed(),
                        params=self.params.transposed(), prior=self.prior.transposed(),
                        config=self.config,
                        adapt=AdaptiveStepState(rho_s=self.adapt.rho_t, rho_t=self.adapt.rho_s),
                        work=self.work.transposed() if self.work is not None else None,
                        clamp_events=self.clamp_events, y=self.y.T,
                        log_y_factorial=self.log_y_factorial)

    def refresh(self, mean=True, dispersion=True):
        """Bring the workspace up to date with the parameters.

        `mean` recomputes the linear predictor and mu, `dispersion` r; W and
        E are recomputed either way.  The default recomputes everything.
        Clipped exponents of the recomputed mu or r add to clamp_events.
        The arrays are laid out like the counts, so a transposed twin
        recomputes them in the orientation of its original and keeps views.
        """
        if self.y.flags.c_contiguous:
            self.work = self._recomputed(mean, dispersion)
        else:
            self.work = self.transposed()._recomputed(mean, dispersion).transposed()
        self.clamp_events += self.work.clamped

    def _recomputed(self, mean, dispersion) -> nb.NbWorkspace:
        p, w = self.params, self.work
        mu, mu_clamped = nb.means(linear_predictor(p, self.cov)) if mean else (w.mu, 0)
        r, r_clamped = nb.inverse_dispersions(p.S, p.T, p.omega) if dispersion else (w.r, 0)
        return nb.NbWorkspace(mu, r, *nb.weights_and_scores(self.y, mu, r),
                              clamped=mu_clamped + r_clamped)

    def log_posterior(self) -> float:
        """Log-likelihood plus log-prior (normalizing constants included),
        the likelihood read from the workspace."""
        p, w = self.params, self.work
        loglik = float(np.sum(nb.nb_log_pmf(self.y, w.mu, w.r, log_y_factorial=0.0))
                       - self.log_y_factorial)
        pr = self.prior

        def normal_term(q, lam, mean=0.0):
            return 0.5 * q.size * np.log(lam / (2 * np.pi)) - 0.5 * lam * np.sum((q - mean) ** 2)

        logprior = (
            normal_term(p.A, pr.lambda_a) + normal_term(p.B, pr.lambda_b)
            + normal_term(p.C, pr.lambda_c) + normal_term(p.D, pr.lambda_d)
            + normal_term(p.U, pr.lambda_u) + normal_term(p.V, pr.lambda_v)
            + normal_term(p.S, pr.lambda_s, pr.m_s) + normal_term(p.T, pr.lambda_t, pr.m_t)
        )
        return loglik + float(logprior)


def make_state(Y, cov, params, prior=None, config=None) -> FitState:
    prior = prior or PriorConfig()
    config = config or FitConfig()
    state = FitState(Y=Y, cov=cov, params=params, prior=prior, config=config,
                     adapt=AdaptiveStepState.fresh(cov.I, cov.J, config.rho))
    state.refresh()
    return state


# ---------------------------------------------------------------------------
# likelihood-preserving projections
# ---------------------------------------------------------------------------

def project_a(state: FitState):
    """Enforce Z'A = 0, compensating through C."""
    p, cov = state.params, state.cov
    Q = cov.Zplus @ p.A
    p.A -= cov.Z @ Q
    p.C += Q.T


def project_g(state: FitState, G: np.ndarray):
    """Absorb an unconstrained left-factor step G (I x M).

    Projects G onto the nullspace of X' (compensating through A, then A's
    own projection through C) and refactors G V' by compact SVD so that the
    new (U, D, V) satisfy the orthonormality constraints.  The linear
    predictor of the pre-projection state (with latent part G V') is
    preserved exactly.
    """
    p, cov = state.params, state.cov
    Q = cov.Xplus @ G
    G = G - cov.X @ Q
    p.A += p.V @ Q.T
    Q2 = cov.Zplus @ p.A
    p.A -= cov.Z @ Q2
    p.C += Q2.T
    p.U, p.D, p.V = svd_of_product(G, p.V)


def _log_mean_exp(x):
    """log mean exp(x) and the softmax weights exp(x) / sum exp(x)."""
    e = np.exp(x - x.max())
    total = e.sum()
    return float(x.max() + np.log(total / x.size)), e / total


def project_s(state: FitState):
    """Recenter S to mean-exp one, compensating through omega."""
    p = state.params
    c, _ = _log_mean_exp(p.S)
    p.S -= c
    p.omega += c


def _mirrored(step):
    """The B, H or T twin of an A, G or S step: `step` on the transposed state.

    `step` is bound here, so a wrapper later installed on its module attribute
    is not entered twice.  The caller's params and adapt keep their identity."""
    def mirrored(state: FitState, *args):
        flipped = state.transposed()
        step(flipped, *args)
        back = flipped.transposed()
        vars(state.params).update(vars(back.params))
        vars(state.adapt).update(vars(back.adapt))
        state.work = back.work
        state.clamp_events = back.clamp_events
    return mirrored


project_b = _mirrored(project_a)   # X'B = 0, compensating through C
project_h = _mirrored(project_g)   # right-factor step H (J x M)
project_t = _mirrored(project_s)   # mean-exp-one T


# ---------------------------------------------------------------------------
# block updates
# ---------------------------------------------------------------------------

def _row_fisher_blocks(W, design):
    """design' diag(W[:, j]) design for every column j of W: the Fisher blocks
    of the rows of A (pass W' and Z for those of B)."""
    n, K = design.shape
    outer = (design[:, :, None] * design[:, None, :]).reshape(n, K * K)
    return (W.T @ outer).reshape(W.shape[1], K, K)


def _batched_capped_solve(F, rhs, lam, rho):
    """Solve (F_n + diag(lam)) xi_n = rhs_n for all n and cap row RMS at rho."""
    n, d = rhs.shape
    A = F + np.diag(np.broadcast_to(np.asarray(lam, dtype=float), (d,)))[None, :, :]
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
        raise NumericError("non-finite gradient or Fisher information in block solve")
    xi = np.linalg.solve(A, rhs[..., None])[..., 0]
    return _capped(xi, rho)


def update_a(state: FitState):
    """Fisher-scoring step on each row of A, then the A projection."""
    p, cov, w = state.params, state.cov, state.work
    F = _row_fisher_blocks(w.W, cov.X)                    # (J, K, K)
    rhs = w.E.T @ cov.X - state.prior.lambda_a * p.A      # (J, K)
    p.A += _batched_capped_solve(F, rhs, state.prior.lambda_a, state.config.rho)
    project_a(state)
    state.refresh(dispersion=False)


update_b = _mirrored(update_a)   # rows of B, then the B projection


def _fisher_c_from_blocks(blocks, Z) -> np.ndarray:
    """KL x KL Fisher information for vec(C) from the J x K x K Fisher blocks
    of the rows of A: sum_j (z_j z_j') kron blocks_j."""
    J, K, _ = blocks.shape
    L = Z.shape[1]
    F4 = _row_fisher_blocks(blocks.reshape(J, K * K), Z).reshape(K, K, L, L)
    return F4.transpose(2, 0, 3, 1).reshape(K * L, K * L)


def fisher_c(W, cov) -> np.ndarray:
    """KL x KL Fisher information for vec(C) (no regularization)."""
    return _fisher_c_from_blocks(_row_fisher_blocks(W, cov.X), cov.Z)


def update_c(state: FitState):
    """Joint Fisher-scoring step on vec(C).  C is unconstrained."""
    p, cov, w = state.params, state.cov, state.work
    F = fisher_c(w.W, cov)
    grad = (cov.X.T @ w.E @ cov.Z).ravel(order="F")
    vecC = p.C.ravel(order="F")
    vecC = bounded_fisher_step(vecC, grad, F, state.prior.lambda_c, state.config.rho)
    p.C = vecC.reshape(cov.K, cov.L, order="F")
    state.refresh(dispersion=False)


def fisher_d(W, U, V) -> np.ndarray:
    """M x M Fisher information for the diagonal of D."""
    M = U.shape[1]
    return np.einsum("jp,jp->p", _row_fisher_blocks(W, U).reshape(-1, M * M),
                     (V[:, :, None] * V[:, None, :]).reshape(-1, M * M)).reshape(M, M)


def update_d(state: FitState):
    """Fisher-scoring step on the singular values (no projection needed)."""
    p, w = state.params, state.work
    if p.M == 0:
        return
    F = fisher_d(w.W, p.U, p.V)
    grad = np.einsum("im,im->m", p.U, w.E @ p.V)
    p.D = bounded_fisher_step(p.D, grad, F, state.prior.lambda_d, state.config.rho)
    state.refresh(dispersion=False)


def update_g(state: FitState):
    """Optimization-projection step on the left factors G = U * D.

    The step is taken on the posterior after projection: project_g refactors
    G V' by SVD, so the U and V priors are constant and the only G-dependent
    prior term left is the D prior lambda_d ||G||^2 / 2 (the new singular
    values are those of G outside span(X), and the current G = U D lies
    there already).  The step therefore regularizes G with lambda_d.
    """
    p, w = state.params, state.work
    if p.M == 0:
        return
    G = p.U * p.D
    lam = state.prior.lambda_d
    F = _row_fisher_blocks(w.W.T, p.V)                    # (I, M, M)
    rhs = w.E @ p.V - lam * G
    G = G + _batched_capped_solve(F, rhs, lam, state.config.rho)
    project_g(state, G)
    state.refresh(dispersion=False)


update_h = _mirrored(update_g)   # right factors H = V * D, prior lambda_d


def _newton_dispersion_step(offsets, grad, hess, rho_vec):
    """Per-coordinate bounded Newton (or gradient fallback) step."""
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        bad = int(np.flatnonzero(~(np.isfinite(grad) & np.isfinite(hess)))[0])
        raise NumericError(f"non-finite dispersion derivative at entry {bad}")
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.where(hess < 0, -grad / hess, grad)
    step = np.clip(xi, -rho_vec, rho_vec)
    return offsets + step, np.abs(xi) > rho_vec


def _recentred_prior_gradient(offsets, lam, mean):
    """Gradient of the Normal(mean, 1/lam) log-prior on recentred offsets.

    The projection that follows an S (or T) step subtracts
    c = log mean exp(offsets) and moves it into omega, which has no prior,
    so the step sees -lam ||offsets - c - mean||^2 / 2.  Its gradient is
    -lam dev_k + lam w_k sum_i dev_i with dev = offsets - c - mean and
    w = softmax(offsets).
    """
    c, weights = _log_mean_exp(offsets)
    dev = offsets - c - mean
    return -lam * dev + lam * weights * dev.sum()


def update_s(state: FitState):
    """Bounded Newton step on each s_i, adaptive caps, then the projection.

    The step is taken on the posterior after projection: its prior gradient
    is that of lambda_s ||S - m_s||^2 / 2 at the recentred S (see
    _recentred_prior_gradient), since the common shift goes into omega.
    """
    p, pr = state.params, state.prior
    derivs = nb.dispersion_derivatives(state.y, state.work.mu, state.work.r)
    grad = _recentred_prior_gradient(p.S, pr.lambda_s, pr.m_s) + derivs.delta.sum(axis=1)
    hess = -pr.lambda_s + derivs.delta_prime.sum(axis=1)
    p.S, exceeded = _newton_dispersion_step(p.S, grad, hess, state.adapt.rho_s)
    state.adapt.rho_s = np.where(exceeded, state.adapt.rho_s / 2.0, state.config.rho)
    project_s(state)
    state.refresh(mean=False)


update_t = _mirrored(update_s)   # column offsets, prior lambda_t and m_t


def bias_correct_dispersions(state: FitState, s_floor=None, t_floor=None):
    """Softplus-floor the log-dispersion offsets, then re-project.

    Applied once after the final iteration; counteracts the downward bias
    of the offsets when the true values are very low.
    """
    p = state.params
    s_floor = state.config.s_floor if s_floor is None else s_floor
    t_floor = state.config.t_floor if t_floor is None else t_floor
    p.S = s_floor + np.logaddexp(0.0, p.S - s_floor)
    project_s(state)
    p.T = t_floor + np.logaddexp(0.0, p.T - t_floor)
    project_t(state)


def finalize_factor_signs(params: GbmParams):
    """Sort singular values descending and fix the column sign convention."""
    if params.M == 0:
        return
    order = np.argsort(-params.D)
    params.D = params.D[order]
    params.U = params.U[:, order]
    params.V = params.V[:, order]
    signs = first_nonzero_signs(params.U)
    if np.any(signs == 0):
        warnings.warn("zero column in latent factors; sign convention left unset")
    flip = np.where(signs < 0, -1.0, 1.0)
    params.U *= flip
    params.V *= flip


# ---------------------------------------------------------------------------
# initialization and the outer loop
# ---------------------------------------------------------------------------

def initial_params(Y: DataMatrix, cov: CovariateSet, M: int,
                   prior: PriorConfig = None, config: FitConfig = None) -> GbmParams:
    """Least-squares warm start on log counts plus a tiny random factorization.

    A, B, C minimize the sum of squared log-scale residuals with the latent
    part excluded (which keeps the factors from chasing outliers before the
    dispersions are estimated); U, D, V come from the rank-M SVD of an
    I x J matrix with i.i.d. Normal(0, 1e-16) entries; S, T, omega start at
    zero and are refined by a few dispersion update cycles.
    """
    prior = prior or PriorConfig()
    config = config or FitConfig()
    if M >= min(cov.I, cov.J):
        raise ShapeError(f"M = {M} must be smaller than min(I, J) = {min(cov.I, cov.J)}")
    logy = np.log(Y.values + config.epsilon)
    C = cov.Xplus @ logy @ cov.Zplus.T
    A = (cov.Xplus @ logy - C @ cov.Z.T).T
    B = logy @ cov.Zplus.T - cov.X @ C
    rng = stream_rng(config.seed, "init")
    noise = rng.normal(scale=1e-8, size=(cov.I, cov.J))
    U, D, V = compact_svd(noise, M)
    params = GbmParams(A=A, B=B, C=C, D=D, U=U, V=V,
                       S=np.zeros(cov.I), T=np.zeros(cov.J), omega=0.0)
    state = make_state(Y, cov, params, prior, config)
    for _ in range(config.init_st_iters):
        update_s(state)
        update_t(state)
    return state.params


@dataclass
class FitResult:
    """Final constrained parameters plus the optimization trail.

    `constraints` is the identifiability check of the final parameters; a
    fit whose `constraints.passed` is false is returned with a warning.
    `clamp_events` counts exponents clipped at +-700 each time the workspace
    is recomputed (initialization included): entries of the linear
    predictor when mu is recomputed (after A, B, C, D, G and H steps) and
    of -(s_i + t_j + omega) when r is (after S and T steps); a full refresh
    counts both.
    """

    params: GbmParams
    trace: list
    converged: bool
    iterations: int
    clamp_events: int
    cov: CovariateSet = field(repr=False, default=None)
    constraints: ConstraintReport = field(repr=False, default=None)


_UPDATE_CYCLE = ("A", "B", "C", "D", "G", "H", "S", "T")


def fit(Y, cov, M, prior: PriorConfig = None, config: FitConfig = None,
        init_params: GbmParams = None) -> FitResult:
    """Fit the model by cycling optimization-projection steps per block.

    Stops when the relative change of log-likelihood + log-prior drops
    below config.tol or max_iter is reached; then applies the dispersion
    bias correction and finalizes the factor ordering/sign conventions.
    `init_params` overrides the default initialization (it must satisfy the
    constraints; used for warm starts and sensitivity checks).
    """
    prior = prior or PriorConfig()
    config = config or FitConfig()
    if not isinstance(Y, DataMatrix):
        Y = DataMatrix(Y)
    if init_params is None:
        params = initial_params(Y, cov, M, prior, config)
    else:
        params = init_params.copy()
        if params.M != M:
            raise ShapeError(f"init_params has M = {params.M}, expected {M}")
    state = make_state(Y, cov, params, prior, config)
    updates = {
        "A": update_a, "B": update_b, "C": update_c, "D": update_d,
        "G": update_g, "H": update_h, "S": update_s, "T": update_t,
    }
    trace = [state.log_posterior()]
    converged = False
    iterations = 0
    for it in range(1, config.max_iter + 1):
        for name in _UPDATE_CYCLE:
            if M == 0 and name in ("D", "G", "H"):
                continue
            try:
                updates[name](state)
            except NumericError as err:
                raise NumericError(f"iteration {it}, update {name}: {err}") from err
        lp = state.log_posterior()
        trace.append(lp)
        iterations = it
        if abs(lp - trace[-2]) / (abs(lp) + 1.0) < config.tol:
            converged = True
            break
    bias_correct_dispersions(state)
    finalize_factor_signs(state.params)
    report = check_constraints(state.params, cov)
    if not report.passed:
        warnings.warn("final state exceeds the constraint tolerance")
    return FitResult(params=state.params, trace=trace, converged=converged,
                     iterations=iterations, clamp_events=state.clamp_events, cov=cov,
                     constraints=report)
