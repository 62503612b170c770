"""MAP estimation via bounded regularized Fisher scoring.

Each outer iteration cycles through the blocks A, B, C, D, G = U*D,
H = V*D, S, T.  Every block update is an optimization-projection step:
a regularized Fisher-scoring (or Newton, for S/T) step whose root mean
square is capped at RHO, followed by a projection back onto the
identifiability-constrained parameter set that leaves the linear predictor
(hence the likelihood) unchanged by compensating through other blocks.
initial_params is closed-form (no dispersion steps; S = T = omega = 0).

Each step is taken on the log-posterior after its projection, so the prior
term it regularizes is the one the projected state actually carries: A, B,
C and D their own priors; G and H the D prior lambda_d (the SVD refactoring
keeps ||U||^2 and ||V||^2 constant and puts ||G||^2 into ||D||^2); S and T
their priors at the recentred offsets (the common shift goes into omega,
which has no prior).  The cycle is then an ascent method on the quantity
FitState.log_posterior reports.

Rows and columns are symmetric (Y' swaps X and Z, A and B, U and V, S and
T, and turns C into C'), so each twin pair of updates shares one step
kernel handed its axis's arrays: _rows_step serves A/B and G/H, and
_offsets_step S/T.  Every array stays in the orientation of the counts.

Workspace invariant: after make_state and after every block update,
state.mu and state.r are the NB means and inverse dispersions of
state.params, laid out like the counts.  Each update reads them as they
stand and brings them up to date: the mean blocks A, B, C, D, G and H
recompute the linear predictor and mu, the S and T steps r.  The bare
projections (project_a, project_g, project_s and their twins) leave the
likelihood unchanged and do not touch them.

They are the only I x J arrays a fit holds besides the counts (read in
place), overwritten one row chunk of at most nb.CHUNK_ELEMENTS entries at a
time (FitState.refresh).  Each mean step builds the weights W and scores E
one row chunk at a time (FitState.weights), in the loop that sums its
Fisher blocks and score over the chunk's rows (_summed_terms) or writes
them row by row (_row_terms); the S/T steps and log_posterior run over the
same chunks, so every other I x J temporary is chunk-sized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import nb
from .exceptions import NumericError, ShapeError
from .model import (
    EPSILON,
    ConstraintReport,
    CovariateSet,
    DataMatrix,
    FitConfig,
    GbmParams,
    PriorConfig,
    check_constraints,
    first_nonzero_signs,
    linear_predictor,
    nullspace_frame,
    standardize_covariates,
)
from .rngstreams import stream_rng

RHO = 5.0            # cap on the root mean square of every update step
OFFSET_FLOOR = -4.0  # softplus floor of the S and T offsets in bias_correct_dispersions


def prepare_covariates(X, Z, standardize=True) -> CovariateSet:
    """Standardize (optionally) and wrap the designs with pseudoinverses."""
    if standardize:
        X = standardize_covariates(X, "X")
        Z = standardize_covariates(Z, "Z")
    return CovariateSet(X, Z)


def svd_of_product(P: np.ndarray, Q: np.ndarray):
    """Compact SVD of P Q' without forming the I x J product.

    P is I x M and Q is J x M with orthonormal columns (Q'Q = I), as the
    current V or U is for every caller: with P = Q_P R_P, P Q' =
    Q_P R_P Q', so the SVD of the small M x M core R_P gives the factors.
    Returns (U, d, V) with U d V' = P Q' and d descending.
    """
    Qp, Rp = np.linalg.qr(P)
    Us, s, Vst = np.linalg.svd(Rp)
    if P.shape[1] > 1 and np.any(np.diff(s) > -1e-10 * max(s[0], 1e-300)):
        warnings.warn("nearly repeated singular values in latent factor update")
    return Qp @ Us, s, Q @ Vst.T


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
class FitState:
    """Mutable bundle passed between block updates.

    `y` is the DataMatrix's int64 counts, read in place, and `log_y_factorial`
    the sum of log y! over them, computed once by make_state.  `rho_s` and
    `rho_t` are the per-coordinate caps of the S and T Newton steps.
    """

    y: np.ndarray = field(repr=False)
    log_y_factorial: float
    cov: CovariateSet
    params: GbmParams
    prior: PriorConfig
    rho_s: np.ndarray
    rho_t: np.ndarray
    mu: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    clamp_events: int = 0

    def refresh(self, mean=True, dispersion=True):
        """Bring mu (`mean`) and r (`dispersion`) up to date with the
        parameters, in place and one row chunk (nb.row_chunks) at a time.

        The default recomputes both.  Clipped exponents of the recomputed mu
        or r add to clamp_events.
        """
        p = self.params
        for rows in nb.row_chunks(*self.mu.shape):
            mu, r = self.mu[rows], self.r[rows]
            if mean:
                self.clamp_events += nb.means(linear_predictor(p, self.cov, rows), out=mu)[1]
            if dispersion:
                self.clamp_events += nb.inverse_dispersions(p.S[rows], p.T, p.omega, out=r)[1]

    def weights(self, rows=slice(None)):
        """The Fisher weights W and scores E of the rows `rows`."""
        return nb.weights_and_scores(self.y[rows], self.mu[rows], self.r[rows])

    def log_posterior(self) -> float:
        """Log-likelihood plus log-prior (normalizing constants included),
        the likelihood read from mu and r."""
        p = self.params
        loglik = sum(float(np.sum(nb.nb_log_pmf(self.y[rows], self.mu[rows], self.r[rows],
                                                log_y_factorial=0.0)))
                     for rows in nb.row_chunks(*self.mu.shape)) - self.log_y_factorial
        pr = self.prior

        def normal_term(q, lam, mean=0.0):
            return 0.5 * q.size * np.log(lam / (2 * np.pi)) - 0.5 * lam * np.sum((q - mean) ** 2)

        # block X has prior precision lambda_x and mean m_x (m_s, m_t) or 0
        logprior = sum(normal_term(getattr(p, name), getattr(pr, f"lambda_{name.lower()}"),
                                   getattr(pr, f"m_{name.lower()}", 0.0))
                       for name in GbmParams.shapes())
        return loglik + float(logprior)


def make_state(Y, cov, params, prior=None) -> FitState:
    prior = prior or PriorConfig()
    y = Y.values
    log_y_factorial = sum(float(np.sum(nb.log_gamma_ratio(y[rows], 1.0)))
                          for rows in nb.row_chunks(*y.shape))
    state = FitState(y=y, log_y_factorial=log_y_factorial, cov=cov, params=params, prior=prior,
                     rho_s=np.full(cov.I, RHO), rho_t=np.full(cov.J, RHO),
                     mu=np.empty(y.shape), r=np.empty(y.shape))
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


def project_b(state: FitState):
    """Enforce X'B = 0, compensating through C."""
    p, cov = state.params, state.cov
    Q = cov.Xplus @ p.B
    p.B -= cov.X @ Q
    p.C += Q


def project_g(state: FitState, G: np.ndarray):
    """Absorb an unconstrained left-factor step G (I x M).

    Projects G onto the nullspace of X' (compensating through A, then A's
    own projection through C) and refactors G V' by compact SVD so that the
    new (U, D, V) satisfy the orthonormality constraints.  The linear
    predictor of the pre-projection state (with latent part G V') is
    preserved exactly.  G is projected twice: when most of G lies in
    span(X), one pass leaves a remainder of that part's rounding error,
    which the SVD blows up to the scale of U; the second pass removes it
    ("twice is enough", Giraud et al., Numer. Math. 2005).
    """
    p, cov = state.params, state.cov
    for _ in range(2):
        Q = cov.Xplus @ G
        G = G - cov.X @ Q
        p.A += p.V @ Q.T
    project_a(state)
    p.U, p.D, p.V = svd_of_product(G, p.V)


def project_h(state: FitState, H: np.ndarray):
    """Absorb a right-factor step H (J x M): project_g's twin, through B."""
    p, cov = state.params, state.cov
    for _ in range(2):
        Q = cov.Zplus @ H
        H = H - cov.Z @ Q
        p.B += p.U @ Q.T
    project_b(state)
    p.V, p.D, p.U = svd_of_product(H, p.U)


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


def project_t(state: FitState):
    """Recenter T to mean-exp one, compensating through omega."""
    p = state.params
    c, _ = _log_mean_exp(p.T)
    p.T -= c
    p.omega += c


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


def _summed_terms(state: FitState, design, score=None):
    """Fisher blocks of the rows of A (design X) or H (U) and their scores E'
    design, or score(rows, E) if given, summed over the row chunks."""
    score = score or (lambda rows, E: E.T @ design[rows])
    blocks = total = 0.0
    for rows in nb.row_chunks(*state.mu.shape):
        W, E = state.weights(rows)
        blocks = blocks + _row_fisher_blocks(W, design[rows])
        total = total + score(rows, E)
    return blocks, total


def _row_terms(state: FitState, design):
    """The Fisher blocks and scores E design of the rows of B (design Z) or
    G (V), written one row chunk of W and E at a time."""
    I, K = state.mu.shape[0], design.shape[1]
    blocks, score = np.empty((I, K, K)), np.empty((I, K))
    for rows in nb.row_chunks(*state.mu.shape):
        W, E = state.weights(rows)
        blocks[rows] = _row_fisher_blocks(W.T, design)
        score[rows] = E @ design
    return blocks, score


def _rows_step(blocks, score, rows, lam):
    """Capped Fisher steps of the rows of a coefficient block, given their
    Fisher blocks and scores (_summed_terms or _row_terms)."""
    return _batched_capped_solve(blocks, score - lam * rows, lam, RHO)


def update_a(state: FitState):
    """Fisher-scoring step on each row of A, then the A projection."""
    p = state.params
    p.A += _rows_step(*_summed_terms(state, state.cov.X), p.A, state.prior.lambda_a)
    project_a(state)
    state.refresh(dispersion=False)


def update_b(state: FitState):
    """Fisher-scoring step on each row of B, then the B projection."""
    p = state.params
    p.B += _rows_step(*_row_terms(state, state.cov.Z), p.B, state.prior.lambda_b)
    project_b(state)
    state.refresh(dispersion=False)


def fisher_c(blocks, Z) -> np.ndarray:
    """KL x KL Fisher information for vec(C) (no regularization) from the
    J x K x K Fisher blocks of the rows of A: sum_j (z_j z_j') kron blocks_j."""
    J, K, _ = blocks.shape
    L = Z.shape[1]
    F4 = _row_fisher_blocks(blocks.reshape(J, K * K), Z).reshape(K, K, L, L)
    return F4.transpose(2, 0, 3, 1).reshape(K * L, K * L)


def update_c(state: FitState):
    """Joint Fisher-scoring step on vec(C).  C is unconstrained."""
    p, cov = state.params, state.cov
    blocks, grad = _summed_terms(state, cov.X, lambda rows, E: cov.X[rows].T @ E @ cov.Z)
    vecC = bounded_fisher_step(p.C.ravel(order="F"), grad.ravel(order="F"),
                               fisher_c(blocks, cov.Z), state.prior.lambda_c, RHO)
    p.C = vecC.reshape(cov.K, cov.L, order="F")
    state.refresh(dispersion=False)


def fisher_d(blocks, V) -> np.ndarray:
    """M x M Fisher information for the diagonal of D from H's Fisher blocks."""
    M = V.shape[1]
    return np.einsum("jp,jp->p", blocks.reshape(-1, M * M),
                     (V[:, :, None] * V[:, None, :]).reshape(-1, M * M)).reshape(M, M)


def update_d(state: FitState):
    """Fisher-scoring step on the singular values (no projection needed)."""
    p = state.params
    if p.M == 0:
        return
    blocks, grad = _summed_terms(state, p.U,
                                 lambda rows, E: np.einsum("im,im->m", p.U[rows], E @ p.V))
    p.D = bounded_fisher_step(p.D, grad, fisher_d(blocks, p.V), state.prior.lambda_d, RHO)
    state.refresh(dispersion=False)


def update_g(state: FitState):
    """Optimization-projection step on the left factors G = U * D.

    The step is taken on the posterior after projection: project_g refactors
    G V' by SVD, so the U and V priors are constant and the only G-dependent
    prior term left is the D prior lambda_d ||G||^2 / 2 (the new singular
    values are those of G outside span(X), and the current G = U D lies
    there already).  The step therefore regularizes G with lambda_d.
    """
    p = state.params
    if p.M == 0:
        return
    G = p.U * p.D
    G = G + _rows_step(*_row_terms(state, p.V), G, state.prior.lambda_d)
    project_g(state, G)
    state.refresh(dispersion=False)


def update_h(state: FitState):
    """Optimization-projection step on H = V * D, update_g's twin."""
    p = state.params
    if p.M == 0:
        return
    H = p.V * p.D
    H = H + _rows_step(*_summed_terms(state, p.U), H, state.prior.lambda_d)
    project_h(state, H)
    state.refresh(dispersion=False)


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


def _offsets_step(state: FitState, offsets, axis, lam, mean, rho):
    """Bounded Newton step on the S (axis 1) or T (axis 0) offsets.

    The step is taken on the posterior after projection: its prior gradient
    is that of lam ||offsets - mean||^2 / 2 at the recentred offsets (see
    _recentred_prior_gradient), since the common shift goes into omega.
    Returns the stepped offsets and their next caps: a coordinate whose
    Newton step exceeded its cap `rho` gets half that cap, the rest RHO.
    """
    derivs = nb.dispersion_sums(state.y, state.mu, state.r)[axis]
    grad = _recentred_prior_gradient(offsets, lam, mean) + derivs.delta
    hess = -lam + derivs.delta_prime
    stepped, exceeded = _newton_dispersion_step(offsets, grad, hess, rho)
    return stepped, np.where(exceeded, rho / 2.0, RHO)


def update_s(state: FitState):
    """Bounded Newton step on each row offset s_i, adaptive caps, then the projection."""
    p, pr = state.params, state.prior
    p.S, state.rho_s = _offsets_step(state, p.S, 1, pr.lambda_s, pr.m_s, state.rho_s)
    project_s(state)
    state.refresh(mean=False)


def update_t(state: FitState):
    """Bounded Newton step on each column offset t_j, adaptive caps, then the projection."""
    p, pr = state.params, state.prior
    p.T, state.rho_t = _offsets_step(state, p.T, 0, pr.lambda_t, pr.m_t, state.rho_t)
    project_t(state)
    state.refresh(mean=False)


def bias_correct_dispersions(state: FitState):
    """Softplus-floor the log-dispersion offsets S and T at OFFSET_FLOOR,
    then re-project.

    Applied once after the final iteration; counteracts the downward bias
    of the offsets when the true values are very low.
    """
    p = state.params
    p.S = OFFSET_FLOOR + np.logaddexp(0.0, p.S - OFFSET_FLOOR)
    project_s(state)
    p.T = OFFSET_FLOOR + np.logaddexp(0.0, p.T - OFFSET_FLOOR)
    project_t(state)


def finalize_factor_signs(params: GbmParams):
    """Sort singular values descending and fix the column sign convention."""
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
                   config: FitConfig = None) -> GbmParams:
    """Closed-form start: least squares on log counts plus tiny random factors.

    A, B, C minimize the sum of squared log-scale residuals with the latent
    part excluded (which keeps the factors from chasing outliers before the
    dispersions are estimated).  U and then V are uniform orthonormal frames
    in the nullspaces of X' and Z', drawn by QR of I x M and J x M Gaussian
    matrices from the seeded "init" stream (no I x J matrix is formed), and
    D descends linearly from 1e-8 (sqrt(I) + sqrt(J)) to half that.  S, T
    and omega start at zero; the fit's own S and T steps estimate them.
    """
    config = config or FitConfig()
    if not 0 <= M < min(cov.I, cov.J):
        raise ShapeError(f"M = {M} must be at least 0 and smaller than min(I, J) = "
                         f"{min(cov.I, cov.J)}")
    logy = np.log(Y.values + EPSILON)
    C = cov.Xplus @ logy @ cov.Zplus.T
    A = (cov.Xplus @ logy - C @ cov.Z.T).T
    B = logy @ cov.Zplus.T - cov.X @ C
    rng = stream_rng(config.seed, "init")
    U = nullspace_frame(cov.X, M, rng)
    V = nullspace_frame(cov.Z, M, rng)
    D = 1e-8 * (np.sqrt(cov.I) + np.sqrt(cov.J)) * np.linspace(1.0, 0.5, M)
    return GbmParams(A=A, B=B, C=C, D=D, U=U, V=V,
                     S=np.zeros(cov.I), T=np.zeros(cov.J), omega=0.0)


@dataclass
class FitResult:
    """Final constrained parameters plus the optimization trail.

    `constraints` is the identifiability check of the final parameters; a
    fit whose `constraints.passed` is false is returned with a warning.
    `clamp_events` counts exponents clipped at +-700 each time mu or r is
    recomputed (initialization included): entries of the linear
    predictor when mu is recomputed (after A, B, C, D, G and H steps) and
    of -(s_i + t_j + omega) when r is (after S and T steps); a full refresh
    counts both.
    """

    params: GbmParams
    trace: list
    converged: bool
    iterations: int
    clamp_events: int
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
        params = initial_params(Y, cov, M, config)
    else:
        params = init_params.copy()
        if params.M != M:
            raise ShapeError(f"init_params has M = {params.M}, expected {M}")
    state = make_state(Y, cov, params, prior)
    updates = {
        "A": update_a, "B": update_b, "C": update_c, "D": update_d,
        "G": update_g, "H": update_h, "S": update_s, "T": update_t,
    }
    trace = [state.log_posterior()]
    converged = False
    iterations = 0
    for it in range(1, config.max_iter + 1):
        for name in _UPDATE_CYCLE:
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
                     iterations=iterations, clamp_events=state.clamp_events,
                     constraints=report)
