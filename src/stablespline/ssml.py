"""Empirical-Bayes impulse response estimation under Gaussian noise.

Pipeline: least-squares noise-variance pre-estimate, grid optimization of
the marginal likelihood over (lambda, beta), then the posterior-mean
estimate.  The fitted result doubles as the initialization of the Gibbs
sampler in :mod:`stablespline.gibbs`.

All dense algebra runs in the n x n "information" domain whenever n < N;
the equivalent N x N covariance-domain formulas exist as an explicit
method switch so the two routes can be cross-checked against each other.

The posterior is computed in whitened coordinates w = L_K^{-1} g, with
K = L_K L_K' and regressor Phi = U L_K, where the prior on w is
N(0, lam I) (the Cholesky-factor parametrization of Chen & Ljung,
Automatica 2013).  The Gibbs sampler reuses that step with Phi formed
once per chain.  Every factorization and solve goes through
``numpy.linalg``: numpy and scipy bundle separate OpenBLAS builds, and
alternating between them on a hot path makes their thread pools compete.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .kernels import KernelMatrix, KernelOrder, KernelSpec, build_kernel, kernel_factor
from .model import Dataset, Hyperparameters, build_regressor

__all__ = [
    "IllConditionedWarning",
    "MarglikObjective",
    "SsmlResult",
    "estimate_sigma2",
    "neg_log_marglik",
    "optimize_hyperparams",
    "posterior_moments",
    "posterior_mean",
    "run_ssml",
    "default_beta_grid",
]

# Condition-number trigger and relative ridge for the least-squares
# sigma^2 pre-estimate on ill-conditioned (low-pass-input) regressors.
RIDGE_CONDITION_LIMIT = 1e12
RIDGE_SCALE = 1e-8

# Relative floor applied to the estimated noise variance so exact-fit
# datasets keep a usable noise model.
SIGMA2_FLOOR_FACTOR = 1e-12


class IllConditionedWarning(UserWarning):
    """Raised (as a warning) when a ridge fallback or rate floor engages."""


def estimate_sigma2(U: np.ndarray, y: np.ndarray) -> float:
    """Least-squares residual variance (y - U g_LS)'(y - U g_LS) / (N - n).

    Requires N > n.  If the normal matrix U'U has condition estimate above
    RIDGE_CONDITION_LIMIT, a ridge of RIDGE_SCALE * trace(U'U)/n is added
    and an IllConditionedWarning is recorded.
    """
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    N, n = U.shape
    if y.shape != (N,):
        raise ConfigError(f"y must have length {N}, got shape {y.shape}")
    if N <= n:
        raise ConfigError(
            f"sigma2 estimation needs N > n, got N={N}, n={n}"
        )
    G = U.T @ U
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > RIDGE_CONDITION_LIMIT:
        ridge = RIDGE_SCALE * float(np.trace(G)) / n
        warnings.warn(
            f"normal matrix condition {cond:.3g} exceeds {RIDGE_CONDITION_LIMIT:.0e}; "
            f"adding ridge {ridge:.3g} to the least-squares solve",
            IllConditionedWarning,
        )
        g_ls = np.linalg.solve(G + ridge * np.eye(n), U.T @ y)
    else:
        g_ls, *_ = np.linalg.lstsq(U, y, rcond=None)
    r = y - U @ g_ls
    return float(r @ r) / (N - n)


@dataclass
class MarglikObjective:
    """Fixed data for marginal-likelihood evaluations over (lambda, beta).

    Holds the regressor, output vector, pre-estimated noise variance and
    kernel order; per-beta factorizations are cached internally, so reuse
    one instance across a hyperparameter search.  Treat as immutable.
    """

    U: np.ndarray
    y: np.ndarray
    sigma2: float
    order: KernelOrder = KernelOrder.FIRST

    _beta_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.U.ndim != 2 or self.y.shape != (self.U.shape[0],):
            raise ConfigError(
                f"shape mismatch: U {self.U.shape}, y {self.y.shape}"
            )
        if not (self.sigma2 > 0 and np.isfinite(self.sigma2)):
            raise ConfigError(f"sigma2 must be positive, got {self.sigma2}")
        self.order = KernelOrder.parse(self.order)
        self._yy = float(self.y @ self.y)
        self._UtU = self.U.T @ self.U
        self._Uty = self.U.T @ self.y

    @property
    def N(self) -> int:
        return self.U.shape[0]

    @property
    def n(self) -> int:
        return self.U.shape[1]

    def _for_beta(self, beta: float):
        """Cached (T, z) with T = L' U'U L, z = L' U'y for K_beta = L L'."""
        key = float(beta)
        hit = self._beta_cache.get(key)
        if hit is None:
            K = build_kernel(KernelSpec(self.order, key, self.n))
            L = kernel_factor(K)
            T = L.T @ self._UtU @ L
            z = L.T @ self._Uty
            hit = (T, z)
            self._beta_cache[key] = hit
        return hit


def neg_log_marglik(lam: float, beta: float, obj: MarglikObjective) -> float:
    """log det(Sigma_y) + y' Sigma_y^{-1} y with Sigma_y = lam U K U' + sigma2 I.

    Evaluated through the n x n determinant-lemma form when n < N, and
    through a direct Cholesky of the N x N matrix otherwise.
    """
    if not (lam >= 0 and np.isfinite(lam)):
        raise ConfigError(f"lambda must be finite and >= 0, got {lam}")
    if not (0.0 < beta < 1.0):
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    N, n = obj.N, obj.n
    s2 = obj.sigma2
    if n < N:
        T, z = obj._for_beta(beta)
        A = np.eye(n) + (lam / s2) * T
        try:
            c = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"dual-form factorization failed at lambda={lam:g}, beta={beta:g}",
                context="ssml.neg_log_marglik",
            ) from exc
        v = np.linalg.solve(c, z)
        logdet = N * np.log(s2) + 2.0 * float(np.sum(np.log(np.diag(c))))
        quad = (obj._yy - (lam / s2) * float(v @ v)) / s2
    else:
        K = build_kernel(KernelSpec(obj.order, beta, n)).K
        Sigma = lam * (obj.U @ K @ obj.U.T) + s2 * np.eye(N)
        try:
            c = np.linalg.cholesky(Sigma)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"covariance factorization failed at lambda={lam:g}, beta={beta:g}",
                context="ssml.neg_log_marglik",
            ) from exc
        v = np.linalg.solve(c, obj.y)
        logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
        quad = float(v @ v)
    return logdet + quad


def default_beta_grid() -> np.ndarray:
    """Coarse decay grid: 0.05 steps through 0.95, plus 0.99."""
    return np.concatenate([np.arange(0.05, 0.951, 0.05), [0.99]])


# Search-domain scaling: lambda grids span LAMBDA_SPAN decades around
# ||y||^2 / trace(U K_beta U'), which puts lam * tr(UKU') ~ ||y||^2 at the
# grid center.
LAMBDA_SPAN = 4.0
LAMBDA_POINTS = 25
REFINE_ROUNDS = 2
REFINE_POINTS = 9
REFINE_SHRINK = 4.0
BETA_MIN, BETA_MAX = 0.01, 0.99


def optimize_hyperparams(obj: MarglikObjective) -> tuple[float, float]:
    """Grid-refined minimizer of the negative log marginal likelihood.

    A full coarse grid over beta x lambda is scanned first, followed by
    two rounds of local refinement that shrink both axes by a factor of
    four around the incumbent.  Ties break toward the smallest beta, then
    the smallest lambda, so the reduction is deterministic.  Individual
    grid points that fail to factorize are skipped; it is an error only if
    every point fails.
    """
    best = None  # (value, beta, lam)
    n_failed = 0
    last_error = None

    def consider(lam: float, beta: float):
        nonlocal best, n_failed, last_error
        try:
            val = neg_log_marglik(lam, beta, obj)
        except NumericError as exc:
            n_failed += 1
            last_error = exc
            return
        if not np.isfinite(val):
            n_failed += 1
            return
        cand = (val, beta, lam)
        if best is None or cand < best:
            best = cand

    betas = default_beta_grid()
    for beta in betas:
        T, _ = obj._for_beta(beta)
        tr = float(np.trace(T))
        if not (tr > 0):
            n_failed += LAMBDA_POINTS
            continue
        scale = obj._yy / tr
        for lam in scale * np.logspace(-LAMBDA_SPAN, LAMBDA_SPAN, LAMBDA_POINTS):
            consider(lam, beta)

    if best is None:
        raise NumericError(
            f"all {n_failed} hyperparameter grid evaluations failed",
            context="ssml.optimize_hyperparams",
        ) from last_error

    beta_half_width = 0.05 / 2.0
    lam_half_decades = (2.0 * LAMBDA_SPAN / (LAMBDA_POINTS - 1)) / 2.0
    for _ in range(REFINE_ROUNDS):
        _, beta0, lam0 = best
        beta_lo = max(BETA_MIN, beta0 - beta_half_width)
        beta_hi = min(BETA_MAX, beta0 + beta_half_width)
        local_betas = np.linspace(beta_lo, beta_hi, REFINE_POINTS)
        local_lams = lam0 * np.logspace(
            -lam_half_decades, lam_half_decades, REFINE_POINTS
        )
        for beta in local_betas:
            for lam in local_lams:
                consider(lam, beta)
        beta_half_width /= REFINE_SHRINK
        lam_half_decades /= REFINE_SHRINK

    _, beta_hat, lam_hat = best
    return float(lam_hat), float(beta_hat)


def _noise_diag(noise_cov_diag, N: int) -> np.ndarray:
    d = np.asarray(noise_cov_diag, dtype=float)
    if d.ndim == 0:
        d = np.full(N, float(d))
    if d.shape != (N,):
        raise ConfigError(f"noise_cov_diag must be scalar or length {N}")
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ConfigError("noise_cov_diag entries must be positive and finite")
    return d


def posterior_moments(
    lam: float,
    Phi: np.ndarray,
    y: np.ndarray,
    noise_cov_diag,
) -> tuple[np.ndarray, np.ndarray]:
    """Whitened posterior of w = L_K^{-1} g given data and (lam, D).

    ``Phi`` is the whitened regressor U L_K, with K = L_K L_K', so the
    prior on w is N(0, lam I).  The posterior is w ~ N(A^{-1} Phi'D^{-1}y,
    A^{-1}) with A = I/lam + Phi'D^{-1}Phi.  Returns the mean and the
    upper-triangular factor R = L_A^{-T} of A^{-1} = R R', where
    A = L_A L_A'.

    Mapping back through L_K gives the posterior of g: mean L_K m and
    covariance factor L_K R.  By the Woodbury identity these equal the
    covariance-form mean lam K U' (lam U K U' + D)^{-1} y and covariance
    lam K - lam^2 K U' (lam U K U' + D)^{-1} U K.
    """
    if not (lam > 0 and np.isfinite(lam)):
        raise ConfigError(f"posterior_moments requires lambda > 0, got {lam}")
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    N, n = Phi.shape
    s = 1.0 / np.sqrt(_noise_diag(noise_cov_diag, N))
    W = Phi * s[:, None]  # D^{-1/2} Phi, so that W'W is one symmetric product
    A = W.T @ W
    A[np.diag_indices(n)] += 1.0 / lam
    try:
        L_A = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "information-form system not positive definite",
            context="ssml.posterior_moments",
        ) from exc
    # numpy's Cholesky returns NaN rather than raising once A has overflowed
    if not np.all(np.isfinite(np.diag(L_A))):
        raise NumericError(
            "information-form system not finite",
            context="ssml.posterior_moments",
        )
    # numpy has no triangular solve: invert L_A by LU, dropping round-off
    # above the diagonal
    R = np.tril(np.linalg.inv(L_A)).T
    mean = R @ (R.T @ (W.T @ (s * y)))
    return mean, R


def posterior_mean(
    lam: float,
    K,
    U: np.ndarray,
    y: np.ndarray,
    noise_cov_diag,
    method: str = "auto",
) -> np.ndarray:
    """Posterior-mean impulse response lam K U' (lam U K U' + D)^{-1} y.

    ``noise_cov_diag`` is the diagonal of D: a scalar sigma2 for the
    Gaussian-noise estimator, or the per-sample variances tau inside the
    Gibbs sweep.  ``method`` chooses the algebraic route:

    * "information": n x n Woodbury form (default for n <= N),
    * "covariance":  direct N x N solve,
    * "auto":        information when lam > 0 and n <= N, else covariance.
    """
    Karr = K.K if isinstance(K, KernelMatrix) else np.asarray(K, dtype=float)
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    N, n = U.shape
    if not (lam >= 0 and np.isfinite(lam)):
        raise ConfigError(f"lambda must be finite and >= 0, got {lam}")
    if lam == 0.0:
        return np.zeros(n)
    if method not in ("auto", "information", "covariance"):
        raise ConfigError(f"unknown method {method!r}")
    if method == "auto":
        method = "information" if n <= N else "covariance"
    if method == "information":
        L_K = kernel_factor(Karr)
        mean, _ = posterior_moments(lam, U @ L_K, y, noise_cov_diag)
        return L_K @ mean
    d = _noise_diag(noise_cov_diag, N)
    Sigma = lam * (U @ Karr @ U.T) + np.diag(d)
    try:
        c = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "covariance matrix not positive definite",
            context="ssml.posterior_mean",
        ) from exc
    return lam * (Karr @ (U.T @ np.linalg.solve(c.T, np.linalg.solve(c, y))))


@dataclass(frozen=True)
class SsmlResult:
    """Posterior-mean estimate with fitted hyperparameters.

    ``objective`` is the negative log marginal likelihood at the optimum;
    the result carries everything the Gibbs sampler needs to start.
    """

    g_hat: np.ndarray
    hyper: Hyperparameters
    objective: float

    def __post_init__(self):
        g = np.array(self.g_hat, dtype=float)
        g.flags.writeable = False
        object.__setattr__(self, "g_hat", g)


def run_ssml(
    dataset: Dataset,
    n: int,
    order: KernelOrder = KernelOrder.FIRST,
) -> SsmlResult:
    """Full Gaussian-noise estimation pass on a dataset.

    Builds the regressor, pre-estimates sigma2 (floored at
    SIGMA2_FLOOR_FACTOR * var(y)), optimizes (lambda, beta) by marginal
    likelihood, and returns the posterior-mean response of length n.
    Deterministic: no randomness is consumed.
    """
    order = KernelOrder.parse(order)
    N = dataset.N
    if N <= n:
        raise ConfigError(f"run_ssml needs N > n, got N={N}, n={n}")
    U = build_regressor(dataset.u, N, n)
    sigma2 = estimate_sigma2(U, dataset.y)
    sigma2 = max(sigma2, SIGMA2_FLOOR_FACTOR * float(np.var(dataset.y)))
    if not sigma2 > 0:
        raise NumericError(
            "estimated noise variance is zero (constant zero output?)",
            context="ssml.run_ssml",
        )
    obj = MarglikObjective(U, dataset.y, sigma2, order)
    lam_hat, beta_hat = optimize_hyperparams(obj)
    K = build_kernel(KernelSpec(order, beta_hat, n))
    g_hat = posterior_mean(lam_hat, K, U, dataset.y, sigma2)
    value = neg_log_marglik(lam_hat, beta_hat, obj)
    return SsmlResult(
        g_hat=g_hat,
        hyper=Hyperparameters(lam=lam_hat, beta=beta_hat, sigma2=sigma2),
        objective=value,
    )
