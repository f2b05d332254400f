"""Empirical-Bayes impulse response estimation under Gaussian noise.

Pipeline: one QR of the data, the least-squares noise-variance estimate
read off it, a marginal-likelihood fit of (lambda, beta), then the
posterior-mean estimate, which also starts the Gibbs sampler in
:mod:`stablespline.gibbs`.  :func:`run_ssml` fits on the data scaled by
powers of two and maps its results back exactly, so the fit does not
depend on the scale of the input or the output.

A fit factors its data once.  One QR of [U y] gives R (U = Q_1 R),
b = Q_1'y and rss = |y - Q_1 b|^2, the least-squares residual, so
R'R = U'U and R'b = U'y: the noise variance is rss / (N - n), and under
scalar noise the posterior mean depends on U and y only through (R, b).

The marginal likelihood of the empirical-Bayes fit (Pillonetto & De
Nicolao, Automatica 2010) has one route for any N and n, the profiled-lambda
form of Chen & Ljung (Automatica 2013).  With one eigendecomposition
R K_beta R' = W diag(s) W' per beta and p = W'b, the objective
log det S + y'S^{-1}y of S = lam U K U' + sigma2 I is N log sigma2
+ sum log(1 + lam s / sigma2) + (rss + sum p^2 / (1 + lam s / sigma2)) / sigma2.
No term is negative, so nothing cancels at large lambda, and each lambda
costs O(n).  The first two derivatives in ln(lam) are closed-form and O(n)
too, so at each beta lambda is profiled by one vectorized log-grid
evaluation and a safeguarded Newton iteration inside the best grid cell,
then one evaluation of the result.  By the envelope theorem the slope of
the profiled objective in beta is the partial derivative at the profiled
lambda; it comes from the same eigendecomposition and the closed-form
dK/dbeta in O(n^3), so beta is refined by a bracketed secant search on
that slope.

The posterior is computed in whitened coordinates w = L_K^{-1} g, with
K = L_K L_K' and regressor Phi = U L_K, where the prior on w is
N(0, lam I) (Chen & Ljung's factor parametrization).  L_K is exact for the
first order, so the posterior has the marginal likelihood's prior K, and
factors K + eps I for the second (:func:`stablespline.kernels.kernel_factor`).
One function, ``_whiten``, forms X' = [Phi y]' from the ``KernelSpec``, U and
y, by the product U @ L_K: for the posterior mean here and once per chain in
the Gibbs sampler, so both give the same bits under any BLAS thread count.
X' is read-only: each caller scales it into its own array.  One Gram of the
scaled data D^{-1/2} X gives the information form A w = c of the posterior,
A = I/lam + Phi'D^{-1}Phi and c = Phi'D^{-1}y (``information_system``).
The posterior mean is one solve of that system, and a Gibbs draw is one
solve of the same system with standard normals added to the scaled output
row y D^{-1/2}, a perturbed right-hand side; only the covariance factor
L_A^{-T} of ``posterior_moments`` takes a Cholesky A = L_A L_A', and no
inverse is formed.  Every factorization goes through ``numpy.linalg``:
numpy and scipy bundle separate OpenBLAS builds, and alternating between
them on a hot path makes their thread pools compete.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .kernels import (
    KernelOrder,
    KernelSpec,
    build_kernel,
    build_kernel_derivative,
    kernel_factor,
)
from .model import Dataset, Hyperparameters, build_regressor, power_of_two_scaled

# The rest of the module is run_ssml's internals: reachable as module
# attributes, but not part of the package's surface.
__all__ = [
    "IllConditionedWarning",
    "SsmlResult",
    "posterior_moments",
    "posterior_mean",
    "run_ssml",
]

# Condition-number trigger and relative ridge for the least-squares
# sigma^2 pre-estimate on ill-conditioned (low-pass-input) regressors.
RIDGE_CONDITION_LIMIT = 1e12
RIDGE_SCALE = 1e-8

# Relative floor applied to the estimated noise variance so exact-fit
# datasets keep a usable noise model.
SIGMA2_FLOOR_FACTOR = 1e-12

# 2^e is a normal float for _MIN_EXP <= e < _MAX_EXP; _TINY is the least one.
_MIN_EXP, _MAX_EXP = np.finfo(float).minexp, np.finfo(float).maxexp
_TINY = float(np.finfo(float).tiny)


class IllConditionedWarning(UserWarning):
    """Raised (as a warning) when a ridge fallback, the noise-variance floor
    or a rate floor engages, or when the hyperparameter optimum lies on a
    search boundary."""


@dataclass(eq=False)
class LeastSquares:
    """The regression y = U g + e, reduced by one QR of [U y].

    [U y] = Q [[R, b], [0, r]] gives R, upper-triangular with U = Q_1 R,
    b = Q_1'y and rss = r^2 = |y - U g_LS|^2.  So R'R = U'U, R'b = U'y and
    rss + |b|^2 = y'y.  When N <= n, R is N x n and rss is 0.  U and y are
    not kept: besides (R, b, rss) a fit reads only the sample count N and
    yy = y'y, which scales the lambda grid.  Treat as immutable.
    """

    U: InitVar[np.ndarray]
    y: InitVar[np.ndarray]
    R: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    rss: float = field(init=False, repr=False)
    N: int = field(init=False)
    yy: float = field(init=False, repr=False)

    def __post_init__(self, U, y):
        self.N, n = U.shape
        self.yy = float(y @ y)
        Ra = np.linalg.qr(np.column_stack([U, y]), mode="r")
        self.R, self.b = Ra[:n, :n], Ra[:n, n]
        self.rss = float(Ra[n:, n] @ Ra[n:, n])

    @property
    def n(self) -> int:
        return self.R.shape[1]


def estimate_sigma2(ls: LeastSquares) -> float:
    """Least-squares residual variance (y - U g_LS)'(y - U g_LS) / (N - n).

    Requires N > n, which :func:`run_ssml` checks.  If the normal matrix
    U'U = R'R has condition number cond(R)^2 above RIDGE_CONDITION_LIMIT, g
    solves (R'R + rho I) g = R'b with the ridge rho = RIDGE_SCALE *
    trace(U'U)/n, its residual is rss + |b - R g|^2, and an
    IllConditionedWarning is recorded; a zero U'U (an all-zero input) raises
    NumericError.
    """
    N, n = ls.N, ls.n
    sv = np.linalg.svd(ls.R, compute_uv=False)
    # a zero R gives 0/0: NaN, which the test below treats as singular
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = (sv[0] / sv[-1]) ** 2
    rss = ls.rss
    if not np.isfinite(cond) or cond > RIDGE_CONDITION_LIMIT:
        ridge = RIDGE_SCALE * float(sv @ sv) / n
        if not ridge > 0:
            raise NumericError(
                "normal matrix U'U is zero (all-zero input?)",
                context="ssml.estimate_sigma2",
            )
        warnings.warn(
            f"normal matrix condition {cond:.3g} exceeds {RIDGE_CONDITION_LIMIT:.0e}: "
            f"adding ridge {RIDGE_SCALE:g} trace(U'U)/n to the least-squares solve",
            IllConditionedWarning,
        )
        g = np.linalg.solve(ls.R.T @ ls.R + ridge * np.eye(n), ls.R.T @ ls.b)
        r = ls.b - ls.R @ g
        rss += float(r @ r)
    return rss / (N - n)


@dataclass
class MarglikObjective:
    """Fixed data for marginal-likelihood evaluations over (lambda, beta).

    Holds the reduced regression, pre-estimated noise variance and kernel
    order; per-beta eigendecompositions are cached internally, so reuse one
    instance across a hyperparameter search.  Treat as immutable.
    """

    data: LeastSquares
    sigma2: float
    order: KernelOrder = KernelOrder.FIRST

    _beta_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _for_beta(self, beta: float):
        """Cached (s, p, W): eigenvalues of R K_beta R' = W diag(s) W'
        clipped at 0, p = W'b, and the eigenvectors."""
        key = float(beta)
        hit = self._beta_cache.get(key)
        if hit is None:
            R = self.data.R
            K = build_kernel(KernelSpec(self.order, key, self.data.n))
            try:
                s, W = np.linalg.eigh(R @ K @ R.T)
            except np.linalg.LinAlgError as exc:
                raise NumericError(
                    f"no eigendecomposition of R K R' at beta={key:g}",
                    context="ssml.MarglikObjective",
                ) from exc
            hit = (np.maximum(s, 0.0), W.T @ self.data.b, W)
            self._beta_cache[key] = hit
        return hit

    def _values(self, lams, beta: float) -> np.ndarray:
        """The objective at each of ``lams`` (an array) for one beta."""
        s, p, _ = self._for_beta(beta)
        c = np.asarray(lams, dtype=float)[..., None] * (s / self.sigma2)
        fit = self.data.rss + np.sum(p * p / (1.0 + c), axis=-1)
        return self.data.N * np.log(self.sigma2) + np.sum(np.log1p(c), axis=-1) + fit / self.sigma2

    def _beta_slope(self, lam: float, beta: float) -> float:
        """The partial derivative of the objective in beta at (lam, beta).

        With d = sigma2 + lam s, v = p / d and G = W' R K'_beta R' W, it is
        lam (sum G_ii / d_i - v'G v): the derivative of log det and of the
        quadratic form of sigma2 I + lam R K_beta R' in its eigenbasis.
        """
        s, p, W = self._for_beta(beta)
        B = self.data.R.T @ W
        G = B.T @ build_kernel_derivative(KernelSpec(self.order, float(beta), self.data.n)) @ B
        d = self.sigma2 + lam * s
        v = p / d
        return lam * float(np.diagonal(G) @ (1.0 / d) - v @ G @ v)


def neg_log_marglik(lam: float, beta: float, obj: MarglikObjective) -> float:
    """log det(Sigma_y) + y' Sigma_y^{-1} y with Sigma_y = lam U K U' + sigma2 I,
    by the QR and eigendecomposition route of the module docstring, for
    lam >= 0 and beta in (0, 1)."""
    return float(obj._values(lam, beta))


def default_beta_grid() -> np.ndarray:
    """Coarse decay grid: 0.05 steps through 0.95, plus 0.99."""
    return np.concatenate([np.arange(0.05, 0.951, 0.05), [0.99]])


# Search domain.  The lambda grid spans LAMBDA_SPAN decades each side of
# ||y||^2 / trace(U K_beta U'), where lam * tr(UKU') ~ ||y||^2; low-pass N=500
# optima lay up to 6.8 decades out.  LAMBDA_TOL is the Newton step, in
# decades of lambda, below which the lambda profile stops; BETA_TOL is the
# secant step, and the bracket width, in units of beta, below which the beta
# search stops, and the distance from BETA_MIN or BETA_MAX within which an
# optimum counts as on the bound.
LAMBDA_SPAN = 10.0
LAMBDA_POINTS = 81
LAMBDA_TOL = 1e-4
BETA_MIN, BETA_MAX = 0.01, 0.99
BETA_TOL = 1e-4
_LN10 = float(np.log(10.0))


def _newton_log_lambda(s, p, sigma2: float, lo: float, hi: float, t: float) -> float:
    """A minimizer in t = ln(lam) of the objective on [lo, hi], from t.

    With c = lam s / sigma2 and q = p^2 / sigma2 the objective's derivatives
    in t are f' = sum c/(1+c) - sum q c/(1+c)^2 and
    f'' = sum c/(1+c)^2 - sum q c(1-c)/(1+c)^3, each O(n).  The sign of f'
    shrinks the bracket; the Newton step is taken when f'' > 0, it lands in
    the bracket and it is shorter than half the step before last (which
    bounds the iteration count), else the bracket is bisected.  Stops at a
    step shorter than LAMBDA_TOL decades.
    """
    a = s / sigma2
    q = p * p / sigma2
    tol = LAMBDA_TOL * _LN10
    prev = step = hi - lo
    while True:
        c = np.exp(t) * a
        r = 1.0 / (1.0 + c)
        cr = c * r
        d1 = float(np.sum(cr * (1.0 - q * r)))
        d2 = float(np.sum(cr * r * (1.0 - q * (1.0 - c) * r)))
        if d1 > 0:
            hi = t
        else:
            lo = t
        newton = -d1 / d2 if d2 > 0 else np.inf
        if lo <= t + newton <= hi and abs(newton) < 0.5 * prev:
            prev, step = abs(step), newton
        else:
            prev, step = abs(step), 0.5 * (lo + hi) - t
        t += step
        if abs(step) < tol:
            return t


def _profile_lambda(obj: MarglikObjective, beta: float) -> tuple[float, float, bool]:
    """(value, lam, lam is an end of the grid) of the minimum over lambda.

    The objective is evaluated on the LAMBDA_POINTS log grid, then
    ``_newton_log_lambda`` refines the best grid point inside its cell and
    the refined point is evaluated once; the grid point is kept if lower.

    The grid is centred on y'y / trace(U K U'), which is positive and finite
    on the data :func:`run_ssml` fits: 1/4 <= y'y < N, since y scaled to
    1/2 <= max|y| < 1 is not zero (a zero y stops at the zero noise
    variance), and U scaled to 1/2 <= max|U| < 1 has a row whose first entry
    u(s) has |u(s)| >= 1/2.  The least x'K x over x with x_1 = 1 is
    1/(K^{-1})_11, which is beta(1 - beta) for the first-order kernel and at
    least 3.2e-7 for the second over beta in [BETA_MIN, BETA_MAX], so
    trace(U K U') >= 8e-8.  A NaN centre would keep the Newton iteration
    from ending.
    """
    s, p, _ = obj._for_beta(beta)
    tr = float(np.sum(s))
    x = np.log10(obj.data.yy / tr) + np.linspace(-LAMBDA_SPAN, LAMBDA_SPAN, LAMBDA_POINTS)
    # lam as evaluated: numpy's array and scalar powers may differ by an ulp
    lams = 10.0**x
    v = obj._values(lams, beta)
    i = int(np.argmin(v))
    lo, hi = x[max(i - 1, 0)] * _LN10, x[min(i + 1, LAMBDA_POINTS - 1)] * _LN10
    lam = float(np.exp(_newton_log_lambda(s, p, obj.sigma2, lo, hi, x[i] * _LN10)))
    value = float(obj._values(lam, beta))
    if v[i] <= value:
        lam, value = float(lams[i]), float(v[i])
    return value, lam, i in (0, LAMBDA_POINTS - 1)


def _secant_beta(profiled, slope, a: float, lo: float, hi: float) -> None:
    """Profile betas toward a minimum of the profiled objective, from a
    toward lo or hi, whichever side its slope at a descends toward.

    The bracket between a and that end c keeps a slope at a pointing down
    toward c, and at c a slope pointing back toward a or a value above a's,
    so it always holds a local minimum.  The secant step through the two
    latest points is taken when it lands inside the bracket and is shorter
    than half the step before last, else the bracket is bisected.  Stops at
    a step or a bracket shorter than BETA_TOL.  Each new beta lies strictly
    inside the bracket, so none is profiled twice.
    """
    ga = slope(a)
    c = hi if ga < 0 else lo
    if c == a:
        return
    sign = 1.0 if c > a else -1.0
    fa, ha = profiled(a), sign * ga
    fc, hc = profiled(c), sign * slope(c)
    if not (hc > 0 or fc > fa):
        return
    x0, h0, x1, h1 = c, hc, a, ha
    prev = step = abs(c - a)
    while abs(c - a) > BETA_TOL and abs(step) >= BETA_TOL:
        secant = x1 - h1 * (x1 - x0) / (h1 - h0) if h1 != h0 else np.inf
        if min(a, c) < secant < max(a, c) and abs(secant - x1) < 0.5 * prev:
            prev, step = abs(step), secant - x1
        else:
            prev, step = abs(step), 0.5 * (a + c) - x1
        x = x1 + step
        fx, hx = profiled(x), sign * slope(x)
        if hx > 0 or fx > fa:
            c = x
        else:
            a, fa = x, fx
        x0, h0, x1, h1 = x1, h1, x, hx


def optimize_hyperparams(obj: MarglikObjective) -> tuple[float, float]:
    """Minimizer (lambda, beta) of the negative log marginal likelihood.

    At each beta of ``default_beta_grid()``, lambda is profiled out: a log
    grid brackets the minimum and a safeguarded Newton iteration in ln(lam)
    refines it inside the best grid cell, so each beta costs one
    eigendecomposition and two objective evaluations.  The slope in beta of
    the profiled objective at the best grid beta beta0 picks the side of
    beta0 it descends toward; the grid neighbour on that side, or BETA_MIN or
    BETA_MAX past the grid's ends, closes the bracket, in which
    ``_secant_beta`` refines beta.  The result is the best beta profiled,
    the first on ties, so it is deterministic.  An optimum on the lambda
    grid's edge or within BETA_TOL of BETA_MIN or BETA_MAX is returned with
    an IllConditionedWarning.
    """
    profiles = {}  # beta -> (value, lam, lam is an end of the grid)

    def profiled(beta: float) -> float:
        if beta not in profiles:
            profiles[beta] = _profile_lambda(obj, beta)
        return profiles[beta][0]

    def slope(beta: float) -> float:
        return obj._beta_slope(profiles[beta][1], beta)

    # BETA_MIN and BETA_MAX close the brackets past the grid's ends
    grid = [BETA_MIN, *map(float, default_beta_grid()), BETA_MAX]
    i = min(range(1, len(grid) - 1), key=lambda k: profiled(grid[k]))
    _secant_beta(profiled, slope, grid[i], grid[i - 1], grid[i + 1])
    beta_hat = min(profiles, key=lambda beta: profiles[beta][0])
    _, lam_hat, on_edge = profiles[beta_hat]
    if on_edge:
        # lambda relative to the grid's centre, which reads alike in any units
        ratio = lam_hat * float(np.sum(obj._for_beta(beta_hat)[0])) / obj.data.yy
        warnings.warn(
            f"marginal-likelihood optimum lambda={ratio:.3g} y'y/trace(UKU') "
            f"(beta={beta_hat:.4g}) lies on the edge of the {LAMBDA_SPAN:g}-decade "
            "search span",
            IllConditionedWarning,
        )
    for bound in (BETA_MIN, BETA_MAX):
        if abs(beta_hat - bound) <= BETA_TOL:
            warnings.warn(
                f"marginal-likelihood optimum beta={beta_hat:.4g} lies on the search "
                f"bound {bound:g}",
                IllConditionedWarning,
            )
    return lam_hat, beta_hat


def _noise_diag(noise_cov_diag, N: int) -> np.ndarray:
    d = np.asarray(noise_cov_diag, dtype=float)
    if d.ndim == 0:
        d = np.full(N, float(d))
    if d.shape != (N,):
        raise ConfigError(f"noise_cov_diag must be scalar or length {N}")
    if d.size and not (d.min() > 0 and d.max() < np.inf):
        raise ConfigError("noise_cov_diag entries must be positive and finite")
    return d


def information_system(
    lam: float, Xs: np.ndarray, context: str
) -> tuple[np.ndarray, np.ndarray]:
    """The information form (A, c) of the whitened posterior of X = [Phi y].

    ``Xs`` is the scaled data (D^{-1/2} X)', (n+1) x N; callers form it from
    X' by one product along its contiguous rows.  One Gram of D^{-1/2} X,
    with I/lam added to its leading n x n block, holds
    A = I/lam + Phi'D^{-1}Phi and c = Phi'D^{-1}y, and the posterior of w is
    N(A^{-1} c, A^{-1}).  ``lam`` must be positive and D positive and
    finite; callers check both.  A Gram that is not finite raises
    NumericError under ``context``, the caller's name.  ``Xs`` is only read.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        M = Xs @ Xs.T
    if not np.isfinite(M).all():
        raise NumericError("information-form system not finite", context=context)
    n = M.shape[0] - 1
    M.ravel()[: n * (n + 2) : n + 2] += 1.0 / lam  # the leading block's diagonal
    return M[:n, :n], M[:n, n]


def _whiten(spec: KernelSpec, U, y) -> tuple[np.ndarray, np.ndarray]:
    """(L_K, X' = [Phi y]') with Phi = U L_K for the kernel K = L_K L_K' of
    ``spec``; X' is (n+1) x N, C-contiguous and read-only.  The one builder
    of X' (module docstring): a U that is not N x n or a y that is not of
    length N is a ConfigError naming it."""
    U, y = np.asarray(U, dtype=float), np.asarray(y, dtype=float)
    if U.ndim != 2 or U.shape[1] != spec.n:
        raise ConfigError(f"U must have shape (None, {spec.n}), got {U.shape}")
    if y.shape != U.shape[:1]:
        raise ConfigError(f"y must have shape {U.shape[:1]}, got {y.shape}")
    L_K = kernel_factor(spec)
    Xt = np.vstack([(U @ L_K).T, y])
    Xt.flags.writeable = False
    return L_K, Xt


def _solve(A: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """A^{-1} b by LU; a singular A raises NumericError under ``context``."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError("information-form system singular", context=context) from exc


def posterior_moments(
    lam: float,
    Phi: np.ndarray,
    y: np.ndarray,
    noise_cov_diag,
) -> tuple[np.ndarray, np.ndarray]:
    """Whitened posterior of w = L_K^{-1} g given data and (lam, D).

    ``Phi`` is the whitened regressor U L_K, with K = L_K L_K', so the
    prior on w is N(0, lam I).  The posterior is w ~ N(A^{-1} c, A^{-1})
    with A = I/lam + Phi'D^{-1}Phi and c = Phi'D^{-1}y
    (:func:`information_system`).  Returns the mean and the
    upper-triangular factor R = L_A^{-T} of A^{-1} = R R', where
    A = L_A L_A' is the one Cholesky: R solves L_A' R = I, whose back
    substitution on e_i leaves exact zeros, so R is exactly
    upper-triangular, and the mean is R (R' c).

    Mapping back through L_K gives the posterior of g: mean L_K m and
    covariance factor L_K R.  By the Woodbury identity these equal the
    covariance-form mean lam K U' (lam U K U' + D)^{-1} y and covariance
    lam K - lam^2 K U' (lam U K U' + D)^{-1} U K.
    """
    if not (lam > 0 and np.isfinite(lam)):
        raise ConfigError(f"posterior_moments requires lambda > 0, got {lam}")
    Xt = np.vstack([np.asarray(Phi, dtype=float).T, np.asarray(y, dtype=float)])
    s = 1.0 / np.sqrt(_noise_diag(noise_cov_diag, Xt.shape[1]))
    A, c = information_system(lam, Xt * s, "ssml.posterior_moments")
    try:
        L_A = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "information-form system not positive definite",
            context="ssml.posterior_moments",
        ) from exc
    R = np.linalg.solve(L_A.T, np.eye(A.shape[0]))
    return R @ (R.T @ c), R


def posterior_mean(
    lam: float,
    spec: KernelSpec,
    U: np.ndarray,
    y: np.ndarray,
    noise_cov_diag,
) -> np.ndarray:
    """Posterior-mean impulse response lam K U' (lam U K U' + D)^{-1} y, K of ``spec``.

    ``noise_cov_diag`` is the diagonal of D: a scalar sigma2, as
    :func:`run_ssml` passes, or one variance per sample.  Computed by the
    whitened information form: L_K times A^{-1} c, one solve of the system
    of :func:`information_system`, which holds for any N and n when
    lam > 0; lam = 0 gives the zero response.
    Under a scalar sigma2 the mean depends on U and y only through U'U and
    U'y, so the n x n pair (R, b) of ``LeastSquares`` gives the same mean
    as (U, y).
    """
    if not (lam >= 0 and np.isfinite(lam)):
        raise ConfigError(f"lambda must be finite and >= 0, got {lam}")
    if lam == 0.0:
        return np.zeros(spec.n)
    L_K, Xt = _whiten(spec, U, y)
    s = 1.0 / np.sqrt(_noise_diag(noise_cov_diag, Xt.shape[1]))
    A, c = information_system(lam, Xt * s, "ssml.posterior_mean")
    return L_K @ _solve(A, c, "ssml.posterior_mean")


@dataclass(frozen=True)
class SsmlResult:
    """Posterior-mean estimate with fitted hyperparameters.

    ``objective`` is the negative log marginal likelihood at the optimum.
    The result is the whole model the Gibbs sampler starts from: n is
    ``g_hat.size``, and the kernel is ``order`` at ``hyper.beta``.
    """

    g_hat: np.ndarray
    hyper: Hyperparameters
    objective: float
    order: KernelOrder

    def __post_init__(self):
        g = np.array(self.g_hat, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ConfigError(f"g_hat must be a non-empty vector, got shape {g.shape}")
        g.flags.writeable = False
        object.__setattr__(self, "g_hat", g)
        object.__setattr__(self, "order", KernelOrder.parse(self.order))


def run_ssml(
    dataset: Dataset,
    n: int,
    order: KernelOrder = KernelOrder.FIRST,
) -> SsmlResult:
    """Full Gaussian-noise estimation pass on a dataset.

    The fit runs on the regressor and output scaled by powers of two,
    (U 2^-m, y 2^-k) of :func:`stablespline.model.power_of_two_scaled`, so
    it does not depend on the scale of u or y; m comes from u(1..N-1), the
    samples U holds.  It reduces the scaled regressor with the output by one
    QR (``LeastSquares``), pre-estimates sigma2 from that QR (floored at
    SIGMA2_FLOOR_FACTOR * var(y), with an IllConditionedWarning when the
    floor engages), optimizes (lambda, beta)
    by marginal likelihood on the same QR, and computes the posterior-mean
    response of length n from the n x n reduction.  The results are mapped
    back exactly: g by 2^(k-m), lambda by 4^(k-m) and sigma2 by 4^k, and the
    objective gains N k ln 4.  A scale whose factors 4^(k-m) or 4^k are not
    normal floats raises NumericError before the fit, and a lambda or sigma2
    that is not a normal float in data units, or a g that overflows there,
    after it.  Deterministic: no randomness is consumed.
    """
    order = KernelOrder.parse(order)
    N = dataset.N
    if N <= n:
        raise ConfigError(f"run_ssml needs N > n, got N={N}, n={n}")
    m, k, U, y = power_of_two_scaled(build_regressor(dataset.u, N, n), dataset.y)
    # 4^(k-m) also bounds 2^(k-m), the unit factor of g
    if not all(_MIN_EXP <= e < _MAX_EXP for e in (2 * (k - m), 2 * k)):
        raise NumericError(
            f"data units out of range: max|u(1..N-1)| ~ 2^{m} and max|y| ~ 2^{k}, so "
            f"lambda's unit 4^{k - m} or sigma2's 4^{k} is not a normal float",
            context="ssml.run_ssml",
        )
    ls = LeastSquares(U, y)
    del U  # the fit reads only the QR from here on
    sigma2 = estimate_sigma2(ls)
    floor = SIGMA2_FLOOR_FACTOR * float(np.var(y))
    if sigma2 < floor:
        warnings.warn(
            f"least-squares noise variance {np.ldexp(sigma2, 2 * k):.3g} is below the "
            f"floor {np.ldexp(floor, 2 * k):.3g} ({SIGMA2_FLOOR_FACTOR:g} var(y)), "
            "so the floor is used",
            IllConditionedWarning,
        )
        sigma2 = floor
    if not sigma2 > 0:
        raise NumericError(
            "estimated noise variance is zero (constant zero output?)",
            context="ssml.run_ssml",
        )
    obj = MarglikObjective(ls, sigma2, order)
    lam_hat, beta_hat = optimize_hyperparams(obj)
    g_hat = posterior_mean(lam_hat, KernelSpec(order, beta_hat, n), ls.R, ls.b, sigma2)
    value = neg_log_marglik(lam_hat, beta_hat, obj) + N * k * np.log(4.0)
    with np.errstate(over="ignore"):  # reported below
        g_hat = np.ldexp(g_hat, k - m)
        lam_hat, sigma2 = float(np.ldexp(lam_hat, 2 * (k - m))), float(np.ldexp(sigma2, 2 * k))
    if not (_TINY <= min(lam_hat, sigma2) and max(lam_hat, sigma2) < np.inf
            and np.isfinite(g_hat).all()):
        raise NumericError(
            f"fit not representable in data units: lambda={lam_hat:g}, "
            f"sigma2={sigma2:g}, max|g|={np.max(np.abs(g_hat)):g}",
            context="ssml.run_ssml",
        )
    return SsmlResult(
        g_hat=g_hat,
        hyper=Hyperparameters(lam=lam_hat, beta=beta_hat, sigma2=sigma2),
        objective=float(value),
        order=order,
    )
