"""Gibbs-sampling impulse response estimation under Laplacian noise.

Each sweep draws, in order and each conditioned on the latest values:

1. per-sample noise variances tau_i ~ GIG(2/sigma2, r_i^2, 1/2), with
   r = y - U g the current residual vector;
2. the prior scale through lambda^{-1} ~ Gamma(n/2 + 1, g'K^{-1}g / 2)
   (lambda depends on the other variables only through g);
3. g from its Gaussian conditional given (lambda, tau).

The sweep runs in the whitened coordinates of :mod:`stablespline.posterior`,
w = L_K^{-1} g with L_K L_K' = K (K + eps I for the second order), on
X' = [Phi y]', Phi = U L_K, formed once per chain by
:func:`stablespline.posterior.whiten`: the residual is y - Phi w, the lambda
rate uses g'K^{-1}g = w'w, and the g step draws w.  The chain's state is w:
it stores every sweep's w and forms the g draws once, after the last sweep,
as g = L_K w.  The w draw is that module's perturbed solve under
D = diag(tau), and no factor of A is formed.  X' is read-only and holds
[Phi y]' for the whole chain: the g step scales it into its own buffer and
adds e_N to the output row there.
The exported conditionals wrap the same three step functions, take a
``KernelSpec`` and check their arguments at entry, once, with the helpers of
:mod:`stablespline.model`; the steps and their samplers check nothing.  A
draw that cannot be represented raises NumericError under its conditional's
name, with no numpy warning, and :func:`run_gibbs` adds the sweep.

The chain starts from the Gaussian-noise estimate (see
:func:`stablespline.ssml.run_ssml`), whose result also fixes n, the kernel
order, beta and sigma2; it draws from the caller's stream, discards a
burn-in prefix, and averages the remaining g draws.  Like SS-ML, it runs
on the regressor and output scaled by powers of two
(:func:`stablespline.model.power_of_two_scaled`), U 2^-m and y 2^-k with
max|U 2^-m| and max|y 2^-k| in [1/2, 1), where U holds u(1..N-1): g scales
by 2^(m-k), lambda by 4^(m-k) and tau and sigma2 by 4^-k, exactly, so the
draws mapped back are those of the unscaled chain wherever that chain
neither underflows nor overflows.  The lambda-rate floor,
LAMBDA_RATE_FLOOR_FACTOR trace(K), thus holds in units of
(max|y| / max|u(1..N-1)|)^2 for g'K^{-1}g, whatever the scale of either
signal.
The exported conditionals take and return data units, and
:func:`conditional_lambda`'s floor holds in units of max|g|^2.
Mixing diagnostics (:func:`quantile_diagnostics`) are computed by whoever
reads them, from the returned chain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import as_generator, sample_gamma, sample_gig_half, sample_mvn
from .errors import ConfigError, IllConditionedWarning, NumericError
from .kernels import KernelSpec, build_kernel, kernel_factor, kernel_solve
from .model import (
    Dataset,
    build_regressor,
    check_array,
    check_count,
    check_positive,
    power_of_two_scaled,
)
# posterior_moments stays a name here: perfbench/layers.py patches it
from .posterior import information_system, moments, posterior_moments, solve, whiten
from .ssml import SsmlResult

__all__ = [
    "GibbsConfig",
    "GibbsChain",
    "QuantileReport",
    "conditional_tau",
    "conditional_lambda",
    "conditional_g",
    "conditional_g_moments",
    "run_gibbs",
    "quantile_diagnostics",
    "RATE_CONVENTIONS",
]

# Gamma-rate conventions for the lambda conditional.  "half" is the
# conjugate-derivation rate g'K^{-1}g / 2; "literal" drops the 1/2 and is
# kept as a sensitivity switch.
RATE_CONVENTIONS = ("half", "literal")

# Relative floor for the Gamma rate when g'K^{-1}g collapses to zero.
LAMBDA_RATE_FLOOR_FACTOR = 1e-12

# Split-half quantile discrepancies above this (in IQR units) flag a
# coordinate as poorly mixed.
QUANTILE_FLAG_THRESHOLD = 0.2
DIAG_QUANTILES = (0.25, 0.5, 0.75)
IQR_FLOOR_FACTOR = 1e-12
DIAG_MIN_SAMPLES = 100  # the least post-burn-in chain the split-half check reads

TAU_THIN = 10  # store every TAU_THIN-th tau vector; the estimate needs none
G_ROWS = 128  # w draws mapped to g per product after the last sweep


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler settings: M total sweeps, M0 burn-in and the rate convention
    of the lambda conditional.

    The model (n, kernel order, beta, sigma2) is not a setting: the sampler
    takes it from the initializing SS-ML result, and its random stream from
    the caller (see :func:`run_gibbs`).
    """

    M: int = 1500
    M0: int = 500
    rate_convention: str = "half"

    def __post_init__(self):
        if check_count("M0", self.M0) >= check_count("M", self.M):
            raise ConfigError(f"need 1 <= M0 < M, got M={self.M}, M0={self.M0}")
        if self.rate_convention not in RATE_CONVENTIONS:
            raise ConfigError(
                f"rate_convention must be one of {RATE_CONVENTIONS}, "
                f"got {self.rate_convention!r}"
            )


@dataclass(frozen=True)
class QuantileReport:
    """Split-half quantile stability check over the post-burn-in chain.

    ``quantiles``    (n, 3): 0.25/0.5/0.75 empirical quantiles of each g
                     coordinate over the post-burn-in samples.
    ``discrepancy``  (n, 3): |first-half - second-half| quantile gap,
                     normalized by the coordinate's post-burn-in IQR.
    ``flagged``      (n,) bool: any normalized gap above the threshold.
    """

    quantiles: np.ndarray
    discrepancy: np.ndarray
    flagged: np.ndarray
    threshold: float = QUANTILE_FLAG_THRESHOLD

    @property
    def flagged_count(self) -> int:
        return int(np.count_nonzero(self.flagged))


@dataclass(frozen=True)
class GibbsChain:
    """Stored draws of one chain: g (M x n), lambda (M,) and tau
    (M // TAU_THIN x N), every TAU_THIN-th sweep's.

    ``burn_in`` marks M0: the estimate averages 1-based sweeps
    M0..M, i.e. rows burn_in - 1 onward.
    """

    g_samples: np.ndarray
    lambda_samples: np.ndarray
    tau_samples: np.ndarray
    burn_in: int

    def post_burn_in(self) -> np.ndarray:
        return self.g_samples[self.burn_in - 1 :]


def _draw_tau(
    Phi: np.ndarray,
    w: np.ndarray,
    y: np.ndarray,
    a_gig: float,
    gen: np.random.Generator,
) -> np.ndarray:
    """Tau step: tau_i ~ GIG(a_gig, r_i^2, 1/2) with r = y - Phi w."""
    r = y - Phi @ w
    tau = sample_gig_half(a_gig, r * r, gen)
    if not (tau.min() > 0 and tau.max() < np.inf):
        raise NumericError(
            "non-positive/non-finite tau",
            context="gibbs.conditional_tau",
        )
    return tau


def _draw_lambda(
    quad: float,
    n: int,
    gen: np.random.Generator,
    convention: str,
    rate_floor: float,
) -> float:
    """Lambda step: lambda^{-1} ~ Gamma(n/2 + 1, rate) from quad = g'K^{-1}g,
    which is w'w in the sweep."""
    rate = quad / 2.0 if convention == "half" else quad
    if rate < rate_floor:
        # a ratio: run_gibbs's rate and floor are in its scaled units
        warnings.warn(
            f"lambda conditional rate floored: it was {rate / rate_floor:.3g} "
            "times the floor (near-zero g'K^{-1}g)",
            IllConditionedWarning,
        )
        rate = rate_floor
    if not 0.0 < rate < np.inf:
        raise NumericError(
            "non-positive/non-finite lambda rate",
            context="gibbs.conditional_lambda",
        )
    lam = 1.0 / sample_gamma(n / 2.0 + 1.0, rate, gen)
    if not (lam > 0 and np.isfinite(lam)):
        raise NumericError(
            "non-positive/non-finite lambda",
            context="gibbs.conditional_lambda",
        )
    return lam


def _draw_g(
    lam: float,
    tau: np.ndarray,
    Xt: np.ndarray,
    gen: np.random.Generator,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """G step: w = L_K^{-1} g from its whitened Gaussian conditional.

    The perturbation draw of the module docstring, left in w: the caller
    maps it to g.  Xt = [Phi y]' is only read: it is scaled by D^{-1/2},
    D = diag(tau), into ``work`` (shaped like Xt; a new array if None), e_N
    is added to the scaled output row, and w solves
    A w = c~ + e_n / sqrt(lam).  ``tau`` must be positive and finite.
    """
    N, n = tau.size, Xt.shape[0] - 1
    e = sample_mvn(N + n, gen)
    Xs = np.multiply(Xt, 1.0 / np.sqrt(tau), out=work)
    Xs[n] += e[:N]
    A, c = information_system(lam, Xs, "gibbs.conditional_g")
    return solve(A, c + e[N:] / np.sqrt(lam), "gibbs.conditional_g")


def conditional_tau(
    g: np.ndarray,
    U: np.ndarray,
    y: np.ndarray,
    sigma2: float,
    rng,
) -> np.ndarray:
    """Draw all N noise variances from their GIG full conditionals.

    Coordinates are conditionally independent: tau_i depends on the state
    only through the i-th residual y_i - U_i g.
    """
    sigma2 = check_positive("conditional_tau", "sigma2", sigma2)
    U = check_array("U", U, (None, None))
    g, y = check_array("g", g, U.shape[1:]), check_array("y", y, U.shape[:1])
    with np.errstate(all="ignore"):  # a tau that overflows raises NumericError
        return _draw_tau(U, g, y, 2.0 / sigma2, as_generator(rng))


def conditional_lambda(g: np.ndarray, spec: KernelSpec, rng, rate_convention="half") -> float:
    """Draw lambda^{-1} ~ Gamma(n/2 + 1, rate) for the kernel K of ``spec``.

    ``rate_convention="half"`` uses rate g'K^{-1}g / 2 (flat prior on
    lambda^{-1}); "literal" uses rate g'K^{-1}g.  A rate below
    LAMBDA_RATE_FLOOR_FACTOR trace(K) 4^e, with 2^(e-1) <= max|g| < 2^e, is
    raised to it with an IllConditionedWarning: the floor holds in units of
    max|g|^2, so g 2^j draws lambda 4^j exactly.  A zero g takes e = 0.
    """
    if rate_convention not in RATE_CONVENTIONS:
        raise ConfigError(f"unknown rate convention {rate_convention!r}")
    g = check_array("g", g, (spec.n,))
    with np.errstate(all="ignore"):  # a lambda out of range raises NumericError
        w = kernel_solve(spec, kernel_factor(spec), g)
        e = int(np.frexp(np.max(np.abs(g)))[1])
        floor = np.ldexp(LAMBDA_RATE_FLOOR_FACTOR * float(np.trace(build_kernel(spec))), 2 * e)
        return _draw_lambda(float(w @ w), g.size, as_generator(rng), rate_convention, floor)


def conditional_g_moments(
    lam: float,
    tau: np.ndarray,
    spec: KernelSpec,
    U: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance factor of the g conditional for the kernel K of ``spec``.

    Equals the posterior of g under noise covariance D = diag(tau):
    mean lam K U' (lam U K U' + D)^{-1} y, covariance
    lam K - lam^2 K U' (lam U K U' + D)^{-1} U K, both evaluated through
    the whitened information form and mapped back through L_K.
    """
    lam = check_positive("conditional_g_moments", "lambda", lam)
    L_K = kernel_factor(spec)
    Xt = whiten(L_K, U, y)
    tau = check_array("tau", tau, Xt.shape[1:], positive=True)
    mean, R = moments(lam, Xt, tau, "gibbs.conditional_g_moments")
    return L_K @ mean, L_K @ R


def conditional_g(
    lam: float,
    tau: np.ndarray,
    spec: KernelSpec,
    U: np.ndarray,
    y: np.ndarray,
    rng,
) -> np.ndarray:
    """Draw g from its Gaussian full conditional given (lambda, tau) and ``spec``."""
    lam = check_positive("conditional_g", "lambda", lam)
    L_K = kernel_factor(spec)
    Xt = whiten(L_K, U, y)
    tau = check_array("tau", tau, Xt.shape[1:], positive=True)
    with np.errstate(over="ignore"):  # a scaled datum out of range: the Gram reports it
        g = L_K @ _draw_g(lam, tau, Xt, as_generator(rng))
    if not np.isfinite(g).all():
        raise NumericError("non-finite g draw", context="gibbs.conditional_g")
    return g


@np.errstate(all="ignore")  # every draw is checked: out of range is a NumericError
def run_gibbs(
    dataset: Dataset,
    config: GibbsConfig,
    init: SsmlResult,
    rng,
) -> tuple[np.ndarray, GibbsChain]:
    """Run the full sampler and return (g_hat, chain).

    ``init`` is the model: the chain starts at g0 = ``init.g_hat``, n is its
    length, and the kernel order, beta and sigma2 are ``init``'s, held
    through the chain; the first sweep draws lambda afresh.  ``rng`` (an
    RngHandle or a numpy Generator) is the chain's one random stream.  The
    estimate is the mean of the g draws from sweep M0 through M inclusive.

    The chain runs on U 2^-m and y 2^-k, with 2^(m-1) <= max|u(1..N-1)| < 2^m
    (the samples the regressor U holds) and 2^(k-1) <= max|y| < 2^k, from
    g0 2^(m-k) and sigma2 4^-k.  After the last sweep its stored w draws
    become g = L_K w, and g, lambda and tau are mapped back by 2^(k-m),
    4^(k-m) and 4^k (module docstring); a draw or estimate that overflows
    in data units raises NumericError.
    """
    n = init.g_hat.size
    m, k, U, y = power_of_two_scaled(build_regressor(dataset.u, dataset.N, n), dataset.y)
    spec = KernelSpec(init.order, init.hyper.beta, n)
    L_K = kernel_factor(spec)
    Xt = whiten(L_K, U, y)
    del U  # the chain reads only X' from here on
    Phi, y, work = Xt[:n].T, Xt[n], np.empty_like(Xt)
    rate_floor = LAMBDA_RATE_FLOOR_FACTOR * float(np.trace(build_kernel(spec)))
    gen = as_generator(rng)

    w = kernel_solve(spec, L_K, np.ldexp(init.g_hat, m - k))
    ww = float(w @ w)  # g'K^{-1}g, the lambda step's statistic
    a_gig = 2.0 / np.ldexp(init.hyper.sigma2, -2 * k)

    M, M0 = config.M, config.M0
    w_samples = np.empty((M, n))
    lambda_samples = np.empty(M)
    tau_samples = np.empty((M // TAU_THIN, dataset.N))

    for sweep in range(1, M + 1):
        try:
            tau = _draw_tau(Phi, w, y, a_gig, gen)
            lam = _draw_lambda(ww, n, gen, config.rate_convention, rate_floor)
            w = _draw_g(lam, tau, Xt, gen, work)
            ww = float(w @ w)
            if not np.isfinite(ww):
                raise NumericError("non-finite g draw", context="gibbs.conditional_g")
        except NumericError as exc:
            raise NumericError(f"{exc.message} at sweep {sweep}", context=exc.context) from exc

        w_samples[sweep - 1] = w
        lambda_samples[sweep - 1] = lam
        if sweep % TAU_THIN == 0:
            tau_samples[sweep // TAU_THIN - 1] = tau

    # back to data units, in place: the chain's arrays are its largest, so the
    # stored w become g = L_K w G_ROWS draws at a time
    for i in range(0, M, G_ROWS):
        w_samples[i : i + G_ROWS] = w_samples[i : i + G_ROWS] @ L_K.T
    g_samples = np.ldexp(w_samples, k - m, out=w_samples)
    np.ldexp(lambda_samples, 2 * (k - m), out=lambda_samples)
    np.ldexp(tau_samples, 2 * k, out=tau_samples)
    g_hat = g_samples[M0 - 1 :].mean(axis=0)  # GibbsChain.post_burn_in's rows
    if not all(np.isfinite(x).all() for x in (g_hat, g_samples, lambda_samples, tau_samples)):
        raise NumericError("chain draws overflow in data units", context="gibbs.run_gibbs")
    return g_hat, GibbsChain(g_samples, lambda_samples, tau_samples, burn_in=M0)


def quantile_diagnostics(chain: GibbsChain) -> QuantileReport:
    """Split-half quantile stability report for every g coordinate.

    The post-burn-in samples are split into two halves; the 0.25/0.5/0.75
    quantile gaps between halves, normalized by the full post-burn-in IQR
    (floored at IQR_FLOOR_FACTOR times the sample range to avoid 0/0),
    flag coordinates above QUANTILE_FLAG_THRESHOLD.  ``chain.burn_in`` must
    be a positive integer that leaves at least DIAG_MIN_SAMPLES draws, and
    those draws must be finite.
    """
    check_count("chain.burn_in", chain.burn_in)
    post = check_array("chain.g_samples", chain.post_burn_in(), (None, None))
    check_count("post-burn-in samples", post.shape[0], DIAG_MIN_SAMPLES)
    half = post.shape[0] // 2
    first, second = post[:half], post[half : 2 * half]
    qs = np.quantile(post, DIAG_QUANTILES, axis=0).T       # (n, 3)
    q1 = np.quantile(first, DIAG_QUANTILES, axis=0).T
    q2 = np.quantile(second, DIAG_QUANTILES, axis=0).T
    gap = np.abs(q1 - q2)
    iqr = qs[:, 2] - qs[:, 0]
    rng_span = post.max(axis=0) - post.min(axis=0)
    denom = np.maximum(iqr, IQR_FLOOR_FACTOR * rng_span)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(gap == 0.0, 0.0, gap / denom[:, None])
    flagged = np.any(normalized > QUANTILE_FLAG_THRESHOLD, axis=1)
    return QuantileReport(quantiles=qs, discrepancy=normalized, flagged=flagged)
