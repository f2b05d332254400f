"""Dense reference computations for the SS-ML algebra.

The library works in n x n forms from one QR of the data; these are the
textbook formulas they must agree with (covariance-domain N x N forms, and
the least-squares noise variance by numpy's SVD-based solvers), used only as
test oracles.
"""

import warnings

import mpmath
import numpy as np

from stablespline import KernelSpec, build_kernel
from stablespline.ssml import RIDGE_CONDITION_LIMIT, RIDGE_SCALE, IllConditionedWarning


def lstsq_sigma2(U, y):
    """|y - U g|^2 / (N - n) with g from ``np.linalg.lstsq``, or, when
    ``np.linalg.cond(U'U)`` exceeds RIDGE_CONDITION_LIMIT, from
    (U'U + rho I) g = U'y with rho = RIDGE_SCALE trace(U'U) / n and an
    IllConditionedWarning."""
    U = np.asarray(U, dtype=float)
    N, n = U.shape
    G = U.T @ U
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > RIDGE_CONDITION_LIMIT:
        warnings.warn(f"oracle ridge at condition {cond:.3g}", IllConditionedWarning)
        g = np.linalg.solve(G + RIDGE_SCALE * float(np.trace(G)) / n * np.eye(n), U.T @ y)
    else:
        g, *_ = np.linalg.lstsq(U, y, rcond=None)
    r = y - U @ g
    return float(r @ r) / (N - n)


def covariance_posterior_mean(lam, K, U, y, noise_cov_diag):
    """lam K U' (lam U K U' + D)^{-1} y by a direct N x N Cholesky solve."""
    Karr = np.asarray(K, dtype=float)
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.broadcast_to(np.asarray(noise_cov_diag, dtype=float), y.shape)
    c = np.linalg.cholesky(lam * (U @ Karr @ U.T) + np.diag(d))
    return lam * (Karr @ (U.T @ np.linalg.solve(c.T, np.linalg.solve(c, y))))


def dense_neg_log_marglik(lam, beta, U, y, sigma2):
    """log det S + y'S^{-1}y, S = lam U K U' + sigma2 I (first-order K), by
    slogdet and a solve."""
    K = build_kernel(KernelSpec("first", beta, U.shape[1]))
    S = lam * (U @ K @ U.T) + sigma2 * np.eye(U.shape[0])
    sign, logdet = np.linalg.slogdet(S)
    assert sign > 0
    return logdet + float(y @ np.linalg.solve(S, y))


def covariance_posterior(lam, K, U, y, noise_cov_diag, dps=50):
    """(mean, covariance) of g by the covariance form lam K U' S^{-1} y and
    lam K - lam^2 K U' S^{-1} U K, S = lam U K U' + D, in mpmath at ``dps``
    digits.

    At large lam both terms of the covariance are about lam K and cancel to
    the much smaller posterior covariance, and S is as ill-conditioned as
    lam U K U' is large: in double precision this form loses about
    log10(lam) digits, so the oracle carries the extra digits itself.
    """
    Karr = np.asarray(K, dtype=float)
    U = np.asarray(U, dtype=float)
    d = np.broadcast_to(np.asarray(noise_cov_diag, dtype=float), (U.shape[0],))
    with mpmath.workdps(dps):
        lam = mpmath.mpf(float(lam))
        Km, Um = mpmath.matrix(Karr.tolist()), mpmath.matrix(U.tolist())
        KUt = Km * Um.T
        Si = mpmath.inverse(lam * Um * KUt + mpmath.diag(d.tolist()))
        mean = lam * KUt * (Si * mpmath.matrix(np.asarray(y, dtype=float).tolist()))
        cov = lam * Km - lam**2 * KUt * (Si * KUt.T)
        return (
            np.array(mean.tolist(), dtype=float).ravel(),
            np.array(cov.tolist(), dtype=float),
        )
