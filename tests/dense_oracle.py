"""Dense N x N reference computations for the SS-ML algebra.

The library works in n x n forms; these are the textbook covariance-domain
formulas they must agree with, used only as test oracles.
"""

import numpy as np

from stablespline import KernelSpec, build_kernel
from stablespline.kernels import KernelMatrix


def covariance_posterior_mean(lam, K, U, y, noise_cov_diag):
    """lam K U' (lam U K U' + D)^{-1} y by a direct N x N Cholesky solve."""
    Karr = K.K if isinstance(K, KernelMatrix) else np.asarray(K, dtype=float)
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.broadcast_to(np.asarray(noise_cov_diag, dtype=float), y.shape)
    c = np.linalg.cholesky(lam * (U @ Karr @ U.T) + np.diag(d))
    return lam * (Karr @ (U.T @ np.linalg.solve(c.T, np.linalg.solve(c, y))))


def dense_neg_log_marglik(lam, beta, U, y, sigma2):
    """log det S + y'S^{-1}y, S = lam U K U' + sigma2 I (first-order K), by
    slogdet and a solve."""
    K = build_kernel(KernelSpec("first", beta, U.shape[1])).K
    S = lam * (U @ K @ U.T) + sigma2 * np.eye(U.shape[0])
    sign, logdet = np.linalg.slogdet(S)
    assert sign > 0
    return logdet + float(y @ np.linalg.solve(S, y))
