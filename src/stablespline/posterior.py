"""The stable-spline Gaussian posterior of g, shared by both estimators.

The posterior is computed in whitened coordinates w = L_K^{-1} g, with
K = L_K L_K' and regressor Phi = U L_K, where the prior on w is
N(0, lam I) (Chen & Ljung's factor parametrization).  L_K is exact for both
orders (:func:`stablespline.kernels.kernel_factor`), so the posterior has the
marginal likelihood's prior K.
The SS-ML posterior mean, :func:`posterior_moments` and, once per chain,
the Gibbs sampler each factor the kernel themselves and pass L_K to
:func:`whiten`, the one builder of X' = [Phi y]', by the product U @ L_K, so
all give the same bits under any BLAS thread count.  X' is read-only: each
caller scales it into its own array.  One Gram of the scaled data D^{-1/2} X
gives the information form A w = c of the posterior,
A = I/lam + Phi'D^{-1}Phi and c = Phi'D^{-1}y (:func:`information_system`).
The SS-ML posterior mean (D = sigma2 I) is one solve of that system.  A
Gibbs draw (D = diag(tau)) is one solve of the same system with a perturbed
right-hand side (Papandreou & Yuille, NIPS 2010): with e standard normal of
length N + n added as e_N to the scaled output row y D^{-1/2}, the Gram's
last column becomes c~ = c + Phi'D^{-1/2} e_N ~ N(c, Phi'D^{-1}Phi), and
w = A^{-1}(c~ + e_n / sqrt(lam)) has mean A^{-1} c and covariance A^{-1}.
Only the covariance factor of :func:`posterior_moments` takes a Cholesky
A = L_A L_A', and no inverse is formed.  Every factorization goes
through ``numpy.linalg``: numpy and scipy bundle separate OpenBLAS builds,
and alternating between them on a hot path makes their thread pools compete.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .kernels import KernelSpec, kernel_factor
from .model import as_array, check_array, check_positive

__all__ = ["noise_diag", "information_system", "whiten", "solve", "posterior_moments"]


def noise_diag(noise_cov_diag, N: int) -> np.ndarray:
    """The N noise variances from a scalar sigma2 or one per sample."""
    d = as_array("noise_cov_diag", noise_cov_diag)
    return check_array("noise_cov_diag", np.full(N, d) if d.ndim == 0 else d, (N,), positive=True)


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


def whiten(L_K: np.ndarray, U, y) -> np.ndarray:
    """X' = [Phi y]' with Phi = U L_K for the kernel factor ``L_K``; X' is
    (n+1) x N, C-contiguous and read-only.  The one builder of X' (module
    docstring), and the one check of U (N x n) and y (length N) for its
    callers."""
    U = check_array("U", U, (None, L_K.shape[1]))
    y = check_array("y", y, U.shape[:1])
    Xt = np.vstack([(U @ L_K).T, y])
    Xt.flags.writeable = False
    return Xt


def solve(A: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """A^{-1} b by LU; a singular A raises NumericError under ``context``."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError("information-form system singular", context=context) from exc


def posterior_moments(
    lam: float, spec: KernelSpec, U: np.ndarray, y: np.ndarray, noise_cov_diag
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance factor of g given data, (lam, D) and ``spec``.

    ``noise_cov_diag`` is the diagonal of D: a scalar sigma2 or one
    variance per sample.  The posterior is computed in w = L_K^{-1} g, with
    K = L_K L_K' the kernel of ``spec`` (:func:`kernel_factor`) and
    Phi = U L_K, so the prior on w is N(0, lam I) and its posterior is
    N(A^{-1} c, A^{-1}) with A = I/lam + Phi'D^{-1}Phi and c = Phi'D^{-1}y
    (:func:`information_system`).  A = L_A L_A' is the one Cholesky, and
    R = L_A^{-T} solves L_A' R = I, whose back substitution on e_i leaves
    exact zeros, so R is exactly upper-triangular and A^{-1} = R R'.

    Returns the posterior of g: the mean L_K R (R' c) and the covariance
    factor F = L_K R, upper-triangular like both of its factors, with
    covariance F F'.  By the Woodbury identity these equal the
    covariance-form mean lam K U' (lam U K U' + D)^{-1} y and covariance
    lam K - lam^2 K U' (lam U K U' + D)^{-1} U K.  ``lam`` must be
    positive.  A Gram that is not finite, or an A that is not positive
    definite, raises NumericError.
    """
    context = "posterior.posterior_moments"
    lam = check_positive("posterior_moments", "lambda", lam)
    L_K = kernel_factor(spec)
    Xt = whiten(L_K, U, y)
    d = noise_diag(noise_cov_diag, Xt.shape[1])
    with np.errstate(over="ignore"):  # a scaled datum out of range: the Gram reports it
        A, c = information_system(lam, Xt * (1.0 / np.sqrt(d)), context)
    try:
        L_A = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "information-form system not positive definite", context=context
        ) from exc
    R = np.linalg.solve(L_A.T, np.eye(A.shape[0]))
    return L_K @ (R @ (R.T @ c)), L_K @ R
