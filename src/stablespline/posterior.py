"""The stable-spline Gaussian posterior of g, shared by both estimators.

The posterior is computed in whitened coordinates w = L_K^{-1} g, with
K = L_K L_K' and regressor Phi = U L_K, where the prior on w is
N(0, lam I) (Chen & Ljung's factor parametrization).  L_K is exact for both
orders (:func:`stablespline.kernels.kernel_factor`), so the posterior has the
marginal likelihood's prior K.
Each estimator factors the kernel itself and passes L_K to :func:`whiten`,
the one builder of X' = [Phi y]', by the product U @ L_K: for the SS-ML
posterior mean and once per chain in the Gibbs sampler, so both give the
same bits under any BLAS thread count.  X' is read-only: each caller scales
it into its own array.  One Gram of the scaled data D^{-1/2} X gives the
information form A w = c of the posterior, A = I/lam + Phi'D^{-1}Phi and
c = Phi'D^{-1}y (:func:`information_system`).  The SS-ML posterior mean
(D = sigma2 I) is one solve of that system.  A Gibbs draw (D = diag(tau)) is
one solve of the same system with a perturbed right-hand side (Papandreou &
Yuille, NIPS 2010): with e standard normal of length N + n added as e_N to
the scaled output row y D^{-1/2}, the Gram's last column becomes
c~ = c + Phi'D^{-1/2} e_N ~ N(c, Phi'D^{-1}Phi), and
w = A^{-1}(c~ + e_n / sqrt(lam)) has mean A^{-1} c and covariance A^{-1}.
Only the covariance factor L_A^{-T} of :func:`moments` takes a Cholesky
A = L_A L_A', and no inverse is formed.  Every factorization goes
through ``numpy.linalg``: numpy and scipy bundle separate OpenBLAS builds,
and alternating between them on a hot path makes their thread pools compete.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .model import check_array, check_positive

__all__ = ["noise_diag", "information_system", "whiten", "solve", "moments", "posterior_moments"]


def noise_diag(noise_cov_diag, N: int) -> np.ndarray:
    """The N noise variances from a scalar sigma2 or one per sample."""
    d = np.asarray(noise_cov_diag)
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


def moments(lam: float, Xt: np.ndarray, d: np.ndarray, context: str):
    """(A^{-1} c, L_A^{-T}) for X' = [Phi y]' and noise variances ``d``, which
    its callers have checked; a failure raises NumericError under ``context``."""
    with np.errstate(over="ignore"):  # a scaled datum out of range: the Gram reports it
        A, c = information_system(lam, Xt * (1.0 / np.sqrt(d)), context)
    try:
        L_A = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "information-form system not positive definite", context=context
        ) from exc
    R = np.linalg.solve(L_A.T, np.eye(A.shape[0]))
    return R @ (R.T @ c), R


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
    lam = check_positive("posterior_moments", "lambda", lam)
    Phi = check_array("Phi", Phi, (None, None))
    Xt = np.vstack([Phi.T, check_array("y", y, Phi.shape[:1])])
    return moments(lam, Xt, noise_diag(noise_cov_diag, Xt.shape[1]), "posterior.posterior_moments")
