"""Stable spline kernel construction and factorization utilities.

Two kernel families are provided, both parameterized by a decay rate
``beta`` in [0, 1) and indexed 1-based in the defining formulas (mapped to
0-based storage internally):

* first order (TC):   K[i, j] = beta^max(i, j)
* second order:       K[i, j] = beta^(i+j) * beta^max(i, j) / 2
                                - beta^(3 max(i, j)) / 6

Each order has one exact, upper-triangular factor K = L L^T in closed form
(:func:`kernel_factor`), with no Cholesky and no jitter: the second-order
kernel is near-singular for small beta and large n, but its factor is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .model import Choice, check_array, check_count, check_unit

__all__ = [
    "KernelOrder",
    "KernelSpec",
    "build_kernel",
    "build_kernel_derivative",
    "kernel_factor",
    "kernel_quadratic_form",
    "kernel_solve",
]

class KernelOrder(Choice):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class KernelSpec:
    order: KernelOrder
    beta: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "order", KernelOrder.parse(self.order))
        check_unit("beta", self.beta)
        object.__setattr__(self, "n", check_count("n", self.n))


def build_kernel(spec: KernelSpec) -> np.ndarray:
    """Evaluate the stable spline kernel matrix for ``spec``, read-only.

    Symmetry is exact by construction: entries (i, j) and (j, i) are
    produced from identical integer index arrays.  Each power beta^k is
    computed once and gathered through those arrays, which gives the same
    matrix, bit for bit, as ``np.float_power`` over the index matrices.
    """
    idx = np.arange(1, spec.n + 1)
    m = np.maximum.outer(idx, idx)
    if spec.order is KernelOrder.FIRST:
        K = np.float_power(spec.beta, np.arange(spec.n + 1))[m]
    else:
        powers = np.float_power(spec.beta, np.arange(3 * spec.n + 1))
        s = np.add.outer(idx, idx)
        K = powers[s + m] / 2.0 - powers[3 * m] / 6.0
    K.flags.writeable = False
    return K


def build_kernel_derivative(spec: KernelSpec) -> np.ndarray:
    """dK/dbeta of ``build_kernel(spec)``, entry by entry in closed form.

    With m = max(i, j) and e = i + j + m: m beta^(m-1) for the first order,
    (e beta^(e-1) - m beta^(3m-1)) / 2 for the second.
    """
    idx = np.arange(1, spec.n + 1)
    m = np.maximum.outer(idx, idx)
    if spec.order is KernelOrder.FIRST:
        return m * np.float_power(spec.beta, np.arange(spec.n))[m - 1]
    powers = np.float_power(spec.beta, np.arange(3 * spec.n))
    e = np.add.outer(idx, idx) + m
    return (e * powers[e - 1] - m * powers[3 * m - 1]) / 2.0


def kernel_factor(spec: KernelSpec) -> np.ndarray:
    """L, upper-triangular, with L L^T = K, the kernel of ``spec``, exactly.

    First order: L = T diag(sqrt(v)), T the upper-triangular ones, with the
    step variances v_l = beta^l (1 - beta), v_n = beta^n of a reverse-time
    random walk (Carli, Chen & Ljung, IEEE TAC 2017).  Second order: K is the
    covariance of integrated Brownian motion at s_k = beta^k, Markov in s, so
    L_kj = sqrt(s_j d_j) (s_j + (s_k - s_j) r_j) for k <= j, with d and r from
    a recursion in q, the slope's variance given s_{k+1..n} over s_{k+1}
    (Andersen & Chen, SIAM J. Matrix Anal. Appl. 2020); nothing in it cancels
    or underflows.  A column whose diagonal is not a normal float is zero.  A
    zero kernel (beta = 0) raises NumericError.
    """
    n, beta = spec.n, spec.beta
    s = np.float_power(beta, np.arange(1, n + 1))
    if spec.order is KernelOrder.FIRST:
        s[:-1] *= 1.0 - beta
        L = np.triu(np.broadcast_to(np.sqrt(s), (n, n)))
    else:
        a, q, qs = 1.0 - beta, 0.25, [0.25] * n
        for k in range(n - 2, -1, -1):
            qs[k] = q
            q = a * (4.0 * beta * q + a) / (4.0 * (3.0 * beta * q + a))
        q = np.array(qs)
        d = a * a * beta * q + a**3 / 3.0
        r = (a * beta * q + a * a / 2.0) / d
        d[-1], r[-1] = 1.0 / 3.0, 1.5
        L = np.triu(np.sqrt(s * d) * (s + np.subtract.outer(s, s) * r))
        L[:, ~(np.diagonal(L) >= np.finfo(float).tiny)] = 0.0
    if not L[0, 0] > 0:
        raise NumericError("kernel is zero; cannot factor", context="kernels.kernel_factor")
    return L


def kernel_solve(spec: KernelSpec, L: np.ndarray, g: np.ndarray) -> np.ndarray:
    """w = L^{-1} g for L = ``kernel_factor(spec)``, 0 where L has a zero column: for the
    first order, w_l = (g_l - g_{l+1}) / sqrt(v_l), g_{n+1} = 0; else a solve on the rest."""
    d = np.diagonal(L)
    if spec.order is KernelOrder.SECOND:
        k, w = d > 0, np.zeros_like(g)
        w[k] = np.linalg.solve(L[np.ix_(k, k)], g[k])
        return w
    diff = g - np.append(g[1:], 0.0)
    return np.divide(diff, d, out=np.zeros_like(diff), where=d > 0)


def kernel_quadratic_form(spec: KernelSpec, g) -> float:
    """g^T K^{-1} g for the kernel of ``spec``: w^T w for w of
    :func:`kernel_solve`, O(n) for the first order.  Nonnegative; a value that
    overflows raises NumericError."""
    g = check_array("g", g, (spec.n,))
    with np.errstate(over="ignore"):  # reported below
        w = kernel_solve(spec, kernel_factor(spec), g)
        q = float(w @ w)
    if not q < np.inf:
        raise NumericError("g'K^{-1}g overflows", context="kernels.kernel_quadratic_form")
    return q
