"""Stable spline kernel construction and factorization utilities.

Two kernel families are provided, both parameterized by a decay rate
``beta`` in [0, 1) and indexed 1-based in the defining formulas (mapped to
0-based storage internally):

* first order (TC):   K[i, j] = beta^max(i, j)
* second order:       K[i, j] = beta^(i+j) * beta^max(i, j) / 2
                                - beta^(3 max(i, j)) / 6

Each order has one factor K = L L^T (:func:`kernel_factor`): the first in
closed form, exact; the second, near-singular for small beta and large n,
by one Cholesky with a trace-scaled jitter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import check_array, check_count, check_unit

__all__ = [
    "KernelOrder",
    "KernelSpec",
    "build_kernel",
    "build_kernel_derivative",
    "kernel_factor",
    "kernel_quadratic_form",
    "kernel_solve",
]

# The second-order factor's jitter, relative to trace(K)/n.
JITTER_BASE = 1e-12


class KernelOrder(str, enum.Enum):
    FIRST = "first"
    SECOND = "second"

    @classmethod
    def parse(cls, value) -> "KernelOrder":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConfigError(
                f"unknown kernel order {value!r} (expected 'first' or 'second')"
            ) from None


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
    """L with L L^T = K, the kernel of ``spec``: all that whitening needs.

    First order, exact and upper-triangular: L = T diag(sqrt(v)), T the
    upper-triangular ones and v_l = beta^l (1 - beta) for l < n, v_n = beta^n,
    the step variances of the reverse-time random walk x_i = sum_{l >= i} e_l
    whose covariance is K; K^{-1} is tridiagonal (Carli, Chen & Ljung, IEEE
    TAC 2017).  A v_l that underflows leaves a zero column.  Second order:
    the Cholesky factor of K + eps I, eps = JITTER_BASE trace(K)/n.  A zero
    kernel (beta = 0) or a failed Cholesky raises NumericError.
    """
    n = spec.n
    if spec.order is KernelOrder.FIRST:
        v = np.float_power(spec.beta, np.arange(1, n + 1))
        v[:-1] *= 1.0 - spec.beta
        if not v[0] > 0:
            raise NumericError("kernel is zero; cannot factor", context="kernels.kernel_factor")
        return np.triu(np.broadcast_to(np.sqrt(v), (n, n)))
    K = build_kernel(spec)
    eps = JITTER_BASE * (float(np.trace(K)) / n)
    try:
        return np.linalg.cholesky(K + eps * np.eye(n))
    except np.linalg.LinAlgError:
        raise NumericError(
            f"Cholesky of K + {eps:g} I failed", context="kernels.kernel_factor"
        ) from None


def kernel_solve(spec: KernelSpec, L: np.ndarray, g: np.ndarray) -> np.ndarray:
    """w = L^{-1} g for L = ``kernel_factor(spec)``: a solve for the second order; for
    the first, w_l = (g_l - g_{l+1}) / sqrt(v_l), g_{n+1} = 0, or 0 where v_l is 0."""
    if spec.order is KernelOrder.SECOND:
        return np.linalg.solve(L, g)
    d, diff = np.diagonal(L), g - np.append(g[1:], 0.0)
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
