"""Stable spline kernel construction and factorization utilities.

Two kernel families are provided, both parameterized by a decay rate
``beta`` in [0, 1) and indexed 1-based in the defining formulas (mapped to
0-based storage internally):

* first order (TC):   K[i, j] = beta^max(i, j)
* second order:       K[i, j] = beta^(i+j) * beta^max(i, j) / 2
                                - beta^(3 max(i, j)) / 6

The second-order matrix is near-singular for small beta and large n, so
every factorization goes through a trace-scaled jitter ladder rather than
a bare Cholesky.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

__all__ = [
    "KernelOrder",
    "KernelSpec",
    "build_kernel",
    "build_kernel_derivative",
    "kernel_factor",
    "kernel_quadratic_form",
]

# Jitter ladder: start at JITTER_BASE * trace(K)/n, multiply by 10 until
# Cholesky succeeds or JITTER_MAX * trace(K)/n is exceeded.
JITTER_BASE = 1e-12
JITTER_MAX = 1e-6


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
        if not (0.0 <= self.beta < 1.0):
            raise ConfigError(f"beta must lie in [0, 1), got {self.beta}")
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")


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


def _kernel_array(K) -> np.ndarray:
    A = np.asarray(K, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError(f"kernel matrix must be square, got shape {A.shape}")
    return A


def kernel_factor(K) -> np.ndarray:
    """Lower-triangular L with L L^T = K + eps*I, eps from the jitter ladder.

    Raises NumericError once eps would exceed JITTER_MAX * trace(K)/n,
    which signals a degenerate kernel (e.g. beta = 0).
    """
    A = _kernel_array(K)
    n = A.shape[0]
    scale = float(np.trace(A)) / n
    if not (scale > 0 and np.isfinite(scale)):
        raise NumericError(
            f"kernel trace {scale * n:g} is not positive; cannot factor",
            context="kernels.kernel_factor",
        )
    eps = JITTER_BASE * scale
    eps_max = JITTER_MAX * scale
    eye = np.eye(n)
    while True:
        try:
            return np.linalg.cholesky(A + eps * eye)
        except np.linalg.LinAlgError:
            eps *= 10.0
            if eps > eps_max:
                raise NumericError(
                    f"Cholesky failed up to jitter {eps_max:g}",
                    context="kernels.kernel_factor",
                ) from None


def kernel_quadratic_form(K, g) -> float:
    """g^T K^{-1} g via the jittered Cholesky factor and a solve against it.

    Never forms an explicit inverse; the result is nonnegative by
    construction (it is a squared norm of the whitened vector).
    """
    A = _kernel_array(K)
    gv = np.asarray(g, dtype=float)
    if gv.ndim != 1 or gv.size != A.shape[0]:
        raise ConfigError(
            f"g must be a vector of length {A.shape[0]}, got shape {gv.shape}"
        )
    L = kernel_factor(A)
    w = np.linalg.solve(L, gv)
    return float(w @ w)
