"""Core domain objects: datasets, regressor matrices and the FIT metric.

The estimation target throughout the package is a strictly causal finite
impulse response ``g(1..n)`` stored as a plain 1-D ndarray of length ``n``.
The structural sample ``g(0) = 0`` (one-step input/output delay) is never
stored: the regressor matrix below already encodes the delay, so carrying
the zero coordinate would only add a singular prior direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError

__all__ = [
    "Dataset",
    "Hyperparameters",
    "build_regressor",
    "fit_score",
    "power_of_two_scaled",
]


def _as_finite_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ConfigError(f"{name} must be a 1-D sequence, got shape {v.shape}")
    if v.size == 0:
        raise ConfigError(f"{name} must contain at least one sample")
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ConfigError(f"{name} contains a non-finite entry at index {bad}")
    return v


@dataclass(frozen=True)
class Dataset:
    """Paired input/output record of N samples.

    Arrays are copied and frozen at construction; instances are safe to
    share across concurrent benchmark workers.
    """

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = _as_finite_vector(self.u, "u").copy()
        y = _as_finite_vector(self.y, "y").copy()
        if u.shape != y.shape:
            raise ConfigError(
                f"u and y must have identical length, got {u.size} and {y.size}"
            )
        u.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def N(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class Hyperparameters:
    """Prior scale lambda, kernel decay beta and noise variance sigma2."""

    lam: float
    beta: float
    sigma2: float

    def __post_init__(self):
        if not (self.lam >= 0 and np.isfinite(self.lam)):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if not (0.0 <= self.beta < 1.0):
            raise ConfigError(f"beta must lie in [0, 1), got {self.beta}")
        if not (self.sigma2 > 0 and np.isfinite(self.sigma2)):
            raise ConfigError(f"sigma2 must be finite and > 0, got {self.sigma2}")


def power_of_two_scaled(U: np.ndarray, y: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(m, k, U 2^-m, y 2^-k) for a regressor U and output y, with
    2^(m-1) <= max|U| < 2^m and 2^(k-1) <= max|y| < 2^k; a zero array takes
    exponent 0.  U is scaled in place and returned; y is copied.

    Both estimators fit on the scaled data.  The exponent m comes from the
    samples U holds, u(1..N-1): u(N) enters no row, so it cannot move the
    scale.  Scaling by a power of two is exact, so a result in data units is
    the scaled one times a power of two: g by 2^(k-m), lambda by 4^(k-m) and
    noise variances by 4^k.
    """
    m, k = (int(np.frexp(max(v.max(), -v.min()))[1]) for v in (U, y))
    return m, k, np.ldexp(U, -m, out=U), np.ldexp(y, -k)


def build_regressor(u, N: int, n: int) -> np.ndarray:
    """Build the N x n regressor matrix of delayed input samples.

    Entry (t, k) equals u(t - k) for t = 1..N, k = 1..n, with u(s) = 0 for
    s <= 0 (zero initial conditions).  Multiplying by an impulse response
    vector g therefore reproduces the noiseless delay-1 convolution
    ``sum_k g(k) u(t-k)``.

    Parameters
    ----------
    u : array_like
        Input samples u(1..N) (at least N entries; extras are ignored).
    N : int
        Number of rows (output samples).
    n : int
        Number of columns (impulse response length).
    """
    if N < 1 or n < 1:
        raise ConfigError(f"N and n must be positive, got N={N}, n={n}")
    uv = _as_finite_vector(u, "u")
    if uv.size < N:
        raise ConfigError(f"need at least N={N} input samples, got {uv.size}")
    padded = np.concatenate((np.zeros(n), uv[: N - 1]))
    return sliding_window_view(padded, n)[:, ::-1].copy()


def fit_score(g_true, g_hat) -> float:
    """Percent fit 100 * (1 - ||g_true - g_hat|| / ||g_true||).

    Unclamped: estimates worse than the zero response yield negative
    scores, which the benchmark reports as-is.
    """
    gt = _as_finite_vector(g_true, "g_true")
    gh = _as_finite_vector(g_hat, "g_hat")
    if gt.shape != gh.shape:
        raise ConfigError(
            f"impulse responses must have equal length, got {gt.size} and {gh.size}"
        )
    denom = float(np.linalg.norm(gt))
    if denom == 0.0:
        raise ConfigError("fit_score undefined for a zero true response")
    return 100.0 * (1.0 - float(np.linalg.norm(gt - gh)) / denom)
