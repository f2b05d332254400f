"""Core domain objects: datasets, regressor matrices and the FIT metric.

The estimation target throughout the package is a strictly causal finite
impulse response ``g(1..n)`` stored as a plain 1-D ndarray of length ``n``.
The structural sample ``g(0) = 0`` (one-step input/output delay) is never
stored: the regressor matrix below already encodes the delay, so carrying
the zero coordinate would only add a singular prior direction.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError

__all__ = [
    "Dataset",
    "Hyperparameters",
    "build_regressor",
    "fit_score",
    "power_of_two_scaled",
]


class Choice(str, enum.Enum):
    """A string enum whose ``parse`` takes a member or its value in any case."""

    @classmethod
    def parse(cls, value):
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            what = "".join(" " + c.lower() if c.isupper() else c for c in cls.__name__)[1:]
            expected = " or ".join(repr(m.value) for m in cls)
            raise ConfigError(f"unknown {what} {value!r} (expected {expected})") from None


def check_array(name: str, x, shape: tuple = (None,), positive: bool = False) -> np.ndarray:
    """``x`` as a float array of ``shape`` (None: any length) whose entries are
    real numbers, finite, and > 0 if ``positive``; else a ConfigError naming
    it and its first bad entry.  The one array check of the package's entries."""
    a = np.asarray(x)
    for v in [] if a.dtype.kind in "biuf" else a.ravel().tolist():
        if not isinstance(v, numbers.Real):
            raise ConfigError(f"{name} must be real, got {v!r}")
    a = a.astype(float, copy=False)
    if a.ndim != len(shape) or any(s not in (None, t) for s, t in zip(shape, a.shape)):
        raise ConfigError(f"{name} must have shape {shape}, got {a.shape}")
    bad = np.argwhere(~((a > 0) & (a < np.inf)) if positive else ~np.isfinite(a))
    if len(bad):
        at = tuple(bad[0])
        where = name + "".join(f"[{i}]" for i in at)
        raise ConfigError(
            f"{name} must be {'positive and ' if positive else ''}finite, got {where} = {a[at]}"
        )
    return a


def check_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int of at least ``minimum``, else a ConfigError naming it."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = {0: "nonnegative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise ConfigError(f"{name} must be {bound}, got {value}")
    return int(value)


def check_positive(context: str, name: str, value, zero_ok: bool = False) -> float:
    """``value``, a real number, as a float that is finite and > 0 (>= 0 if
    ``zero_ok``), else a ConfigError naming ``context``, its checker, and ``name``."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{context} requires {name} to be a real number, got {value!r}")
    v = float(value)
    if not (v >= 0 if zero_ok else v > 0) or v == np.inf:
        raise ConfigError(
            f"{context} requires {name} {'>=' if zero_ok else '>'} 0 and finite, got {value}"
        )
    return v


def check_unit(name: str, value, closed: bool = False) -> float:
    """``value`` as a float in [0, 1) ([0, 1] if ``closed``), else a
    ConfigError naming it."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    if not (0 <= value <= 1 if closed else 0 <= value < 1):
        raise ConfigError(f"{name} must lie in [0, 1{']' if closed else ')'}, got {value}")
    return float(value)


@dataclass(frozen=True)
class Dataset:
    """Paired input/output record of N samples.

    Arrays are copied and frozen at construction; instances are safe to
    share across concurrent benchmark workers.
    """

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = check_array("u", self.u).copy()
        y = check_array("y", self.y, (check_count("len(u)", u.size),)).copy()
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
        check_positive("Hyperparameters", "lambda", self.lam, zero_ok=True)
        check_unit("beta", self.beta)
        check_positive("Hyperparameters", "sigma2", self.sigma2)


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
    N, n, uv = check_count("N", N), check_count("n", n), check_array("u", u)
    check_count("len(u)", uv.size, N)
    padded = np.concatenate((np.zeros(n), uv[: N - 1]))
    return sliding_window_view(padded, n)[:, ::-1].copy()


def fit_score(g_true, g_hat) -> float:
    """Percent fit 100 * (1 - ||g_true - g_hat|| / ||g_true||).

    Unclamped: estimates worse than the zero response yield negative
    scores, which the benchmark reports as-is.
    """
    gt = check_array("g_true", g_true)
    gh = check_array("g_hat", g_hat, gt.shape)
    if not gt.any():
        raise ConfigError("fit_score is undefined for a zero g_true")
    with np.errstate(all="ignore"):  # a norm out of range is reported below
        fit = 100.0 * (1.0 - np.linalg.norm(gt - gh) / np.linalg.norm(gt))
    if not np.isfinite(fit):
        raise NumericError("a norm of g_true or g_hat is out of range", context="model.fit_score")
    return float(fit)
