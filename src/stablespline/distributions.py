"""Seeded random sampling for the Gibbs machinery.

All samplers draw from a counter-based Philox bitstream addressed by an
(seed, stream) pair, so independent Monte Carlo runs get provably
non-overlapping streams and identical handles reproduce identical draws
bit for bit.

The Gibbs sweep's samplers (``sample_gig_half``, ``sample_gamma`` and
``sample_mvn``) are internals: they take the chain's Generator and what
the sweep passes, and check nothing; the exported conditionals of
:mod:`stablespline.gibbs` check their inputs.  The generalized inverse
Gaussian sampler only covers the p = 1/2 case (the per-sample
noise-variance conditional), and draws it exactly for every b >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .model import check_count, check_positive, check_unit

__all__ = [
    "RngHandle",
    "as_generator",
    "sample_noise_mixture",
]


@dataclass(frozen=True)
class RngHandle:
    """Addressable, reproducible random stream.

    Identical (seed, stream, path) always reproduce identical draw
    sequences.  ``child(k)`` derives an independent sub-stream, used to
    give every purpose inside a benchmark run (system, input, noise,
    sampler) its own lane.
    """

    seed: int
    stream: int = 0
    path: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))
        object.__setattr__(self, "stream", check_count("stream", self.stream, 0))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream, *self.path))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "RngHandle":
        return RngHandle(self.seed, self.stream, (*self.path, int(index)))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngHandle (fresh stream) or a live numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngHandle):
        return rng.generator()
    raise ConfigError(f"expected RngHandle or numpy Generator, got {type(rng)!r}")


def sample_gamma(shape: float, rate: float, gen: np.random.Generator) -> float:
    """One Gamma draw with mean shape/rate and variance shape/rate^2."""
    return gen.gamma(shape, 1.0 / rate)


def sample_gig_half(a: float, b: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Draw from GIG(a, b, p=1/2), density proportional to
    tau^{-1/2} exp(-(a*tau + b/tau)/2) on tau > 0, once per entry of ``b``.

    If X is inverse Gaussian with mean 1/kappa, kappa = sqrt(b/a), and shape
    a, then 1/X has exactly this law.  The Michael-Schucany-Haas draw of X,
    written for 1/X in kappa: t = kappa + h + sqrt(h(h + 2 kappa)) with
    h = z^2/(2a) is the reciprocal of its smaller root, kept with probability
    t/(t + kappa), else the other root gives kappa^2/t.  At b = 0 this is
    z^2/a, the Gamma(1/2, rate a/2) limit, so no b needs a floor.
    """
    kappa = np.sqrt(b / a)
    h = gen.standard_normal(b.shape) ** 2 / (2.0 * a)
    t = kappa + h + np.sqrt(h * (h + 2.0 * kappa))
    u = gen.uniform(size=b.shape)
    return np.where(u * (t + kappa) <= t, t, kappa * kappa / t)


def sample_mvn(size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` i.i.d. standard normal draws: one draw of N(0, I_size)."""
    return gen.standard_normal(size)


def sample_noise_mixture(N: int, sigma2: float, c1: float, variance_ratio: float, rng):
    """Two-component Gaussian mixture noise: N(0, sigma2) with probability
    c1, else N(0, variance_ratio * sigma2), independently per sample.

    Returns the noise and the boolean mask of its high-variance draws.
    """
    check_count("N", N)
    c1 = check_unit("c1", c1, closed=True)
    sigma2 = check_positive("sample_noise_mixture", "sigma2", sigma2)
    variance_ratio = check_positive("sample_noise_mixture", "variance_ratio", variance_ratio)
    gen = as_generator(rng)
    z = gen.standard_normal(N)
    outlier = gen.uniform(size=N) >= c1
    with np.errstate(all="ignore"):  # reported below
        v = z * np.where(outlier, np.sqrt(variance_ratio * sigma2), np.sqrt(sigma2))
    if not np.isfinite(v).all():
        raise NumericError("a noise sample overflows", context="distributions.sample_noise_mixture")
    return v, outlier
