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
noise-variance conditional), with b clamped at a floor just above 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "RngHandle",
    "as_generator",
    "sample_noise_mixture",
    "GIG_B_FLOOR_FACTOR",
]

# b below GIG_B_FLOOR_FACTOR * (2/a) is raised to that floor before the
# GIG(a, b, 1/2) draw.  b is a squared residual, so the clamp acts on
# (near-)interpolated data points; at the floor the mean sqrt(b/a) + 1/a is
# within a factor 1 + 1.4e-6 of the b -> 0 limit, Gamma(shape 1/2, rate a/2).
GIG_B_FLOOR_FACTOR = 1e-12


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
        if int(self.seed) < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream", int(self.stream))

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


def _inverse_gaussian(mu, lam: float, gen: np.random.Generator, size):
    """Michael-Schucany-Haas transform with root selection.

    The smaller root is evaluated in the cancellation-free form
    mu / (1 + w + sqrt(w(w+2))) with w = mu*y/(2*lam), which stays
    accurate for large mu (tiny b in the GIG use below).
    """
    y = gen.standard_normal(size) ** 2
    w = mu * y / (2.0 * lam)
    x_small = mu / (1.0 + w + np.sqrt(w * (w + 2.0)))
    u = gen.uniform(size=size)
    return np.where(u <= mu / (mu + x_small), x_small, mu * mu / x_small)


def sample_gig_half(a: float, b: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Draw from GIG(a, b, p=1/2), density proportional to
    tau^{-1/2} exp(-(a*tau + b/tau)/2) on tau > 0, once per entry of ``b``.

    If X is inverse Gaussian with mean sqrt(a/b) and shape a, then 1/X has
    exactly this law.  b is first raised to the floor
    GIG_B_FLOOR_FACTOR * (2/a), so every entry takes the same one draw.
    """
    b = np.maximum(b, GIG_B_FLOOR_FACTOR * (2.0 / a))
    return 1.0 / _inverse_gaussian(np.sqrt(a / b), a, gen, b.shape)


def sample_mvn(size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` i.i.d. standard normal draws: one draw of N(0, I_size)."""
    return gen.standard_normal(size)


def sample_noise_mixture(N: int, sigma2: float, c1: float, variance_ratio: float, rng):
    """Two-component Gaussian mixture noise: N(0, sigma2) with probability
    c1, else N(0, variance_ratio * sigma2), independently per sample.

    Returns the noise and the boolean mask of its high-variance draws.
    """
    if N < 1:
        raise ConfigError(f"N must be positive, got {N}")
    if not (0.0 <= c1 <= 1.0):
        raise ConfigError(f"c1 must lie in [0, 1], got {c1}")
    if not (sigma2 > 0 and np.isfinite(sigma2)):
        raise ConfigError(f"sigma2 must be positive, got {sigma2}")
    if not (variance_ratio > 0 and np.isfinite(variance_ratio)):
        raise ConfigError(f"variance_ratio must be positive, got {variance_ratio}")
    gen = as_generator(rng)
    z = gen.standard_normal(N)
    outlier = gen.uniform(size=N) >= c1
    scale = np.where(outlier, np.sqrt(variance_ratio * sigma2), np.sqrt(sigma2))
    return z * scale, outlier
