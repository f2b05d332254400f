"""Test-only oracles for the GIG(a, b, 1/2) law: its density, and a copy of
the sampler's draw order.

Every call of ``masked_sample_gig_half`` broadcasts ``b``, masks the entries below the b-floor, draws
their Gamma limits first and then the inverse-Gaussian draws of the rest.
``sample_gig_half`` must reproduce these draws, and the generator position
after them, bit for bit, so that a rewrite of it cannot silently change
the chains the Gibbs sampler runs.
"""

import numpy as np

from stablespline.distributions import GIG_B_FLOOR_FACTOR, _inverse_gaussian, as_generator
from stablespline.errors import ConfigError


def gig_pdf_half(tau, a: float, b: float):
    """Normalized GIG(a, b, 1/2) density.

    Uses the closed form K_{1/2}(z) = sqrt(pi/2) e^{-z} z^{-1/2} for the
    modified Bessel normalizer (a/b)^{p/2} / (2 K_p(sqrt(ab))).
    """
    if not (a > 0 and np.isfinite(a)):
        raise ConfigError(f"GIG parameter a must be positive, got {a}")
    if not (b > 0 and np.isfinite(b)):
        raise ConfigError(f"gig_pdf_half requires b > 0, got {b}")
    t = np.asarray(tau, dtype=float)
    if np.any(t <= 0):
        raise ConfigError("tau must be positive")
    z = np.sqrt(a * b)
    k_half = np.sqrt(np.pi / 2.0) * np.exp(-z) / np.sqrt(z)
    norm = (a / b) ** 0.25 / (2.0 * k_half)
    return norm * t ** (-0.5) * np.exp(-0.5 * (a * t + b / t))


def masked_sample_gig_half(a, b, rng, size=None):
    b_arr = np.asarray(b, dtype=float)
    gen = as_generator(rng)
    scalar = b_arr.ndim == 0 and size is None
    shape = b_arr.shape if b_arr.ndim else ((size,) if size is not None else (1,))
    b_full = np.broadcast_to(b_arr, shape)
    out = np.empty(shape, dtype=float)

    floor = GIG_B_FLOOR_FACTOR * (2.0 / a)
    low = b_full < floor
    n_low = int(low.sum())
    if n_low:
        out[low] = gen.gamma(0.5, scale=2.0 / a, size=n_low)
    if n_low < b_full.size:
        bb = b_full[~low]
        mu = np.sqrt(a / bb)
        out[~low] = 1.0 / _inverse_gaussian(mu, a, gen, bb.shape)
    return float(out[0]) if scalar else out
