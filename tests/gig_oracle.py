"""Test-only oracles for the GIG(a, b, 1/2) law: its density, and a frozen
copy of the sampler's draw.

``inverse_gaussian_gig_half`` makes the one draw 1 / IG(1/kappa, a),
kappa = sqrt(b/a), for every entry of ``b`` >= 0, written in kappa so that
b = 0 needs no special case.  ``sample_gig_half`` must reproduce these
draws, and the generator position after them, bit for bit, so that a
rewrite of it cannot silently change the chains the Gibbs sampler runs.
"""

import numpy as np

from stablespline.distributions import as_generator
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


def inverse_gaussian_gig_half(a, b, rng):
    """Michael-Schucany-Haas: one normal z and one uniform u per entry; the
    reciprocal t of the smaller root of the IG equation in z, or the other
    root's reciprocal kappa^2/t with probability kappa/(t + kappa)."""
    gen = as_generator(rng)
    b_arr = np.asarray(b, dtype=float)
    kappa = np.sqrt(b_arr / a)
    h = gen.standard_normal(b_arr.shape) ** 2 / (2.0 * a)
    t = kappa + h + np.sqrt(h * (h + 2.0 * kappa))
    u = gen.uniform(size=b_arr.shape)
    return np.where(u * (t + kappa) <= t, t, kappa * kappa / t)
