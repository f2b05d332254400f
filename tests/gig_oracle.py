"""Test-only copy of the GIG(a, b, 1/2) sampler's draw order.

Every call broadcasts ``b``, masks the entries below the b-floor, draws
their Gamma limits first and then the inverse-Gaussian draws of the rest.
``sample_gig_half`` must reproduce these draws, and the generator position
after them, bit for bit, so that a rewrite of it cannot silently change
the chains the Gibbs sampler runs.
"""

import numpy as np

from stablespline.distributions import GIG_B_FLOOR_FACTOR, _inverse_gaussian, as_generator


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
