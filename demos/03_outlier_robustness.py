"""Why the Gibbs-sampling estimator exists: outliers wreck Gaussian fits.

One dataset, two conditions.  First the output is measured with
low-variance Gaussian noise and both estimators agree closely with the
truth.  Then 5 of the 100 samples are replaced by measurements with 100x
the noise variance: the Gaussian-noise estimate degrades badly while the
Laplace-noise Gibbs estimate barely moves.
"""

import numpy as np

from stablespline import (
    Dataset,
    GibbsConfig,
    build_regressor,
    fit_score,
    generate_input,
    generate_system,
    impulse_response,
    run_gibbs,
    run_ssml,
)
from stablespline.distributions import RngHandle

N, n = 100, 50
handle = RngHandle(314)

tf = generate_system(handle.child(0), n=n)
g_true = impulse_response(tf, n)
u = generate_input("wn", N, handle.child(1))
U = build_regressor(u, N, n)
y0 = U @ g_true
sigma2 = np.var(y0) / 100

gen = handle.child(2).generator()
noise = gen.normal(0.0, np.sqrt(sigma2), N)
outlier_idx = gen.choice(N, size=5, replace=False)
spikes = gen.normal(0.0, np.sqrt(100 * sigma2), 5)


def estimate_both(y, seed_child):
    ds = Dataset(u, y)
    ssml = run_ssml(ds, n)
    g_gs, _ = run_gibbs(ds, GibbsConfig(), ssml, seed_child)
    return fit_score(g_true, ssml.g_hat), fit_score(g_true, g_gs)


print("clean data (Gaussian noise at 1% of output power):")
fit_ml, fit_gs = estimate_both(y0 + noise, handle.child(3))
print(f"  FIT gaussian-noise estimator (SS-ML): {fit_ml:6.2f}%")
print(f"  FIT laplace-noise sampler    (SS-GS): {fit_gs:6.2f}%")

y_out = y0 + noise
y_out[outlier_idx] = y0[outlier_idx] + spikes
print(f"\nsame data with 5 outliers at samples {sorted(int(i) + 1 for i in outlier_idx)}:")
fit_ml_o, fit_gs_o = estimate_both(y_out, handle.child(4))
print(f"  FIT gaussian-noise estimator (SS-ML): {fit_ml_o:6.2f}%   "
      f"(lost {fit_ml - fit_ml_o:.1f} points)")
print(f"  FIT laplace-noise sampler    (SS-GS): {fit_gs_o:6.2f}%   "
      f"(lost {fit_gs - fit_gs_o:.1f} points)")

print("\nThe sampler treats each sample's noise variance as latent: samples")
print("with large residuals get large variances drawn for them and are")
print("effectively down-weighted, which is exactly what outliers need.")
