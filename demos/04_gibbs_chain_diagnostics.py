"""Inside the Gibbs chain: traces, burn-in, and quantile stability.

Runs the sampler on an outlier-corrupted dataset and inspects what it
stored: the lambda trace, the per-sample noise variances tau (thinned),
and the split-half quantile diagnostic that validates the choice of
chain length and burn-in.
"""

import numpy as np

from stablespline import (
    Dataset,
    GibbsConfig,
    build_regressor,
    generate_input,
    generate_system,
    impulse_response,
    quantile_diagnostics,
    run_gibbs,
    run_ssml,
    sample_noise_mixture,
)
from stablespline.distributions import RngHandle

N, n = 200, 50
handle = RngHandle(99)

tf = generate_system(handle.child(0), n=n)
g_true = impulse_response(tf, n)
u = generate_input("wn", N, handle.child(1))
U = build_regressor(u, N, n)
y0 = U @ g_true
sigma2 = np.var(y0) / 100
v, outliers = sample_noise_mixture(N, sigma2, 0.7, 100.0, handle.child(2))
ds = Dataset(u, y0 + v)
print(f"dataset: N={N}, {outliers.sum()} outlier samples (100x variance)")

ssml = run_ssml(ds, n)
cfg = GibbsConfig(M=1500, M0=500)
g_hat, chain = run_gibbs(ds, cfg, ssml, handle.child(3))

lam = chain.lambda_samples
print("\nlambda trace (prior scale, sampled each sweep):")
print(f"  start {lam[0]:.4g} -> post-burn-in quartiles "
      f"[{np.quantile(lam[cfg.M0:], 0.25):.4g}, "
      f"{np.quantile(lam[cfg.M0:], 0.50):.4g}, "
      f"{np.quantile(lam[cfg.M0:], 0.75):.4g}]  "
      f"(SS-ML point estimate {ssml.hyper.lam:.4g})")

tau = chain.tau_samples
mean_tau = tau.mean(axis=0)
print("\nper-sample noise variances tau (thinned chain mean):")
print(f"  nominal sigma2 estimate: {ssml.hyper.sigma2:.4g}")
print(f"  mean tau over clean samples:   {mean_tau[~outliers].mean():.4g}")
print(f"  mean tau over outlier samples: {mean_tau[outliers].mean():.4g}")
print("  -> outlier samples are assigned larger variances (down-weighted)")

diag = quantile_diagnostics(chain)
print("\nsplit-half quantile diagnostic (0.25 / 0.50 / 0.75 per coordinate):")
print(f"  max normalized discrepancy: {diag.discrepancy.max():.3f} "
      f"(flag threshold {diag.threshold})")
print(f"  flagged coordinates: {diag.flagged_count} of {n}")
if diag.flagged_count == 0:
    print("  chain length M=1500 with M0=500 burn-in is adequate here")
