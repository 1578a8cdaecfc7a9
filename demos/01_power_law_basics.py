"""Distribution primitives: sampling, the empirical CCDF, and KS distance.

Run:  python demos/01_power_law_basics.py
"""

import numpy as np

from tailkit import (
    PowerLawModel,
    empirical_ccdf,
    ks_distance,
    pl_ccdf,
    pl_ppf,
    pl_sample,
)

# A power law with density exponent 2.5 above xmin = 1. The complementary
# CDF falls with exponent alpha - 1 = 1.5.
model = PowerLawModel(alpha=2.5, xmin=1.0)
print("density exponent:", model.alpha)
print("ccdf exponent:   ", model.alpha - 1.0)

# Closed-form checks: the CCDF is 1 at the threshold and follows
# (x/xmin)^-(alpha-1) beyond it.
for x in (1.0, 2.0, 10.0):
    print(f"P(X >= {x:4.1f}) = {pl_ccdf(model, x):.4f}")

# Inverse-CDF sampling is deterministic for a fixed seed.
sample = pl_sample(model, n=100_000, seed=7)
print(f"\nsample of {len(sample)} draws: min={sample.min:.3f} "
      f"median={np.median(sample.values):.3f} max={sample.max:.1f}")
print("closed-form median:", model.xmin * 2 ** (1 / (model.alpha - 1)))

# The empirical CCDF tracks the model CCDF uniformly (DKW-style bound).
xs, fr = empirical_ccdf(sample)
gap = np.abs(fr - pl_ccdf(model, xs)).max()
print(f"max |empirical - model| CCDF gap: {gap:.5f}")

# The KS distance is that same idea restricted to a fitted tail; here the
# model is the true generator, so the distance is small.
print(f"KS distance of the sample against its generator: "
      f"{ks_distance(sample, model):.5f}")

# Quantiles invert the CDF: u = 0.9 of the alpha = 2 model sits at x = 10.
print("\nppf(0.9) of alpha=2 model:",
      pl_ppf(PowerLawModel(alpha=2.0, xmin=1.0), 0.9))
