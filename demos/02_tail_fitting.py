"""Tail fitting: threshold selection, exponent recovery, goodness of fit.

The fit scans every distinct value as a candidate threshold, estimates the
exponent above it by maximum likelihood, and keeps the candidate whose
Kolmogorov-Smirnov distance is smallest (with a small noise allowance that
prefers the largest statistically equivalent tail). A semiparametric
bootstrap, refitting each replicate the way the fit was made (rescanned
with its min_tail, or above its xmin for a fixed threshold), then asks:
would data generated by the fitted model look this bad? A small p-value
says the power law is implausible.

Run:  python demos/02_tail_fitting.py
"""

import numpy as np

from tailkit import (
    PowerLawModel,
    gof_pvalue,
    make_sample,
    pl_sample,
    power_law_proportion,
    select_xmin,
)
from tailkit.rng import make_rng

# --- pure power law: everything should be recovered -------------------------
sample = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 50_000, seed=7)
fit = select_xmin(sample)
print("pure power law (alpha = 2.5, xmin = 1):")
print(f"  alpha = {fit.alpha:.3f} +- {fit.stderr:.3f}, xmin = {fit.xmin:.3f}, "
      f"tail holds {fit.n_tail} of {len(sample)} points")
print(f"  tail share: {power_law_proportion(sample, fit):.2f}")

g = gof_pvalue(sample, fit, n_boot=100, seed=7)
print(f"  bootstrap p-value: {g.p_value:.2f}  (large: the power law is plausible)")

# --- body + tail: the scan finds the splice ---------------------------------
rng = make_rng(12)
body = rng.uniform(1.0, 5.0, 5000)           # non-power-law body
tail = 5.0 * (1.0 - rng.random(5000)) ** -1  # power-law tail above 5
spliced = make_sample(np.concatenate([body, tail]))
fit2 = select_xmin(spliced)
print("\nuniform body on [1, 5] + power-law tail above 5:")
print(f"  selected threshold {fit2.xmin:.2f} (splice at 5), "
      f"alpha = {fit2.alpha:.3f}")

# --- exponential data: the power-law hypothesis should fail ------------------
expo = make_sample(make_rng(5).exponential(3.0, 5000) + 1.0)
fit3 = select_xmin(expo, min_tail=500)  # keep the tail substantive
g3 = gof_pvalue(expo, fit3, n_boot=100, seed=5)  # rescanned with min_tail=500 too
print("\nexponential data dressed as a power law:")
print(f"  best-effort alpha = {fit3.alpha:.2f} above {fit3.xmin:.2f}, "
      f"KS = {fit3.ks:.3f}")
print(f"  bootstrap p-value: {g3.p_value:.2f}  (small: rejected)")
