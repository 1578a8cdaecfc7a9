"""Attention-growth simulators and the exponent they predict.

The copy model mixes exploration (a uniformly random creator receives the
next attention unit, probability gamma) with exploitation (the unit goes to
the owner of a uniformly drawn past unit, i.e. proportionally to current
attention). Its count distribution develops a power-law tail whose density
exponent is 1 + 1/(1 - gamma): heavier concentration the less the system
explores. The preferential-attachment graph is the classical reference
point: degree CCDF exponent 2 (density 3) regardless of the edge count m.

Run:  python demos/04_growth_models.py
"""

import numpy as np

from tailkit import (
    ccdf_slope,
    measure_exponent,
    simulate_ba,
    simulate_copy,
    theoretical_alpha,
)
from tailkit.report import csv_table
from tailkit.rng import make_rng

# --- one copy-model run, measured against its prediction ----------------------
n_nodes, gamma = 200_000, 0.5
run = simulate_copy(n_nodes, gamma=gamma, seed=2)
fit = measure_exponent(run)
print(f"copy model, gamma = {gamma}:")
print(f"  predicted density exponent: {theoretical_alpha(gamma):.3f}")
print(f"  measured:  {fit.alpha:.3f} above count {fit.xmin:.0f} "
      f"({fit.n_tail} tail nodes)")
print(f"  conservation: counts sum to {run.counts.sum()} "
      f"= {n_nodes} arrivals + {run.steps} events")

# --- sweep exploration levels ---------------------------------------------------
# Run r at the gi-th gamma draws its seed from (101, gi, r).
print("\nsweep (5 runs per gamma):")
rows = []
for gi, g in enumerate((0.0, 0.2, 0.5)):
    seeds = [int(make_rng(101, gi, r).integers(2**63)) for r in range(5)]
    alphas = [measure_exponent(simulate_copy(200_000, g, s)).alpha for s in seeds]
    rows.append((g, theoretical_alpha(g), float(np.mean(alphas)),
                 float(np.std(alphas, ddof=1)), len(alphas)))
print(csv_table(("gamma", "alpha_pred", "alpha_mean", "alpha_sd", "n_runs"), rows))

# --- preferential attachment -----------------------------------------------------
ba = simulate_ba(200_000, m=2, seed=1)
print("preferential attachment, m = 2:")
print(f"  degree sum: {ba.counts.sum()} = 2 x {ba.steps} edges")
print(f"  log-log CCDF slope over degrees [10, 500]: "
      f"{ccdf_slope(ba, 10, 500):.3f}  (theory: -2)")
print(f"  density-exponent fit: {measure_exponent(ba).alpha:.3f}  (theory: 3)")
