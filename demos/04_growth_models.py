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

from tailkit import (
    ccdf_slope,
    gamma_sweep,
    measure_exponent,
    simulate_ba,
    simulate_copy,
    theoretical_alpha,
)
from tailkit.growth import sweep_csv

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
print("\nsweep (5 runs per gamma):")
rows = gamma_sweep([0.0, 0.2, 0.5], n_nodes=200_000, seeds_per_gamma=5, seed=101)
print(sweep_csv(rows))

# --- preferential attachment -----------------------------------------------------
ba = simulate_ba(200_000, m=2, seed=1)
print("preferential attachment, m = 2:")
print(f"  degree sum: {ba.counts.sum()} = 2 x {ba.steps} edges")
print(f"  log-log CCDF slope over degrees [10, 500]: "
      f"{ccdf_slope(ba, 10, 500):.3f}  (theory: -2)")
print(f"  density-exponent fit: {measure_exponent(ba).alpha:.3f}  (theory: 3)")
