"""Estimation-error experiments: overfitting a rich class vs a simple one.

The synthetic two-cluster value distribution (5334 values in [1/4, 1/2],
5278 in [3/4, 1]) admits much higher revenue under per-agent reserves than
under one anonymous reserve, but fitting per-agent reserves to a sample
overfits badly until the sample covers most of the support.  The harness
computes every expectation exactly, so the curves are noise-free up to the
sampling of training sets.
"""

import numpy as np

from algotune.bounds import spa_estimation_bound
from algotune.learn import ExperimentConfig, erm, rows_to_csv, run_experiment, synthetic_spa_values
from algotune.mechanisms import anonymous_reserve_duals

w = synthetic_spa_values()
# ERM over the revenue duals of the whole support: each value bids against one bid of 0
reserve, anon = erm(anonymous_reserve_duals(w, np.zeros_like(w)))
print(f"optimal anonymous reserve {reserve:.3f} -> expected revenue {anon:.4f}")
# per-agent reserves at each agent's own value collect every value
print(f"optimal per-agent reserves -> expected revenue {w.mean():.4f}")

cfg = ExperimentConfig(
    family="spa_overfit",
    n_schedule=[2000, 4000, 8000, 12000],
    trials=100,
    seed=0,
)
rows = run_experiment(cfg)
print("\nper-agent (overfit) reserves, mean estimation error vs the anonymous bound:")
print(rows_to_csv(rows))

print("ERM over the anonymous reserve stays within its bound:")
erm_cfg = ExperimentConfig(
    family="spa_erm",
    n_schedule=[400, 1600],
    trials=10,
    seed=0,
    params={"n_low": 1200, "n_high": 1100},
)
for row in run_experiment(erm_cfg):
    print(
        f"  N={row.n:<5} mean error {row.mean_error:.5f}"
        f"  <= bound {spa_estimation_bound(row.n, 0.01):.5f}"
    )

print("\nvoting-mechanism analogue (bad NAM weights fit to the sample):")
nam_cfg = ExperimentConfig(
    family="nam_overfit", n_schedule=[100, 300, 600], trials=100, seed=0
)
print(rows_to_csv(run_experiment(nam_cfg)))
