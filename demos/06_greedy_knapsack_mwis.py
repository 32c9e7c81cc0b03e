"""Parameterized greedy heuristics and their exact breakpoint structure.

Both knapsack (score v/s^rho) and max-weight independent set (score
w/(1+deg)^rho) are step functions of rho: the output changes only where two
candidates swap rank.  Each greedy run reports the interval of rho on which
its comparisons keep their outcomes, and sweeping those intervals across the
domain gives the exact piecewise-constant value function without any grid
search.
"""

import numpy as np

from algotune.greedy import (
    KnapsackInstance,
    WeightedGraph,
    knapsack_breakpoints,
    knapsack_greedy,
    mwis_breakpoints,
    mwis_greedy,
)

inst = KnapsackInstance(
    values=(10.0, 6.0, 5.0, 4.0),
    sizes=(10.0, 4.0, 5.0, 1.5),
    capacity=10.0,
)
for rho in (0.0, 1.0, 2.5):
    items, total = knapsack_greedy(inst, rho)
    print(f"knapsack rho={rho}: items={sorted(items)} value={total}")

fn = knapsack_breakpoints(inst, rho_max=4.0)
print("\nknapsack value pieces:")
for i, (_, v, _) in enumerate(fn.pieces):
    lo, hi = fn.piece_bounds(i)
    print(f"  [{lo:.4f}, {hi:.4f})  value={v}")

# A graph where degree discounting changes the answer.
g = WeightedGraph.from_edges(
    6,
    [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)],
    [3.0, 1.0, 1.0, 1.2, 2.2, 1.1],
)
for rho in (0.0, 1.0, 3.0):
    verts, total = mwis_greedy(g, rho)
    print(f"mwis rho={rho}: set={sorted(verts)} weight={total:.2f}")

fn = mwis_breakpoints(g, rho_max=4.0)
print("\nmwis value pieces:")
for i, (_, v, _) in enumerate(fn.pieces):
    lo, hi = fn.piece_bounds(i)
    print(f"  [{lo:.4f}, {hi:.4f})  weight={v:.2f}")

# Sanity: the piecewise function reproduces direct runs everywhere.
rng = np.random.default_rng(1)
worst = max(
    abs(fn.value(float(r)) - mwis_greedy(g, float(r))[1])
    for r in rng.uniform(0, 4, size=2000)
)
print("\nmax |piecewise - direct| over 2000 samples:", worst)
