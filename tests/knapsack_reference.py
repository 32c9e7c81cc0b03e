"""Frozen all-pairs knapsack certificate: the test oracle for ``greedy.knapsack_breakpoints``.

This is the knapsack decomposition as it was before its packing tested fits on
exact sums: ``_density_packing`` adds sizes and values one float at a time in
density order, and each run certifies the interval where every packed item
stays ahead of every item after it.  Its breakpoints include the points where
only the rounding of that sequential sum changes.  It is a reference only;
nothing under ``src/`` imports it.
"""

import math

import numpy as np

from algotune.greedy import KnapsackInstance
from algotune.piecewise import PiecewiseFunction1D, check_power, sweep_constant


def _density_packing(inst: KnapsackInstance, rho: float):
    """Pack greedily by v/s^rho: ``(order, chosen, total)``.  sorted() is stable,
    so ties keep index order, and rho = 0 orders by value."""
    v, s = inst.values, inst.sizes
    order = sorted(range(inst.n), key=lambda i: -v[i] / s[i] ** rho)
    chosen: set[int] = set()
    used = 0.0
    total = 0.0
    for i in order:
        if used + s[i] <= inst.capacity:
            chosen.add(i)
            used += s[i]
            total += v[i]
    return order, chosen, total


def knapsack_greedy(inst: KnapsackInstance, rho: float) -> tuple[set[int], float]:
    """Better of greedy-by-value and greedy-by-value/size^rho packings."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    check_power((min(inst.sizes), max(inst.sizes)), rho, "size")
    _, sv, tv = _density_packing(inst, 0.0)
    _, sd, td = _density_packing(inst, rho)
    return (sd, td) if td > tv else (sv, tv)


def knapsack_breakpoints(inst: KnapsackInstance, rho_max: float) -> PiecewiseFunction1D:
    """Piecewise-constant greedy value over rho in [0, rho_max].

    Items i < j swap density rank at ln(v_i/v_j) / ln(s_i/s_j).  A run
    certifies where every packed item stays ahead of each item after it: the
    packing sequence, and so the float total, is fixed there.
    """
    if rho_max <= 0:
        raise ValueError("rho_max must be positive")
    check_power((min(inst.sizes), max(inst.sizes)), rho_max, "size")
    n, v, s = inst.n, inst.values, inst.sizes
    # a stays ahead of b while above[a, b] < rho < below[a, b]
    below, above = np.full((n, n), math.inf), np.full((n, n), -math.inf)
    for i in range(n):
        for j in range(i + 1, n):
            ls = math.log(s[i] / s[j])
            if ls:  # the bigger item leads below the swap point
                big, small = (i, j) if ls > 0 else (j, i)
                below[big, small] = above[small, big] = math.log(v[i] / v[j]) / ls
    tv = _density_packing(inst, 0.0)[2]

    def run(rho):
        order, packed, td = _density_packing(inst, rho)
        rank = np.argsort(order)
        idx = list(packed)
        later = rank[idx, None] < rank
        lo = above[idx][later].max(initial=-math.inf)
        return (td if td > tv else tv), lo, below[idx][later].min(initial=math.inf)

    return sweep_constant(run, 0.0, rho_max)
