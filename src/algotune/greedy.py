"""Parameterized greedy heuristics for knapsack and max-weight independent set.

Both families have piecewise-constant value as a function of the exponent
parameter: the output can only change where two items (or two vertices at
some pair of degrees) swap rank in the greedy score.  Each run also yields
the interval of rho on which its comparisons keep their outcomes, and the
breakpoint functions cover [0, rho_max] with those certified intervals
(``piecewise.sweep_constant``), at a cost set by the number of intervals.
A rho (for a decomposition, rho_max) at which some size ** rho, or
(1 + degree) ** rho, is not a positive finite float is rejected with
ValueError before any run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .piecewise import PiecewiseFunction1D, check_power, sweep_constant


@dataclass(frozen=True)
class KnapsackInstance:
    values: tuple[float, ...]
    sizes: tuple[float, ...]
    capacity: float

    def __post_init__(self):
        if len(self.values) != len(self.sizes) or not self.values:
            raise ValueError("need equally many positive values and sizes")
        if any(v <= 0 for v in self.values) or any(s <= 0 for s in self.sizes):
            raise ValueError("values and sizes must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")

    @property
    def n(self):
        return len(self.values)

    @classmethod
    def from_csv(cls, text: str, capacity: float) -> "KnapsackInstance":
        vals, sizes = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            v, s = line.split(",")
            vals.append(float(v))
            sizes.append(float(s))
        return cls(tuple(vals), tuple(sizes), float(capacity))


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
    """Better of greedy-by-value and greedy-by-value/size^rho packings.

    Ordering ties break by item index; at equal totals the value-order
    packing is returned.  rho = 1 gives the classic 2-approximation.
    """
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


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    adjacency: tuple[frozenset[int], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.n != len(self.adjacency) or self.n != len(self.weights):
            raise ValueError("adjacency and weights must cover all n vertices")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v == u:
                    raise ValueError("self-loops are not allowed")
                if u not in self.adjacency[v]:
                    raise ValueError("adjacency must be symmetric")

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], weights: Iterable[float]
    ) -> "WeightedGraph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, tuple(frozenset(a) for a in adj), tuple(weights))

    @classmethod
    def from_text(cls, text: str) -> "WeightedGraph":
        """Edge list 'u v' plus a weight section of 'w v weight' lines."""
        edges = []
        weights: dict[int, float] = {}
        for line in text.splitlines():
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "w":
                weights[int(parts[1])] = float(parts[2])
            else:
                edges.append((int(parts[0]), int(parts[1])))
        n = max(
            max((max(e) for e in edges), default=-1),
            max(weights, default=-1),
        ) + 1
        wvec = tuple(weights.get(v, 1.0) for v in range(n))
        return cls.from_edges(n, edges, wvec)


def _mwis_run(g: WeightedGraph, rho: float):
    """Greedy loop: ``(chosen, total, rounds)``, each round's choice and live degrees."""
    alive = set(range(g.n))
    chosen: set[int] = set()
    total = 0.0
    rounds = []
    while alive:
        degree = {v: len(g.adjacency[v] & alive) for v in sorted(alive)}
        # max() keeps the first maximum, so score ties go to the lowest index
        best_v = max(degree, key=lambda v: g.weights[v] / (1 + degree[v]) ** rho)
        rounds.append((best_v, degree))
        chosen.add(best_v)
        total += g.weights[best_v]
        alive.discard(best_v)
        alive -= g.adjacency[best_v]
    return chosen, total, rounds


def mwis_greedy(g: WeightedGraph, rho: float) -> tuple[set[int], float]:
    """Iteratively take the vertex maximizing w(v)/(1+deg(v))^rho.

    Degrees are recomputed on the shrinking graph each round; score ties
    break to the lowest vertex index.  The result is always independent.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    check_power((1 + max(map(len, g.adjacency), default=0),), rho, "1 + degree")
    return _mwis_run(g, rho)[:2]


def mwis_breakpoints(g: WeightedGraph, rho_max: float) -> PiecewiseFunction1D:
    """Piecewise-constant MWIS-greedy value over rho in [0, rho_max].

    Vertices u < v at degrees du, dv swap score rank at
    ln(w_u/w_v) / ln((1+du)/(1+dv)).  A run certifies where each round's
    chosen vertex beats every other live vertex at their current degrees.
    """
    if rho_max <= 0:
        raise ValueError("rho_max must be positive")
    check_power((1 + max(map(len, g.adjacency), default=0),), rho_max, "1 + degree")
    w = g.weights

    def run(rho):
        _, total, rounds = _mwis_run(g, rho)
        l, r = -math.inf, math.inf
        for v, degree in rounds:
            for u, du in degree.items():
                if du != degree[v]:
                    p, q = sorted((u, v))
                    x = math.log(w[p] / w[q]) / math.log((1 + degree[p]) / (1 + degree[q]))
                    # v stays ahead of u below the swap point if its degree is higher
                    l, r = (l, min(r, x)) if du < degree[v] else (max(l, x), r)
        return total, l, r

    return sweep_constant(run, 0.0, rho_max)
