"""Parameterized greedy heuristics for knapsack and max-weight independent set.

Both families have piecewise-constant value as a function of the exponent
parameter: the output can only change where two items (or two vertices at
some pair of degrees) swap rank in the greedy score.  Each run also yields
the interval of rho on which its output is certain to stay, and the
breakpoint functions cover [0, rho_max] with those certified intervals
(``piecewise.sweep_constant``), at a cost set by the number of intervals.

The knapsack packing tests each fit on exact sums (sizes and capacity as
integers over one common power of two) and totals the packed values with
``math.fsum``, so fit decisions and value depend on the packed set alone,
not on the order it was packed in.  A knapsack run is therefore certified
on the swaps that can change a fit decision, about one run per piece.  An
MWIS run is certified on every comparison of its rounds.

A rho (for a decomposition, rho_max) at which some size ** rho, or
(1 + degree) ** rho, is not a positive finite float is rejected with
ValueError before any run, as are non-finite knapsack values, sizes or
capacity, and values, sizes or weights two of which have a ratio outside
the float range (the swap points take the logarithm of that ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .piecewise import PiecewiseFunction1D, check_power, sweep_constant


def _check_ratios(xs, name: str) -> None:
    """Reject positive ``xs`` when some ratio of two of them is not a positive
    finite float; the largest and the smallest decide."""
    lo, hi = min(xs), max(xs)
    if not (hi / lo < math.inf and lo / hi > 0.0):
        raise ValueError(f"{name} {lo!r} and {hi!r} have a ratio outside the float range")


@dataclass(frozen=True)
class KnapsackInstance:
    values: tuple[float, ...]
    sizes: tuple[float, ...]
    capacity: float

    def __post_init__(self):
        if len(self.values) != len(self.sizes) or not self.values:
            raise ValueError("need equally many positive values and sizes")
        if not all(map(math.isfinite, (*self.values, *self.sizes, self.capacity))):
            raise ValueError("values, sizes and capacity must be finite")
        if any(v <= 0 for v in self.values) or any(s <= 0 for s in self.sizes):
            raise ValueError("values and sizes must be positive")
        _check_ratios(self.values, "values")
        _check_ratios(self.sizes, "sizes")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")

    @property
    def n(self):
        return len(self.values)

    @cached_property
    def exact_sizes(self) -> tuple[tuple[int, ...], int]:
        """Sizes and capacity as integers over one common power of two."""
        ratios = [x.as_integer_ratio() for x in (*self.sizes, self.capacity)]
        den = max(d for _, d in ratios)
        *sizes, capacity = (num * (den // d) for num, d in ratios)
        return tuple(sizes), capacity

    @classmethod
    def from_csv(cls, text: str, capacity: float) -> "KnapsackInstance":
        """Rows 'value,size'; blank lines and lines starting with '#' are skipped.

        A row of another length, or with a field that is not a number, is a
        ``ValueError`` naming its line.
        """
        vals, sizes = [], []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected 'value,size', got {line!r}")
            try:
                v, s = map(float, fields)
            except ValueError:
                raise ValueError(f"line {lineno}: {line!r} is not two numbers") from None
            vals.append(v)
            sizes.append(s)
        return cls(tuple(vals), tuple(sizes), float(capacity))


def _density_packing(inst: KnapsackInstance, rho: float):
    """Pack greedily by v/s^rho: ``(order, chosen, total)``.  sorted() is stable,
    so ties keep index order, and rho = 0 orders by value.  Fits are tested on
    exact sums of sizes and the total is the ``math.fsum`` of the packed
    values, so both depend on the packed set alone, not on the packing order."""
    v, s = inst.values, inst.sizes
    order = sorted(range(inst.n), key=lambda i: -v[i] / s[i] ** rho)
    sizes, room = inst.exact_sizes
    chosen: set[int] = set()
    for i in order:
        if sizes[i] <= room:
            chosen.add(i)
            room -= sizes[i]
    return order, chosen, math.fsum(v[i] for i in chosen)


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

    Items i < j swap density rank at ln(v_i/v_j) / ln(s_i/s_j).  The value
    depends only on the packed set P, and P is the greedy output at every
    rho where each unpacked item b that could fit at all still finds the
    items of P ahead of it too full: each item of P then fits in turn, since
    all of P fits.  Items of P moving ahead of b only fill it more, so a run
    certifies up to the first crossing, on each side, at which the items of P
    that have fallen behind b free enough exact space for b to fit.
    """
    if rho_max <= 0:
        raise ValueError("rho_max must be positive")
    check_power((min(inst.sizes), max(inst.sizes)), rho_max, "size")
    n = inst.n
    v, s = np.array(inst.values), np.array(inst.sizes)
    i, j = np.triu_indices(n, 1)
    # math.log, not np.log: numpy's SIMD log may round differently across machines;
    # every ratio is a positive finite float (KnapsackInstance checks the extremes)
    ls, lv = (np.array(list(map(math.log, (x[i] / x[j]).tolist()))) for x in (s, v))
    # a stays ahead of b while above[a, b] < rho < below[a, b]
    below, above = np.full((n, n), math.inf), np.full((n, n), -math.inf)
    swap = ls != 0  # the bigger item leads below the swap point
    big, small = np.where(ls > 0, i, j)[swap], np.where(ls > 0, j, i)[swap]
    below[big, small] = above[small, big] = lv[swap] / ls[swap]
    sizes, capacity = inst.exact_sizes
    # exact integer sums; int64 when no sum of sizes can overflow it
    size = np.array(sizes, dtype=np.int64 if sum(sizes) + capacity < 2**63 else object)
    could_fit = size <= capacity
    tv = _density_packing(inst, 0.0)[2]

    def first_fit(cross, sa, need):
        """Least entry of ``cross`` (one column per b) at which the sizes ``sa``
        of the entries up to it in its column add up to that column's ``need``."""
        k = np.argsort(cross, axis=0)
        freed = np.cumsum(sa[k], axis=0) >= need
        return np.take_along_axis(cross, k, axis=0)[freed].min(initial=math.inf)

    def run(rho):
        order, packed, td = _density_packing(inst, rho)
        rank = np.argsort(order)
        in_p = np.zeros(n, dtype=bool)
        in_p[list(packed)] = True
        a, b = np.flatnonzero(in_p), np.flatnonzero(~in_p & could_fit)
        ahead = rank[a, None] < rank[b]
        # space that items of P ahead of b must free before b fits
        need = (size[a, None] * ahead).sum(axis=0) + size[b] - capacity
        rows = np.ix_(a, b)
        r = first_fit(np.where(ahead, below[rows], math.inf), size[a], need)
        l = -first_fit(np.where(ahead, -above[rows], math.inf), size[a], need)
        return (td if td > tv else tv), l, r

    return sweep_constant(run, 0.0, rho_max)


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    adjacency: tuple[frozenset[int], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.n != len(self.adjacency) or self.n != len(self.weights):
            raise ValueError("adjacency and weights must cover all n vertices")
        if not all(map(math.isfinite, self.weights)):
            raise ValueError("weights must be finite")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if self.weights:
            _check_ratios(self.weights, "weights")
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
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside [0, {n})")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, tuple(frozenset(a) for a in adj), tuple(weights))

    @classmethod
    def from_text(cls, text: str) -> "WeightedGraph":
        """Edge list 'u v' plus a weight section of 'w v weight' lines.

        Vertex ids are nonnegative integers; a vertex has at most one 'w'
        line, and one without takes weight 1.  Weights must be finite and
        positive.  Blank lines and lines starting with '#' are skipped; any
        other line is a ``ValueError`` naming it.
        """

        def vertex(tok: str, lineno: int) -> int:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"line {lineno}: vertex id {tok!r} is not a nonnegative integer")
            return int(tok)

        edges = []
        weights: dict[int, float] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "w" and len(parts) == 3:
                v = vertex(parts[1], lineno)
                if v in weights:
                    raise ValueError(f"line {lineno}: second 'w' line for vertex {v}")
                try:
                    w = float(parts[2])
                except ValueError:
                    raise ValueError(f"line {lineno}: weight {parts[2]!r} is not a number") from None
                if not math.isfinite(w):
                    raise ValueError(f"line {lineno}: weights must be finite, got {parts[2]!r}")
                if w <= 0:
                    raise ValueError(f"line {lineno}: weights must be positive, got {parts[2]!r}")
                weights[v] = w
            elif parts[0] != "w" and len(parts) == 2:
                edges.append((vertex(parts[0], lineno), vertex(parts[1], lineno)))
            else:
                raise ValueError(f"line {lineno}: expected 'u v' or 'w v weight', got {line.strip()!r}")
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
