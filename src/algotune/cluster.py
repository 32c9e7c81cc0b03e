"""Agglomerative clustering with parameterized merge families and tree pruning.

Three merge families interpolate between the classic linkages: C1 combines
the min and max pairwise distances through a power exponent, C2 mixes them
linearly (rho = 1 is single linkage, rho = 0 complete linkage), and C3 is the
power mean of all pairwise distances (rho = 1 is average linkage).  Because
C2 comparisons are linear in rho, each C2 run certifies the exact interval of
rho keeping its merge sequence; C1 and C3 are evaluated pointwise only.

Pruning a cluster tree to k clusters minimizes the k-median (medoid) cost by
dynamic programming over the tree.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .piecewise import PiecewiseFunction1D, sweep_constant

INF = float("inf")

#: beyond this |rho| the C1/C3 power means are computed in log space
_LOGSPACE_RHO = 20.0


class ClusterInstance:
    """Point ids 0..n-1 with a symmetric nonnegative distance table."""

    __slots__ = ("d",)

    def __init__(self, d):
        d = np.asarray(d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("need a square distance matrix")
        if (np.diag(d) != 0).any():
            raise ValueError("diagonal must be zero")
        if (d < 0).any():
            raise ValueError("distances must be nonnegative")
        if not np.allclose(d, d.T, rtol=0.0, atol=0.0):
            raise ValueError("distance matrix must be symmetric")
        self.d = d

    @property
    def n(self):
        return self.d.shape[0]

    @classmethod
    def from_points(cls, points) -> "ClusterInstance":
        pts = np.asarray(points, dtype=float)
        diff = pts[:, None, :] - pts[None, :, :]
        return cls(np.sqrt((diff**2).sum(axis=2)))

    @classmethod
    def from_csv(cls, text: str, euclidean: bool = False) -> "ClusterInstance":
        arr = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
        return cls.from_points(arr) if euclidean else cls(arr)


def _pairwise(inst: ClusterInstance, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
    return inst.d[np.ix_(list(a), list(b))].ravel()


def _power_mean(vals: np.ndarray, rho: float) -> float:
    """Generalized mean with exponent rho; limits at 0 and +-inf."""
    if rho == INF:
        return float(vals.max())
    if rho == -INF:
        return float(vals.min())
    if rho == 0.0:  # geometric mean
        if (vals == 0).any():
            return 0.0
        return float(np.exp(np.log(vals).mean()))
    if (vals == 0).any() and rho < 0:
        return 0.0
    if abs(rho) > _LOGSPACE_RHO:
        logs = rho * np.log(vals)
        m = logs.max()
        return float(np.exp((m + np.log(np.exp(logs - m).mean())) / rho))
    return float((vals**rho).mean() ** (1.0 / rho))


def merge_value(family: str, rho: float, a, b, inst: ClusterInstance) -> float:
    """Distance between clusters ``a`` and ``b`` under merge family C1/C2/C3."""
    vals = _pairwise(inst, a, b)
    if (vals < 0).any():
        raise ValueError("negative distances")
    lo, hi = float(vals.min()), float(vals.max())
    if family == "C2":
        if not 0.0 <= rho <= 1.0:
            raise ValueError("C2 requires rho in [0, 1]")
        return rho * lo + (1.0 - rho) * hi
    if family == "C1":
        if rho == INF:
            return hi
        if rho == -INF:
            return lo
        if rho == 0.0:
            raise ValueError("C1 is undefined at rho = 0")
        if (lo == 0.0 or hi == 0.0) and rho < 0:
            return 0.0
        if abs(rho) > _LOGSPACE_RHO:
            ref = hi if rho > 0 else lo
            if ref == 0.0:
                return 0.0
            body = (lo / ref) ** rho + (hi / ref) ** rho
            return ref * body ** (1.0 / rho)
        return (lo**rho + hi**rho) ** (1.0 / rho)
    if family == "C3":
        return _power_mean(vals, rho)
    raise ValueError(f"unknown merge family {family!r}")


@dataclass(frozen=True)
class Merge:
    left: tuple[int, ...]  # cluster with the smaller minimum id
    right: tuple[int, ...]


class ClusterTree:
    """Binary merge tree: n leaves, n-1 recorded merges in order."""

    def __init__(self, n: int, merges: Sequence[Merge]):
        if len(merges) != n - 1:
            raise ValueError("a full agglomeration has n - 1 merges")
        self.n = n
        self.merges = tuple(merges)

    def merge_sequence(self):
        return tuple((m.left, m.right) for m in self.merges)

    def __eq__(self, other):
        return (
            isinstance(other, ClusterTree)
            and self.n == other.n
            and self.merge_sequence() == other.merge_sequence()
        )

    def __hash__(self):
        return hash((self.n, self.merge_sequence()))


def agglomerate(inst: ClusterInstance, family: str, rho: float) -> ClusterTree:
    """Merge the closest cluster pair (per the family) until one remains.

    Ties break by the lexicographically smallest (min-id of one side, min-id
    of the other) pair, so identical inputs give identical trees.
    """
    clusters: list[tuple[int, ...]] = [(i,) for i in range(inst.n)]
    merges: list[Merge] = []
    while len(clusters) > 1:
        best = None
        best_key = None
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                a, b = clusters[x], clusters[y]
                if a[0] > b[0]:
                    a, b = b, a
                val = merge_value(family, rho, a, b, inst)
                key = (val, a[0], b[0])
                if best_key is None or key < best_key:
                    best_key = key
                    best = (x, y, a, b)
        x, y, a, b = best
        merged = tuple(sorted(a + b))
        clusters = [c for i, c in enumerate(clusters) if i not in (x, y)]
        clusters.append(merged)
        merges.append(Merge(a, b))
    return ClusterTree(inst.n, merges)


def _medoid_cost(inst: ClusterInstance, members: Sequence[int]) -> float:
    idx = list(members)
    sub = inst.d[np.ix_(idx, idx)]
    return float(sub.sum(axis=0).min())


def prune_tree(tree: ClusterTree, k: int, inst: ClusterInstance):
    """k-cluster pruning of the tree minimizing total medoid (k-median) cost.

    Returns ``(clusters, cost)``.  Ties resolve to the first optimum found in
    post-order.
    """
    if not 1 <= k <= tree.n:
        raise ValueError("k out of range")

    children: dict[tuple[int, ...], tuple] = {}
    for m in tree.merges:
        children[tuple(sorted(m.left + m.right))] = (m.left, m.right)
    root = tuple(range(tree.n))

    # table[node][j] = (cost, list of clusters) for the best j-pruning below node
    table: dict[tuple[int, ...], dict[int, tuple[float, list]]] = {}

    def solve(node):
        entry = {1: (_medoid_cost(inst, node), [node])}
        if node in children:
            left, right = children[node]
            solve(left)
            solve(right)
            max_j = min(k, len(node))
            for j in range(2, max_j + 1):
                best = None
                for jl in range(1, j):
                    jr = j - jl
                    if jl not in table[left] or jr not in table[right]:
                        continue
                    cand_cost = table[left][jl][0] + table[right][jr][0]
                    if best is None or cand_cost < best[0]:
                        best = (cand_cost, table[left][jl][1] + table[right][jr][1])
                if best is not None:
                    entry[j] = best
        table[node] = entry

    solve(root)
    if k not in table[root]:
        raise ValueError("tree cannot be pruned to k clusters")
    cost, clusters = table[root][k]
    return clusters, cost


def c2_breakpoints(
    inst: ClusterInstance, utility: Callable[[ClusterTree], float]
) -> PiecewiseFunction1D:
    """Exact decomposition of rho in [0, 1] into fixed-merge-sequence pieces.

    A C2 merge value is the line ``rho * min + (1 - rho) * max`` of a pair's
    distances.  A run certifies where each step's merged pair stays below
    every other pair of that step's clusters, which is exactly where the
    merge sequence is unchanged.  Piece values are ``utility(tree)``.
    """

    def span(a, b):
        vals = _pairwise(inst, a, b)
        return float(vals.min()), float(vals.max())

    def run(rho):
        tree = agglomerate(inst, "C2", rho)
        l, r = -INF, INF
        clusters = [(i,) for i in range(inst.n)]
        for m in tree.merges:
            lo1, hi1 = span(m.left, m.right)
            for lo2, hi2 in (span(a, b) for a, b in combinations(clusters, 2)):
                # merged minus other is (hi1 - hi2) + rho * slope, <= 0 at rho
                slope = (lo1 - hi1) - (lo2 - hi2)
                if slope > 0:
                    r = min(r, (hi2 - hi1) / slope)
                elif slope < 0:
                    l = max(l, (hi2 - hi1) / slope)
            clusters = [c for c in clusters if c not in (m.left, m.right)]
            clusters.append(tuple(sorted(m.left + m.right)))
        return utility(tree), l, r

    return sweep_constant(run, 0.0, 1.0)


def pair_counting_utility(
    inst: ClusterInstance, truth_labels: Sequence[int], k: int
) -> Callable[[ClusterTree], float]:
    """Utility over trees: Rand-style pair agreement of the best k-pruning.

    Agreement counts point pairs co-clustered in both the pruning and the
    ground truth plus pairs separated in both, scaled to [0, 1].
    """
    truth = list(truth_labels)
    n = inst.n
    total_pairs = n * (n - 1) // 2

    def utility(tree: ClusterTree) -> float:
        clusters, _ = prune_tree(tree, k, inst)
        label = {}
        for ci, members in enumerate(clusters):
            for p in members:
                label[p] = ci
        agree = 0
        for i in range(n):
            for j in range(i + 1, n):
                same_pred = label[i] == label[j]
                same_true = truth[i] == truth[j]
                if same_pred == same_true:
                    agree += 1
        return agree / total_pairs if total_pairs else 1.0

    return utility
