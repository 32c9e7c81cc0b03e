"""Agglomerative clustering with parameterized merge families and tree pruning.

Three merge families interpolate between the classic linkages: C1 combines
the min and max pairwise distances through a power exponent, C2 mixes them
linearly (rho = 1 is single linkage, rho = 0 complete linkage), and C3 is the
power mean of all pairwise distances (rho = 1 is average linkage).  Because
C2 comparisons are linear in rho, each C2 run certifies the exact interval of
rho keeping its merge sequence; C1 and C3 are evaluated pointwise only.

A run keeps Lance–Williams tables of the smallest and largest distance
between each pair of live clusters, and of each pair's merge value.  A merge
updates one row of each: min and max merge exactly, and only the merged
cluster's values are evaluated again.  So a run evaluates O(n^2) merge values
in all, not O(n^3), and C3 gathers cross distances for those pairs only; each
merge picks its pair with one argmin over the n x n value table.  A C2
certificate replays the merges on the same span tables, one vector step per
merge.

Pruning a cluster tree to k clusters minimizes the k-median (medoid) cost by
dynamic programming over the tree.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
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
        if not np.isfinite(d).all():
            raise ValueError("distances must be finite")
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
        if not np.isfinite(pts).all():
            raise ValueError("distances must be finite")
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
        if not vals.any():
            return 0.0
        logs = rho * np.log(vals)
        m = logs.max()
        return float(np.exp((m + np.log(np.exp(logs - m).mean())) / rho))
    return float((vals**rho).mean() ** (1.0 / rho))


def _check_family(family: str, rho: float) -> None:
    if family not in ("C1", "C2", "C3"):
        raise ValueError(f"unknown merge family {family!r}")
    if family == "C2" and not 0.0 <= rho <= 1.0:
        raise ValueError("C2 requires rho in [0, 1]")
    if family == "C1" and rho == 0.0:
        raise ValueError("C1 is undefined at rho = 0")
    if rho != rho:
        raise ValueError(f"{family} is undefined at rho = nan")


def _c1_value(rho: float, lo: float, hi: float) -> float:
    """C1 value of a pair whose cross distances span ``[lo, hi]`` (floats, rho != 0)."""
    if rho == INF:
        return hi
    if rho == -INF:
        return lo
    if (lo == 0.0 or hi == 0.0) and rho < 0:
        return 0.0
    if abs(rho) > _LOGSPACE_RHO:
        ref = hi if rho > 0 else lo
        if ref == 0.0:
            return 0.0
        body = (lo / ref) ** rho + (hi / ref) ** rho
        return ref * body ** (1.0 / rho)
    return (lo**rho + hi**rho) ** (1.0 / rho)


def merge_value(family: str, rho: float, a, b, inst: ClusterInstance) -> float:
    """Distance between clusters ``a`` and ``b`` under merge family C1/C2/C3."""
    _check_family(family, rho)
    vals = _pairwise(inst, a, b)
    if family == "C3":
        return _power_mean(vals, rho)
    lo, hi = float(vals.min()), float(vals.max())
    if family == "C2":
        return rho * lo + (1.0 - rho) * hi
    return _c1_value(rho, lo, hi)


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


class _SpanTables:
    """Smallest (``lo``) and largest (``hi``) distance between live clusters.

    Slot ``s`` holds the live cluster whose smallest point id is ``s``.  Merging
    slots ``s < t`` makes row and column ``s`` the elementwise min / max of the
    two old rows, which is exactly the span of the merged cluster against every
    other one; slot ``t`` dies.  Rows of dead slots are stale.
    """

    def __init__(self, d: np.ndarray):
        self.lo, self.hi = d.copy(), d.copy()
        self.live = np.ones(len(d), dtype=bool)

    def merge(self, s: int, t: int) -> None:
        lo, hi = self.lo, self.hi
        lo[s] = lo[:, s] = np.minimum(lo[s], lo[t])
        hi[s] = hi[:, s] = np.maximum(hi[s], hi[t])
        self.live[t] = False


def agglomerate(inst: ClusterInstance, family: str, rho: float) -> ClusterTree:
    """Merge the closest cluster pair (per the family) until one remains.

    Ties break by the lexicographically smallest (min-id of one side, min-id
    of the other) pair, so identical inputs give identical trees.

    ``vals[s, t]`` (``s < t`` live slots of ``_SpanTables``) holds the pair's
    merge value, and ``+inf`` elsewhere, so the row-major ``argmin`` is the
    smallest ``(value, s, t)``.  Each value is ``merge_value``'s, bit for bit:
    C2 applies its arithmetic to the span tables for a whole row at once, C1
    its scalar formula to each ``(lo, hi)``, and C3 calls it on the pair.  A
    merge evaluates only the merged cluster's row again.
    """
    _check_family(family, rho)
    n = inst.n
    spans = _SpanTables(inst.d)
    clusters = [(i,) for i in range(n)]

    def pair_values(ss, ts):
        """Merge values of the slot pairs ``(ss[k], ts[k])``, each ``ss[k] < ts[k]``."""
        if family == "C2":
            return rho * spans.lo[ss, ts] + (1.0 - rho) * spans.hi[ss, ts]
        if family == "C1":
            pair_lo, pair_hi = spans.lo[ss, ts].tolist(), spans.hi[ss, ts].tolist()
            return [_c1_value(rho, lo, hi) for lo, hi in zip(pair_lo, pair_hi)]
        return [merge_value(family, rho, clusters[s], clusters[t], inst)
                for s, t in zip(ss.tolist(), ts.tolist())]

    vals = np.full((n, n), INF)
    ss, ts = np.triu_indices(n, 1)
    vals[ss, ts] = pair_values(ss, ts)
    merges: list[Merge] = []
    for _ in range(n - 1):
        s, t = divmod(int(vals.argmin()), n)
        if vals[s, t] == INF:  # every live pair ties at +inf: the smallest ids win
            s, t = np.flatnonzero(spans.live)[:2].tolist()
        merges.append(Merge(clusters[s], clusters[t]))
        clusters[s] = tuple(sorted(clusters[s] + clusters[t]))
        spans.merge(s, t)
        vals[t] = vals[:, t] = INF
        others = np.flatnonzero(spans.live)
        others = others[others != s]
        ss, ts = np.minimum(others, s), np.maximum(others, s)
        vals[ss, ts] = pair_values(ss, ts)
    return ClusterTree(n, merges)


def _medoid_cost(inst: ClusterInstance, members: Sequence[int]) -> float:
    idx = np.asarray(members)
    return float(inst.d[idx[:, None], idx].sum(axis=0).min())


def prune_tree(tree: ClusterTree, k: int, inst: ClusterInstance):
    """k-cluster pruning of the tree minimizing total medoid (k-median) cost.

    Returns ``(clusters, cost)``.  The tables are filled children first, in
    one loop over the nodes; at each node, ties resolve to the first optimum
    found, the split with the fewest clusters on the left.
    """
    if not 1 <= k <= tree.n:
        raise ValueError("k out of range")

    children: dict[tuple[int, ...], tuple] = {}
    for m in tree.merges:
        children[tuple(sorted(m.left + m.right))] = (m.left, m.right)
    root = tuple(range(tree.n))

    order = [root]  # every parent before its children
    for node in order:
        order += children.get(node, ())

    # table[node][j] = (cost, list of clusters) for the best j-pruning below node,
    # filled children first
    table: dict[tuple[int, ...], dict[int, tuple[float, list]]] = {}
    for node in reversed(order):
        entry = {1: (_medoid_cost(inst, node), [node])}
        if node in children:
            left, right = children[node]
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
    merge sequence is unchanged.  Each run calls ``agglomerate`` once, then
    replays its merges on span tables (``_c2_certificate``), so no pair's
    distances are gathered.  Piece values are ``utility(tree)``.
    """

    def run(rho):
        tree = agglomerate(inst, "C2", rho)
        return (utility(tree), *_c2_certificate(inst, tree))

    return sweep_constant(run, 0.0, 1.0)


def _c2_certificate(inst: ClusterInstance, tree: ClusterTree) -> tuple[float, float]:
    """The interval ``[l, r]`` of rho on which C2 agglomeration builds ``tree``.

    Replays the merges on span tables.  At each, the merged pair's value minus
    another live pair's is ``(hi1 - hi2) + rho * slope``, which must stay <= 0:
    one vector step over all live pairs per merge.
    """
    n = inst.n
    spans = _SpanTables(inst.d)
    pairs = np.triu(np.ones((n, n), dtype=bool), 1)  # live pairs s < t
    l, r = -INF, INF
    for m in tree.merges:
        s, t = m.left[0], m.right[0]
        lo1, hi1 = spans.lo[s, t], spans.hi[s, t]
        lo2, hi2 = spans.lo[pairs], spans.hi[pairs]
        slope = (lo1 - hi1) - (lo2 - hi2)
        gap = hi2 - hi1
        up, down = slope > 0, slope < 0
        r = min(r, float((gap[up] / slope[up]).min(initial=INF)))
        l = max(l, float((gap[down] / slope[down]).max(initial=-INF)))
        spans.merge(s, t)
        pairs[t] = pairs[:, t] = False
    return l, r


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
