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
merge picks its pair with one argmin over the n x n value table.  A C2 run
certifies its interval in the same loop, one vector step over the span tables
before each merge.

Pruning a cluster tree to k clusters minimizes the k-median (medoid) cost by
dynamic programming over the tree.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .piecewise import PiecewiseFunction1D, sweep_constant

INF = float("inf")

#: beyond this |rho|, or where the direct form's powers leave the normal float
#: range (a sum or mean of powers below ``_TINY`` keeps few significant bits),
#: the C1/C3 power means are computed scaled or in log space
_LOGSPACE_RHO = 20.0
_TINY = sys.float_info.min


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
    if not vals.any():
        return 0.0
    with np.errstate(all="ignore"):
        if abs(rho) <= _LOGSPACE_RHO:
            # the direct form, unless its powers leave the normal float range
            mean = (vals**rho).mean()
            value = float(mean ** (1.0 / rho)) if mean >= _TINY else 0.0
            if 0.0 < value < INF:
                return value
        logs = rho * np.log(vals)
        m = logs.max()
        return float(np.exp((m + np.log(np.exp(logs - m).mean())) / rho))


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
    if hi == 0.0 or (lo == 0.0 and rho < 0):
        return 0.0
    if abs(rho) <= _LOGSPACE_RHO:
        # the direct form, unless its powers leave the normal float range
        try:
            body = lo**rho + hi**rho
            value = body ** (1.0 / rho) if body >= _TINY else 0.0
        except OverflowError:
            value = 0.0
        if 0.0 < value < INF:
            return value
    ref = hi if rho > 0 else lo
    body = (lo / ref) ** rho + (hi / ref) ** rho
    try:
        return ref * body ** (1.0 / rho)
    except OverflowError:  # the value itself is past the float range
        return INF


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
    """Binary merge tree: n leaves, n-1 recorded merges in order.

    ``interval`` is the ``[l, r]`` of rho on which a C2 run builds this tree
    (``None`` for C1 and C3); equality and hashing ignore it.
    """

    def __init__(self, n: int, merges: Sequence[Merge], interval=None):
        if len(merges) != n - 1:
            raise ValueError("a full agglomeration has n - 1 merges")
        self.n = n
        self.merges = tuple(merges)
        self.interval = interval

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
    its scalar formula to each ``(lo, hi)``, and C3 its power mean to the
    pair's gathered distances.  A merge evaluates only the merged cluster's
    row again.

    A C2 run also certifies the interval of rho that keeps its merges.  At
    each merge, the merged pair's value minus another live pair's is
    ``(hi1 - hi2) + rho * slope``, which must stay <= 0: one vector step over
    the live pairs (C2 values are finite, so those are ``vals != inf``).  The
    interval is kept as ``tree.interval``.
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
        return [_power_mean(_pairwise(inst, clusters[s], clusters[t]), rho)
                for s, t in zip(ss.tolist(), ts.tolist())]

    vals = np.full((n, n), INF)
    ss, ts = np.triu_indices(n, 1)
    vals[ss, ts] = pair_values(ss, ts)
    merges: list[Merge] = []
    l, r = -INF, INF
    for _ in range(n - 1):
        s, t = divmod(int(vals.argmin()), n)
        if vals[s, t] == INF:  # every live pair ties at +inf: the smallest ids win
            s, t = np.flatnonzero(spans.live)[:2].tolist()
        if family == "C2":
            live = vals != INF
            lo1, hi1 = spans.lo[s, t], spans.hi[s, t]
            lo2, hi2 = spans.lo[live], spans.hi[live]
            slope = (lo1 - hi1) - (lo2 - hi2)
            gap = hi2 - hi1
            up, down = slope > 0, slope < 0
            r = min(r, float((gap[up] / slope[up]).min(initial=INF)))
            l = max(l, float((gap[down] / slope[down]).max(initial=-INF)))
        merges.append(Merge(clusters[s], clusters[t]))
        clusters[s] = tuple(sorted(clusters[s] + clusters[t]))
        spans.merge(s, t)
        vals[t] = vals[:, t] = INF
        others = np.flatnonzero(spans.live)
        others = others[others != s]
        ss, ts = np.minimum(others, s), np.maximum(others, s)
        vals[ss, ts] = pair_values(ss, ts)
    return ClusterTree(n, merges, (l, r) if family == "C2" else None)


def _medoid_cost(inst: ClusterInstance, members: Sequence[int]) -> float:
    idx = np.asarray(members)
    return float(inst.d[idx[:, None], idx].sum(axis=0).min())


def prune_tree(tree: ClusterTree, k: int, inst: ClusterInstance):
    """k-cluster pruning of the tree minimizing total medoid (k-median) cost.

    Returns ``(clusters, cost)``.  The tables are filled at the leaves, then
    at each merge in the tree's order, whose children are filled by then; at
    each node, ties resolve to the first optimum found, the split with the
    fewest clusters on the left.
    """
    if not 1 <= k <= tree.n:
        raise ValueError("k out of range")

    # table[node][j] = (cost, list of clusters) for the best j-pruning below node
    table: dict[tuple[int, ...], dict[int, tuple[float, list]]] = {
        (i,): {1: (_medoid_cost(inst, (i,)), [(i,)])} for i in range(tree.n)
    }
    for m in tree.merges:
        node = tuple(sorted(m.left + m.right))
        left, right = table[m.left], table[m.right]
        entry = {1: (_medoid_cost(inst, node), [node])}
        for j in range(2, min(k, len(node)) + 1):
            best = None
            for jl in range(1, j):
                jr = j - jl
                if jl not in left or jr not in right:
                    continue
                cand_cost = left[jl][0] + right[jr][0]
                if best is None or cand_cost < best[0]:
                    best = (cand_cost, left[jl][1] + right[jr][1])
            if best is not None:
                entry[j] = best
        table[node] = entry

    root = table[tuple(range(tree.n))]
    if k not in root:
        raise ValueError("tree cannot be pruned to k clusters")
    cost, clusters = root[k]
    return clusters, cost


def c2_breakpoints(
    inst: ClusterInstance, utility: Callable[[ClusterTree], float]
) -> PiecewiseFunction1D:
    """Exact decomposition of rho in [0, 1] into fixed-merge-sequence pieces.

    A C2 merge value is the line ``rho * min + (1 - rho) * max`` of a pair's
    distances.  A run certifies where each step's merged pair stays below
    every other pair of that step's clusters, which is exactly where the
    merge sequence is unchanged.  Each run is one ``agglomerate`` call, which
    certifies its interval as it merges (``tree.interval``).  Piece values
    are ``utility(tree)``.
    """

    def run(rho):
        tree = agglomerate(inst, "C2", rho)
        return (utility(tree), *tree.interval)

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
