"""Frozen pairwise agglomeration: the test oracle for ``cluster.agglomerate`` and ``c2_breakpoints``.

This is the clustering kernel as it was before it kept span tables: at every
merge ``agglomerate`` gathers the distances of every live cluster pair and
evaluates ``merge_value`` on them, and each C2 run's certificate gathers every
pair's span again.  It is kept verbatim, with two changes:

- a power mean in log space over all-zero distances is 0 here, where it was
  NaN (a NaN key made the pick depend on the order of the scan);
- where the direct C1 or C3 form raises, is not finite, or is 0 from nonzero
  distances (its powers left the float range), the value comes from the
  scaled / log-space form used for |rho| > 20, and a scaled C1 form past the
  float range is +inf; these inputs raised or merged on +inf before;
- the scaled / log-space form is also used where the sum of powers (C1) or
  their mean (C3) is below the smallest normal float, whose few significant
  bits made such values off by up to about 1e-5 relative.

The tests require the same trees and the same decompositions bit for bit.  It
is a reference only; nothing under ``src/`` imports it.
"""

import sys
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from algotune.cluster import ClusterInstance, ClusterTree, Merge
from algotune.piecewise import PiecewiseFunction1D, sweep_constant

INF = float("inf")
_LOGSPACE_RHO = 20.0
_TINY = sys.float_info.min


def _pairwise(inst: ClusterInstance, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
    return inst.d[np.ix_(list(a), list(b))].ravel()


def _power_mean(vals: np.ndarray, rho: float) -> float:
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
    if abs(rho) <= _LOGSPACE_RHO:
        with np.errstate(all="ignore"):
            mean = (vals**rho).mean()
            value = float(mean ** (1.0 / rho)) if mean >= _TINY else 0.0  # changed: subnormal mean
        if 0.0 < value < INF or not vals.any():  # changed: was returned as is
            return value
    if not vals.any():  # changed: was NaN
        return 0.0
    with np.errstate(divide="ignore"):
        logs = rho * np.log(vals)
    m = logs.max()
    return float(np.exp((m + np.log(np.exp(logs - m).mean())) / rho))


def merge_value(family: str, rho: float, a, b, inst: ClusterInstance) -> float:
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
        if abs(rho) <= _LOGSPACE_RHO:
            try:  # changed: a raise fell through
                body = lo**rho + hi**rho
                value = body ** (1.0 / rho) if body >= _TINY else 0.0  # changed: subnormal sum
            except (OverflowError, ZeroDivisionError):
                value = 0.0
            if 0.0 < value < INF or hi == 0.0:  # changed: was returned as is
                return value
        ref = hi if rho > 0 else lo
        if ref == 0.0:
            return 0.0
        body = (lo / ref) ** rho + (hi / ref) ** rho
        try:
            return ref * body ** (1.0 / rho)
        except OverflowError:  # changed: raised
            return INF
    if family == "C3":
        return _power_mean(vals, rho)
    raise ValueError(f"unknown merge family {family!r}")


def agglomerate(inst: ClusterInstance, family: str, rho: float) -> ClusterTree:
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


def c2_breakpoints(
    inst: ClusterInstance, utility: Callable[[ClusterTree], float]
) -> PiecewiseFunction1D:
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
