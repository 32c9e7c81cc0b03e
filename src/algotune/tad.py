"""Topologically-associating-domain prediction from contact matrices.

The per-interval weight c_ij (block sum minus the mean over all same-length
diagonal blocks) is independent of the exponent parameter, so the objective
for a TAD set is sum c_ij / (j-i)^rho and the optimizer is a weighted-interval
scheduling DP.  The parameter decomposition is numerical: optimal sets change
where exponential sums cross zero.  ``rho_decomposition`` finds those
crossings with one explicit-stack sweep, the ray search of
``piecewise.sweep_linear`` with line crossings replaced by sign-scan roots
isolated to a thousandth of the caller's tolerance, and approximates each
region's objective by chords within that tolerance.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import exp_sum_roots
from .piecewise import PiecewiseFunction1D


class ContactMatrix:
    """Symmetric nonnegative n x n matrix of contact frequencies."""

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("need a square matrix with n >= 2")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-9):
            raise ValueError("matrix must be symmetric")
        if (m < 0).any():
            raise ValueError("entries must be nonnegative")
        self.m = m

    @property
    def n(self):
        return self.m.shape[0]

    @classmethod
    def from_csv(cls, text: str) -> "ContactMatrix":
        return cls(np.loadtxt(io.StringIO(text), delimiter=","))


class TadSet:
    """Ordered, non-overlapping, non-touching intervals (1-based, i < j)."""

    __slots__ = ("intervals",)

    def __init__(self, intervals=()):
        ivs = tuple((int(i), int(j)) for i, j in intervals)
        flat = [x for iv in ivs for x in iv]
        if any(i >= j for i, j in ivs) or any(a >= b for a, b in zip(flat, flat[1:])):
            raise ValueError("intervals must satisfy i1 < j1 < i2 < j2 < ...")
        if flat and flat[0] < 1:
            raise ValueError("positions are 1-based")
        self.intervals = ivs

    def __len__(self):
        return len(self.intervals)

    def __eq__(self, other):
        return isinstance(other, TadSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"TadSet({list(self.intervals)})"

    def to_json(self) -> str:
        return json.dumps({"intervals": [list(iv) for iv in self.intervals]})

    @classmethod
    def from_json(cls, text: str) -> "TadSet":
        return cls(tuple(iv) for iv in json.loads(text)["intervals"])


@dataclass
class TadWeights:
    """Per-interval constants c[i][j] (1-based, i < j); entries for i >= j unused."""

    c: np.ndarray  # (n+1, n+1), 1-based indexing

    @property
    def n(self):
        return self.c.shape[0] - 1

    def weight(self, i: int, j: int, rho: float) -> float:
        return self.c[i][j] / (j - i) ** rho

    def check_rho(self, rho: float) -> None:
        """Reject rho where the longest span's (n - 1) ** rho leaves the float
        range; the power is monotone in the span and in rho, so that one decides."""
        try:
            ok = float(max(self.n - 1, 1)) ** rho < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(
                f"rho={rho!r} is out of range: {self.n - 1} ** rho (from the longest span) "
                "leaves the float range"
            )


def _block_mean(vals: np.ndarray) -> float:
    # mean of one length class; kept exact when all blocks are equal so that
    # degenerate matrices give c identically zero
    if vals.max() == vals.min():
        return float(vals[0])
    return math.fsum(vals.tolist()) / len(vals)


def precompute_cij(m: ContactMatrix) -> TadWeights:
    """Block sums minus same-length diagonal-block means, in O(n^2).

    T(i,j) = sum of M[p][q] over i <= p < q <= j by inclusion-exclusion;
    c_ij = T(i,j) - mean_t T(t, t+j-i).
    """
    n = m.n
    M = m.m
    T = np.zeros((n, n))  # 0-based here
    for span in range(1, n):
        for i in range(0, n - span):
            j = i + span
            left = T[i][j - 1]
            down = T[i + 1][j] if i + 1 <= j else 0.0
            inner = T[i + 1][j - 1] if i + 1 <= j - 1 else 0.0
            T[i][j] = left + down - inner + M[i][j]

    c = np.zeros((n + 1, n + 1))
    for d in range(1, n):
        diag = T.diagonal(offset=d).copy()
        mu = _block_mean(diag)
        for i0 in range(0, n - d):
            c[i0 + 1][i0 + 1 + d] = T[i0][i0 + d] - mu
    return TadWeights(c)


def tad_optimize(
    w: TadWeights, rho: float, min_length: int = 1
) -> tuple[TadSet, float]:
    """Maximum-weight TAD set for one rho >= 0 (empty set allowed, objective 0).

    Weighted-interval scheduling over positions 1..n; co-optimal ties resolve
    to fewer intervals, then the lexicographically smallest interval tuple.
    ``ValueError`` when (n - 1) ** rho leaves the float range.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    w.check_rho(rho)
    n = w.n
    # state[p]: (value, intervals tuple) best over positions 1..p
    state: list[tuple[float, tuple]] = [(0.0, ())] * (n + 1)

    def pick(cands):
        return min(cands, key=lambda c: (-c[0], len(c[1]), c[1]))

    for p in range(1, n + 1):
        cands = [state[p - 1]]
        for i in range(1, p - min_length + 1):
            val = w.weight(i, p, rho)
            pv, pints = state[i - 1]
            cands.append((pv + val, pints + ((i, p),)))
        state[p] = pick(cands)

    value, intervals = state[n]
    return TadSet(intervals), value


def tad_objective(w: TadWeights, t: TadSet, rho: float) -> float:
    return math.fsum(w.weight(i, j, rho) for i, j in t.intervals)


def tad_utility(candidate: TadSet, truth: TadSet) -> float:
    """Fraction of predicted TADs at exactly correct locations.

    Empty candidate scores 1 against an empty truth, else 0.
    """
    if not candidate.intervals:
        return 1.0 if not truth.intervals else 0.0
    shared = len(set(candidate.intervals) & set(truth.intervals))
    return shared / len(candidate.intervals)


class TadDecomposition(NamedTuple):
    fn: PiecewiseFunction1D  # chordal approximation of the optimal objective
    tad_sets: list[TadSet]  # piece tags index into this list
    cap_warning: bool  # a root isolation hit its count cap somewhere


def rho_decomposition(
    w: TadWeights, rho_hi: float, tol: float, min_length: int = 1
) -> TadDecomposition:
    """Parameter decomposition of the optimal TAD objective on [0, rho_hi].

    Explicit-stack sweep in the shape of ``piecewise.sweep_linear``; each
    interval carries the optimal sets at its ends.  Where they agree, one mid
    probe guards against a third set winning strictly inside.  Where they
    differ, the roots of their objective difference (an exponential sum) are
    isolated to ``max(tol * 1e-3, 1e-13)``, the x-precision that keeps values
    within ``tol`` beside a breakpoint; the optimum is probed at each interior
    root and the sub-intervals are searched in turn.  With no interior root
    the sets cross at an end, and the set higher at the midpoint holds the
    interval.  Each region's objective is approximated by chords, halved until
    they match it within ``tol`` at 1/4, 1/2 and 3/4; ``ValueError`` when
    ``tol`` is finer than 40 halvings (or a width of 1e-12) can resolve.
    ``cap_warning`` is set when ``exp_sum_roots`` hit its root-count cap.
    ``ValueError`` when (n - 1) ** rho_hi leaves the float range (every
    weight is then a finite double on the whole domain).
    """
    if not (math.isfinite(rho_hi) and rho_hi > 0):
        raise ValueError(f"rho_hi must be positive and finite, got {rho_hi!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    w.check_rho(rho_hi)

    sets: list[TadSet] = []
    set_index: dict[TadSet, int] = {}
    segments: list[tuple[float, float, float, float, int]] = []  # lo, hi, g(lo), g(hi), tag
    warned = False
    res = max(tol * 1e-3, 1e-13)

    def tag_of(t: TadSet) -> int:
        if t not in set_index:
            set_index[t] = len(sets)
            sets.append(t)
        return set_index[t]

    def emit_chords(lo, hi, t: TadSet, vlo, vhi):
        # subdivide until each chord matches the true objective at 1/4, 1/2, 3/4,
        # left half first.  An explicit stack, not recursion: a nested function
        # that calls itself is a reference cycle, which would keep ``segments``
        # alive after return until the cyclic garbage collector runs.
        stack = [(lo, hi, vlo, vhi, 0)]
        while stack:
            lo, hi, vlo, vhi, depth = stack.pop()
            slope = (vhi - vlo) / (hi - lo)
            for frac in (0.25, 0.5, 0.75):
                x = lo + frac * (hi - lo)
                if abs(vlo + slope * (x - lo) - tad_objective(w, t, x)) > tol:
                    if hi - lo <= 1e-12 or depth >= 40:
                        raise ValueError(f"tol={tol!r} is below what the chord fit can resolve: the "
                                         f"chord on [{lo!r}, {hi!r}] is still off by more than tol")
                    mid = 0.5 * (lo + hi)
                    vm = tad_objective(w, t, mid)
                    stack += [(mid, hi, vm, vhi, depth + 1), (lo, mid, vlo, vm, depth + 1)]
                    break
            else:
                segments.append((lo, hi, vlo, vhi, tag_of(t)))

    rho_hi = float(rho_hi)
    todo = [(0.0, rho_hi) + tuple(tad_optimize(w, x, min_length)[0] for x in (0.0, rho_hi))]
    while todo:
        a, b, t_a, t_b = todo.pop()
        mid = 0.5 * (a + b)
        if t_a == t_b:
            # the difference to another set may cross zero twice inside
            t_mid, v_mid = tad_optimize(w, mid, min_length)
            if t_mid != t_a and v_mid > tad_objective(w, t_a, mid) + max(tol * 1e-3, 1e-12):
                todo += [(mid, b, t_mid, t_b), (a, mid, t_a, t_mid)]
                continue
        else:
            in_a, in_b = set(t_a.intervals), set(t_b.intervals)
            terms = [(w.c[i][j], float(j - i)) for i, j in in_a - in_b]
            terms += [(-w.c[i][j], float(j - i)) for i, j in in_b - in_a]
            roots, cap = exp_sum_roots(terms, a, b, res, with_cap_flag=True)
            warned = warned or cap
            roots = [r for r in roots if a + res < r < b - res]
            if roots:
                edges = [a] + roots + [b]
                opts = [t_a] + [tad_optimize(w, x, min_length)[0] for x in roots] + [t_b]
                todo += reversed(list(zip(edges, edges[1:], opts, opts[1:])))
                continue
            # the sets cross at an end: the one higher at the midpoint holds it
            if tad_objective(w, t_b, mid) > tad_objective(w, t_a, mid):
                t_a = t_b
        emit_chords(a, b, t_a, tad_objective(w, t_a, a), tad_objective(w, t_a, b))

    segments.sort(key=lambda s: s[0])
    bps = [s[0] for s in segments[1:]]
    pieces = []
    for lo, hi, vlo, vhi, tag in segments:
        slope = (vhi - vlo) / (hi - lo)
        pieces.append((slope, vlo - slope * lo, tag))
    fn = PiecewiseFunction1D(0.0, rho_hi, bps, pieces)
    return TadDecomposition(fn, sets, warned)
