"""Topologically-associating-domain prediction from contact matrices.

The per-interval weight c_ij (block sum minus the mean over all same-length
diagonal blocks) is independent of the exponent parameter, so the objective
for a TAD set is sum c_ij / (j-i)^rho and the optimizer is a weighted-interval
scheduling DP.  The parameter decomposition is numerical: optimal sets change
where exponential sums cross zero.  ``rho_decomposition`` finds those
crossings with one explicit-stack sweep, the ray search of
``piecewise.sweep_linear`` with line crossings replaced by the roots of
objective differences, which ``bounds.exp_sum_roots`` isolates with a
certificate (coefficients summed per span, so sets tied at every rho give
no root) to a thousandth of the caller's tolerance, and approximates each
region's objective by chords within that tolerance.  The chord fit tests
blocks of chords in numpy arrays; its powers go through Python's float
``pow`` (the C library's, as ``TadWeights.weight`` computes them) rather
than ``np.power``, which can round differently in the last bit, so the
chords are the same doubles as one ``tad_objective`` call per point gives.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .bounds import exp_sum_roots
from .piecewise import PiecewiseFunction1D, check_power


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
        """Reject rho where the longest span's (n - 1) ** rho leaves the float range."""
        check_power((max(self.n - 1, 1),), rho, "the longest span")


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


#: chords taken off the fit's stack and tested together in one array pass
_CHORD_BLOCK = 1024
#: where a chord is compared with the objective, as fractions of its width
_PROBES = np.array([[0.25], [0.5], [0.75]])


def _objective_at(terms, xs: np.ndarray) -> np.ndarray:
    """``tad_objective`` of one set at every point of ``xs``, bit for bit.

    ``terms`` are the set's ``(c_ij, j - i)`` pairs.  Each power is Python's
    float ``pow`` (the C library's), as in ``TadWeights.weight``: the
    vectorized ``np.power`` can round differently in the last bit.  A
    division, like a sum of two terms, is one correctly rounded IEEE
    operation in numpy as in Python, and a correctly rounded sum is what
    ``math.fsum`` returns; the zero start turns -0.0 into 0.0, as ``fsum``
    does.  Sums of three or more terms go through ``fsum`` point by point.
    """
    n = len(xs)
    xl = xs.tolist()  # Python floats, so that pow is float.__pow__
    parts = [c / np.fromiter(map(pow, repeat(s, n), xl), float, n) for c, s in terms]
    if len(parts) > 2:
        return np.array([math.fsum(col) for col in zip(*(p.tolist() for p in parts))])
    return sum(parts, np.zeros(n))


def _fit_chords(terms, lo: float, hi: float, tol: float) -> np.ndarray:
    """Chords of one set's objective on [lo, hi], as rows lo, hi, g(lo), g(hi).

    A chord is kept when it matches the objective within ``tol`` at 1/4, 1/2
    and 3/4 of its width, else it is halved.  Up to ``_CHORD_BLOCK`` chords
    come off an explicit stack at a time; their three probes are one
    ``_objective_at`` call and the midpoints of the failing ones a second.
    A block, not a whole level of the halving tree, keeps the stack at
    O(block x depth) rows when ``tol`` cannot be met.  The stack's rows run
    right to left, so the leftmost chords come off first.  ``ValueError``
    when a chord 1e-12 wide or 40 halvings deep still misses ``tol``.
    """
    stack = np.array([[lo, hi, *_objective_at(terms, np.array([lo, hi])), 0.0]])
    kept = []
    while len(stack):
        block, stack = stack[-_CHORD_BLOCK:], stack[:-_CHORD_BLOCK]
        lo, hi, vlo, vhi, depth = block.T
        width = hi - lo
        slope = (vhi - vlo) / width
        x = lo + _PROBES * width
        g = _objective_at(terms, x.ravel()).reshape(x.shape)
        bad = (np.abs(vlo + slope * (x - lo) - g) > tol).any(axis=0)
        kept.append(block[~bad, :4])
        if not bad.any():
            continue
        stuck = bad & ((width <= 1e-12) | (depth >= 40))
        if stuck.any():
            k = np.flatnonzero(stuck)[-1]  # the leftmost, as rows run right to left
            raise ValueError(f"tol={tol!r} is below what the chord fit can resolve: the chord on "
                             f"[{float(lo[k])!r}, {float(hi[k])!r}] is still off by more than tol")
        lo, hi, vlo, vhi, depth = block[bad].T
        mid = 0.5 * (lo + hi)
        vm = _objective_at(terms, mid)
        right = np.stack([mid, hi, vm, vhi, depth + 1], axis=1)
        left = np.stack([lo, mid, vlo, vm, depth + 1], axis=1)
        stack = np.concatenate([stack, np.stack([right, left], axis=1).reshape(-1, 5)])
    return np.concatenate(kept).T


class TadDecomposition(NamedTuple):
    fn: PiecewiseFunction1D  # chordal approximation of the optimal objective
    tad_sets: list[TadSet]  # piece tags index into this list
    # always False: the root isolation is certified and has no count cap.  The
    # field stays because the benchmark tracer reads it and the CLI JSON prints it.
    cap_warning: bool


def rho_decomposition(
    w: TadWeights, rho_hi: float, tol: float, min_length: int = 1
) -> TadDecomposition:
    """Parameter decomposition of the optimal TAD objective on [0, rho_hi].

    Explicit-stack sweep in the shape of ``piecewise.sweep_linear``; each
    interval carries the optimal sets at its ends.  Where they agree, one mid
    probe guards against a third set winning strictly inside.  Where they
    differ, the roots of their objective difference (an exponential sum) are
    isolated, all of them, to ``max(tol * 1e-3, 1e-13)``, the x-precision
    that keeps values within ``tol`` beside a breakpoint; the coefficients are
    summed per span first, so two sets tied at every rho have no root and
    the sweep does not chase their rounding.  The optimum is probed at each
    interior root and the sub-intervals are searched in turn.  With no
    interior root the sets cross at an end, and the set higher at the
    midpoint holds the interval.  Each region's objective is approximated by chords, halved until
    they match it within ``tol`` at 1/4, 1/2 and 3/4 (``_fit_chords``: up to
    ``_CHORD_BLOCK`` chords per array pass, all chords sorted once at the
    end); ``ValueError`` when ``tol`` is finer than 40 halvings (or a width
    of 1e-12) can resolve, naming one chord that stays off.
    ``cap_warning`` is always False.
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
    fits: list[tuple[np.ndarray, int]] = []  # chords (lo, hi, g(lo), g(hi)) of a region, tag
    res = max(tol * 1e-3, 1e-13)

    def tag_of(t: TadSet) -> int:
        if t not in set_index:
            set_index[t] = len(sets)
            sets.append(t)
        return set_index[t]

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
            roots = [r for r in exp_sum_roots(terms, a, b, res) if a + res < r < b - res]
            if roots:
                edges = [a] + roots + [b]
                opts = [t_a] + [tad_optimize(w, x, min_length)[0] for x in roots] + [t_b]
                todo += reversed(list(zip(edges, edges[1:], opts, opts[1:])))
                continue
            # the sets cross at an end: the one higher at the midpoint holds it
            if tad_objective(w, t_b, mid) > tad_objective(w, t_a, mid):
                t_a = t_b
        own = [(w.c[i][j], float(j - i)) for i, j in t_a.intervals]
        fits.append((_fit_chords(own, a, b, tol), tag_of(t_a)))

    chords = np.concatenate([chords for chords, _ in fits], axis=1)
    order = np.argsort(chords[0], kind="stable")
    lo, hi, vlo, vhi = chords[:, order]
    tags = np.concatenate([np.full(chords.shape[1], tag) for chords, tag in fits])[order]
    slope = (vhi - vlo) / (hi - lo)
    pieces = list(zip(slope.tolist(), (vlo - slope * lo).tolist(), tags.tolist()))
    fn = PiecewiseFunction1D(0.0, rho_hi, lo[1:].tolist(), pieces)
    return TadDecomposition(fn, sets, False)
