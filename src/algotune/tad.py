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
no root) at adjacent doubles, and approximates each region's objective by
linear pieces within the caller's tolerance.  The objective of an optimal
set is a convex exponential sum whose curvature falls in rho, so each chord
is laid at a width that a curvature bound certifies, with no probing
between its ends: a chord may rise up to twice the tolerance above the
objective, and every chord is then lowered by one constant, half the
largest certified height, which is about the fewest linear pieces any fit
within the tolerance can take.  Values and curvature come from one numpy
array expression; the chord ends are within a few ulps of
``tad_objective``.  One precondition, tol >= 2**-41 times the optimal
objective at rho = 0, leaves the rounding and the placement of the set
changes within the slack the chord widths keep.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import exp_sum_roots
from .piecewise import EPS_CMP, PiecewiseFunction1D, check_power


class ContactMatrix:
    """Symmetric nonnegative n x n matrix of finite contact frequencies."""

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("need a square matrix with n >= 2")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
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
    c_ij = T(i,j) - mean_t T(t, t+j-i).  Each span is one numpy statement in
    the cell loop's float order: ``left + down - inner + M``, then ``- mean``.
    """
    n, s = m.n, m.n + 1
    # flat, 0-based: cell (i, j) at i * n + j; span d is [d::s][:n - d], and its left,
    # down and inner neighbours (zeros at span 1) start at d - 1, n + d and n + d - 1
    M, T, C = m.m.reshape(-1), np.zeros(n * n), np.zeros(n * n)
    for d in range(1, n):
        k = n - d
        T[d::s][:k] = T[d - 1::s][:k] + T[n + d::s][:k] - T[n + d - 1::s][:k] + M[d::s][:k]
        C[d::s][:k] = T[d::s][:k] - _block_mean(T[d::s][:k])
    c = np.zeros((s, s))
    c[1:, 1:] = C.reshape(n, n)
    return TadWeights(c)


def tad_optimize(w: TadWeights, rho: float) -> tuple[TadSet, float]:
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
        for i in range(1, p):
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


#: cells per region; a chord takes the width certified at its cell's start
_CELLS = 64
#: share of ``tol`` that the chord bound leaves for float rounding
_SLACK = 2.0**-8


def _objective_at(terms, xs: np.ndarray, k: int = 0) -> np.ndarray:
    """sum c * ln(s)**k * s**-x at every point of ``xs``, for a set's ``(c_ij, j - i)`` pairs.

    k = 0 gives the set's objective, within a few ulps of ``tad_objective``
    (numpy's ``exp`` in place of the C library's ``pow``); k = 2 gives its
    curvature g''.  An empty set, or a sum of zeros, gives 0.0, never -0.0.
    """
    coef = np.array([c for c, _ in terms], dtype=float)
    logs = np.log([s for _, s in terms])
    return np.exp(-np.outer(xs, logs)) @ (coef * logs**k) + 0.0


def _fit_chords(terms, lo: float, hi: float, tol: float) -> np.ndarray:
    """Certified chords of one set's objective on [lo, hi], as rows lo, hi, g(lo), g(hi).

    ``terms`` are the set's ``(c_ij, j - i)`` pairs.  A set that is optimal
    at some rho has only positive weights (``tad_optimize`` drops an
    interval of weight <= 0); ``ValueError`` otherwise.  So
    g = sum c * s**-rho is convex, g'' = sum c * ln(s)**2 * s**-rho falls in
    rho, and a chord of width h that starts at x lies between 0 and
    h**2 * g''(x) / 8 above g on its whole width.  ``rho_decomposition``
    lowers every chord by half the largest such height (``_chord_bound``),
    so a chord may rise up to 2 * tol above g: the region is cut into
    ``_CELLS`` cells, and from the running position chords of width
    sqrt(16 * tol * (1 - _SLACK) / g''(cell start)) are laid while they
    start in the cell; the last may run past it, since g'' only falls.  A
    line within tol of a convex g over width h needs h**2 * g'' / 16 <= tol,
    so these are about the fewest pieces any linear fit within tol can take.

    Rounding: the slack, 2**-8 of ``tol``, covers a few ulps in g'' and the
    square root, and the few ulps of |g| by which the chord ends' values,
    their lowering and a later evaluation of g are rounded, while tol is at
    least 2**-41 * |g| (``rho_decomposition``'s precondition).  Each width
    is also cut by 2**-50 * hi, two ulps of ``hi``, the most by which
    rounding the chord ends p + i * h stretches a chord.

    The last chord ends on ``hi``; an end within ``EPS_CMP`` of ``hi`` moves
    to the middle of the last two chords, which keeps both within one
    certified width when that is at least ``EPS_CMP``.  The values at the
    chord ends are one numpy ``_objective_at`` call, within a few ulps of
    ``tad_objective``; lowered by delta, within a few ulps of
    ``tad_objective`` - delta.
    """
    if not all(c > 0 for c, _ in terms):
        raise ValueError(f"a fitted set needs positive weights, got {[float(c) for c, _ in terms]}")
    starts = lo + (hi - lo) / _CELLS * np.arange(_CELLS)
    bound = 16.0 * tol * (1.0 - _SLACK)
    margin = 2.0**-50 * hi
    widths = [min(math.sqrt(bound / d) - margin if d > 0 else math.inf, hi - lo)
              for d in _objective_at(terms, starts, 2).tolist()]
    p, laid = lo, []  # (first chord start, width, chord count) of each cell a chord starts in
    for end, h in zip(starts.tolist()[1:] + [hi], widths):
        if p < end:
            k = math.ceil((end - p) / h)
            laid.append((p, h, k))
            p += h * k
    first, width, count = np.array(laid).T
    count = count.astype(int)
    nth = np.arange(1, count.sum() + 1) - np.repeat(np.cumsum(count) - count, count)
    x = np.concatenate([[lo], np.repeat(first, count) + np.repeat(width, count) * nth])
    x[-1] = hi
    if len(x) > 2 and hi - x[-2] < EPS_CMP:
        x[-2] = 0.5 * (x[-3] + hi)
    g = _objective_at(terms, x)
    return np.stack([x[:-1], x[1:], g[:-1], g[1:]])


def _chord_bound(terms, chords: np.ndarray) -> float:
    """Largest certified height of ``_fit_chords``' chords above g: max h**2 * g''(start) / 8.

    0.0 for a set with no span above 1 (g'' is 0) and at most
    2 * tol * (1 - _SLACK), up to rounding, for chords fitted at ``tol``.
    """
    lo, hi = chords[0], chords[1]
    return float(np.max((hi - lo) ** 2 * _objective_at(terms, lo, 2))) / 8.0


class TadDecomposition(NamedTuple):
    fn: PiecewiseFunction1D  # lowered chords, within tol of the optimal objective
    tad_sets: list[TadSet]  # piece tags index into this list
    # always False: the root isolation is certified and has no count cap.  The
    # field stays because the benchmark tracer reads it.
    cap_warning: bool


def rho_decomposition(w: TadWeights, rho_hi: float, tol: float) -> TadDecomposition:
    """Parameter decomposition of the optimal TAD objective on [0, rho_hi].

    Explicit-stack sweep in the shape of ``piecewise.sweep_linear``; each
    interval carries the optimal sets at its ends.  Where they agree, one mid
    probe guards against a third set winning strictly inside.  Where they
    differ, the roots of their objective difference (an exponential sum) are
    isolated, all of them, at adjacent doubles (``exp_sum_roots`` at the
    smallest subnormal tolerance); the coefficients are summed per span
    first, so two sets tied at every rho have no root and the sweep does not
    chase their rounding.  The optimum is probed at each root inside the
    interval and the sub-intervals are searched in turn.  With none inside
    (a root that rounds onto an end is dropped) the sets cross at an end,
    and the set higher at the midpoint holds the interval.  Once the sweep
    is done, each region's objective is approximated by chords that lie
    between 0 and 2 * tol * (1 - 2**-8) above it, each as wide as the
    curvature bound at its start allows (``_fit_chords``: widths certified
    per 64th of the region, the chord ends one array pass).  Every chord end
    is then lowered by one constant delta, half the largest certified height
    h**2 * g'' / 8 among all the chords (``_chord_bound``), so each piece is
    within tol * (1 - 2**-8) of its set's objective.  The end values sit
    delta below ``_objective_at``'s, within a few ulps of
    ``tad_objective``'s, neighbouring pieces still share their end values,
    and delta is 0 when no fitted set has a span above 1.
    ``cap_warning`` is always False.

    ``ValueError`` when tol < 2**-41 * V(0), V(0) the optimal objective at
    rho = 0.  Fitted sets have positive weights, so their objectives fall in
    rho and V(0) is the largest any of them takes on the domain.  Above that
    bound the 2**-8 * tol slack of the chord widths covers both:
    - rounding: a few ulps of an objective at most V(0);
    - placement: beside a set change at x between sets A and B, h = g_A - g_B
      has its root within one spacing of x, and rho * ln(s) * s**-rho <= 1/e
      gives |h'(x)| * x <= 2 * V(0) / e, so the optimum beats the held set by
      at most 0.74 * 2**-52 * V(0) <= 0.74 * 2**-11 * tol.
    The bound also keeps every chord at least about 2.8e-6 / ln(n - 1)
    wide, since g'' <= ln(n - 1)**2 * g.  ``ValueError`` when
    (n - 1) ** rho_hi leaves the float range (every weight is then a finite
    double on the whole domain).
    """
    if not (math.isfinite(rho_hi) and rho_hi > 0):
        raise ValueError(f"rho_hi must be positive and finite, got {rho_hi!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    w.check_rho(rho_hi)

    rho_hi = float(rho_hi)
    (t_lo, v_lo), (t_hi, _) = (tad_optimize(w, x) for x in (0.0, rho_hi))
    v_lo = float(v_lo)
    if tol < 2.0**-41 * v_lo:
        raise ValueError(f"tol={tol!r} is below what the chord fit can resolve: it needs "
                         f"tol >= 2**-41 * V(0) = {2.0**-41 * v_lo!r}, where V(0) = {v_lo!r} "
                         "is the optimal objective at rho = 0")

    regions: list[tuple[float, float, TadSet]] = []  # (lo, hi, the set that holds it)
    todo = [(0.0, rho_hi, t_lo, t_hi)]
    while todo:
        a, b, t_a, t_b = todo.pop()
        mid = 0.5 * (a + b)
        held = t_a
        if t_a == t_b:
            # the difference to another set may cross zero twice inside
            t_mid, v_mid = tad_optimize(w, mid)
            if t_mid != t_a and v_mid > tad_objective(w, t_a, mid) + max(tol * 1e-3, 1e-12):
                todo += [(mid, b, t_mid, t_b), (a, mid, t_a, t_mid)]
                continue
        else:
            in_a, in_b = set(t_a.intervals), set(t_b.intervals)
            terms = [(w.c[i][j], float(j - i)) for i, j in in_a - in_b]
            terms += [(-w.c[i][j], float(j - i)) for i, j in in_b - in_a]
            roots = [r for r in exp_sum_roots(terms, a, b, math.ulp(0.0)) if a < r < b]
            if roots:
                edges = [a] + roots + [b]
                opts = [t_a] + [tad_optimize(w, x)[0] for x in roots] + [t_b]
                todo += reversed(list(zip(edges, edges[1:], opts, opts[1:])))
                continue
            # the sets cross at an end: the one higher at the midpoint holds it
            if tad_objective(w, t_b, mid) > tad_objective(w, t_a, mid):
                held = t_b
        regions.append((a, b, held))

    tag_of: dict[TadSet, int] = {}  # each fitted set -> its tag, in the order first fitted
    fits: list[tuple[np.ndarray, int]] = []  # chords (lo, hi, g(lo), g(hi)) of a region, tag
    height = 0.0  # the largest certified height of a chord above its set's objective
    for a, b, held in regions:
        own = [(w.c[i][j], float(j - i)) for i, j in held.intervals]
        chords = _fit_chords(own, a, b, tol)
        height = max(height, _chord_bound(own, chords))
        fits.append((chords, tag_of.setdefault(held, len(tag_of))))

    # the sweep takes regions left to right and each fit runs left to right; lowered
    # by half the largest height, every chord is within that half of its objective
    lo, hi, vlo, vhi = np.concatenate([chords for chords, _ in fits], axis=1)
    vlo, vhi = vlo - 0.5 * height, vhi - 0.5 * height
    tags = np.repeat([tag for _, tag in fits], [chords.shape[1] for chords, _ in fits])
    slope = (vhi - vlo) / (hi - lo)
    fn = PiecewiseFunction1D.from_arrays(0.0, rho_hi, lo[1:], slope, vlo - slope * lo, tags.tolist())
    return TadDecomposition(fn, list(tag_of), False)
