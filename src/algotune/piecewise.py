"""Piecewise-linear functions of one real parameter.

This module is the shared backbone for every parameterized algorithm in the
package: each algorithm family exposes, per instance, its objective or utility
as a function of a single parameter, and that function is piecewise linear
(piecewise constant being the slope-zero special case).  Pieces follow the
half-open convention [t_i, t_{i+1}); the final piece is closed at a finite
right endpoint.

Two search kernels build these functions from a solver: ``sweep_constant``
covers the domain with the intervals each run certifies (piecewise-constant
outcomes), and ``sweep_linear`` finds the upper envelope of the lines a
solver returns by Eisner–Severance ray search, with O(pieces) solver calls.

Values are IEEE doubles.  Breakpoints closer than ``EPS_CMP`` are coalesced,
and all value-level guarantees downstream are stated with tolerances, so no
exact rational arithmetic is attempted.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

#: Global comparison tolerance for breakpoint coalescing.
EPS_CMP = 1e-9

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class Line1D:
    """A line ``x -> slope * x + intercept`` tagged with a caller-owned index."""

    slope: float
    intercept: float
    tag: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValueError("line coefficients must be finite")

    def value(self, x: float) -> float:
        return self.slope * x + self.intercept


class PiecewiseFunction1D:
    """Canonical piecewise-linear function on ``[lo, hi]``.

    ``pieces[i]`` is a ``(slope, intercept, tag)`` triple governing
    ``[breakpoints[i-1], breakpoints[i])`` (with ``lo``/``hi`` as outer
    bounds); ``tag`` may be ``None``.  The constructor canonicalizes:
    breakpoints closer than ``EPS_CMP`` are coalesced (the sliver piece is
    dropped) and adjacent identical pieces are merged.
    """

    __slots__ = ("lo", "hi", "breakpoints", "pieces")

    def __init__(self, lo, hi, breakpoints, pieces):
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise ValueError("domain must satisfy lo < hi")
        breakpoints = [float(b) for b in breakpoints]
        pieces = [(float(s), float(c), t) for (s, c, t) in pieces]
        if len(pieces) != len(breakpoints) + 1:
            raise ValueError("need exactly len(breakpoints) + 1 pieces")
        if any(not b1 < b2 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if breakpoints and not (lo < breakpoints[0] and breakpoints[-1] < hi):
            raise ValueError("breakpoints must lie strictly inside (lo, hi)")

        # Coalesce near-duplicate breakpoints: drop the sliver piece between
        # two cuts less than EPS_CMP apart (and slivers against lo/hi).
        bps, pcs = [], [pieces[0]]
        prev = lo
        for b, piece in zip(breakpoints, pieces[1:]):
            if (hi - b) < EPS_CMP:
                continue  # sliver against hi: the left piece keeps the end
            if (b - prev) < EPS_CMP:
                pcs[-1] = piece  # right side wins, matching [t, t') convention
                continue
            bps.append(b)
            pcs.append(piece)
            prev = b

        # Merge adjacent identical pieces.
        merged_b, merged_p = [], [pcs[0]]
        for b, piece in zip(bps, pcs[1:]):
            if piece == merged_p[-1]:
                continue
            merged_b.append(b)
            merged_p.append(piece)

        self.lo = lo
        self.hi = hi
        self.breakpoints = merged_b
        self.pieces = merged_p

    # -- evaluation ---------------------------------------------------------

    def piece_index(self, x: float) -> int:
        if not (self.lo - EPS_CMP <= x <= self.hi + EPS_CMP):
            raise ValueError(f"{x} outside domain [{self.lo}, {self.hi}]")
        return bisect_right(self.breakpoints, x)

    def value(self, x: float) -> float:
        s, c, _ = self.pieces[self.piece_index(x)]
        return s * x + c

    def piece_bounds(self, i: int) -> tuple[float, float]:
        lo = self.lo if i == 0 else self.breakpoints[i - 1]
        hi = self.hi if i == len(self.breakpoints) else self.breakpoints[i]
        return lo, hi

    def __eq__(self, other):
        return (
            isinstance(other, PiecewiseFunction1D)
            and self.lo == other.lo
            and self.hi == other.hi
            and self.breakpoints == other.breakpoints
            and self.pieces == other.pieces
        )

    def __repr__(self):
        return (
            f"PiecewiseFunction1D(lo={self.lo}, hi={self.hi}, "
            f"breakpoints={self.breakpoints}, pieces={self.pieces})"
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "breakpoints": list(self.breakpoints),
            "pieces": [
                {"slope": s, "intercept": c, "tag": t} for (s, c, t) in self.pieces
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewiseFunction1D":
        return cls(
            d["lo"],
            d["hi"],
            d["breakpoints"],
            [(p["slope"], p["intercept"], p.get("tag")) for p in d["pieces"]],
        )

    @classmethod
    def from_json(cls, text: str) -> "PiecewiseFunction1D":
        return cls.from_dict(json.loads(text))

    @classmethod
    def constant(cls, lo, hi, value, tag=None) -> "PiecewiseFunction1D":
        return cls(lo, hi, [], [(0.0, float(value), tag)])


def upper_envelope(lines: Sequence[Line1D], lo: float, hi: float) -> PiecewiseFunction1D:
    """Pointwise maximum of ``lines`` over ``[lo, hi]``.

    Each piece's tag names a line attaining the max on that piece.  At an
    isolated tie point the right-adjacent piece's line wins (half-open
    convention); on a tie interval the lowest tag wins.  Cost is
    O(len(lines) * pieces): one ``sweep_linear`` whose solver takes a max over
    all lines.
    """
    if not lines:
        raise ValueError("no candidates")
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("need a bounded domain with lo < hi")

    def solve(x):
        best = max(lines, key=lambda ln: (ln.value(x), ln.slope, -ln.tag))
        return best.slope, best.intercept, best.tag

    return sweep_linear(solve, lo, hi)


def average(fns: Sequence[PiecewiseFunction1D]) -> PiecewiseFunction1D:
    """Pointwise arithmetic mean of functions sharing one domain (tags cleared).

    Runs in O(total breakpoints x log) via a sweep with running coefficient
    sums, so averaging thousands of small duals (the ERM case) stays cheap.
    """
    if not fns:
        raise ValueError("need at least one function")
    lo, hi = fns[0].lo, fns[0].hi
    for f in fns:
        if f.lo != lo or f.hi != hi:
            raise ValueError("mismatched domains")

    n = len(fns)
    events = []  # (breakpoint, fn index, new piece index)
    for idx, f in enumerate(fns):
        for p, b in enumerate(f.breakpoints):
            events.append((b, idx, p + 1))
    events.sort(key=lambda e: e[0])

    slope_sum = math.fsum(f.pieces[0][0] for f in fns)
    icept_sum = math.fsum(f.pieces[0][1] for f in fns)

    bps, pieces = [], []
    i = 0
    cur = lo
    while True:
        pieces.append((slope_sum / n, icept_sum / n, None))
        if i >= len(events):
            break
        b = events[i][0]
        while i < len(events) and events[i][0] == b:
            _, idx, pidx = events[i]
            old_s, old_c, _ = fns[idx].pieces[pidx - 1]
            new_s, new_c, _ = fns[idx].pieces[pidx]
            slope_sum += new_s - old_s
            icept_sum += new_c - old_c
            i += 1
        if b > cur:
            bps.append(b)
            cur = b
        else:  # duplicate cut collapsed by canonicalization anyway
            pieces.pop()
    return PiecewiseFunction1D(lo, hi, bps, pieces)


class ArgmaxResult(NamedTuple):
    param: float
    value: float
    attained_in_limit: bool = False


def argmax(fn: PiecewiseFunction1D) -> ArgmaxResult:
    """Leftmost point attaining the supremum of ``fn``.

    If the supremum is approached only as a left limit at an (open) piece end,
    the breakpoint itself is returned with ``attained_in_limit=True``.
    Raises for a supremum of +inf on an unbounded domain.
    """
    npieces = len(fn.pieces)
    attained: list[tuple[float, float]] = []  # (x, value)
    limits: list[tuple[float, float]] = []

    for i, (s, c, _) in enumerate(fn.pieces):
        a, b = fn.piece_bounds(i)
        if a == NEG_INF:
            if s < 0:
                raise ValueError("unbounded")
            if s == 0:
                attained.append((NEG_INF, c))
        else:
            attained.append((a, s * a + c))
        if i == npieces - 1:
            if b == POS_INF:
                if s > 0:
                    raise ValueError("unbounded")
            else:
                attained.append((b, s * b + c))
        elif s > 0:
            limits.append((b, s * b + c))

    best_x, best_v = attained[0]
    for x, v in attained[1:]:
        if v > best_v:
            best_x, best_v = x, v
    lim_x, lim_v = None, NEG_INF
    for x, v in limits:
        if v > lim_v:
            lim_x, lim_v = x, v
    if lim_x is not None and lim_v > best_v:
        return ArgmaxResult(lim_x, lim_v, True)
    return ArgmaxResult(best_x, best_v, False)


def count_oscillations(fn: PiecewiseFunction1D, z: float) -> int:
    """Number of discontinuities of ``x -> 1{fn(x) >= z}`` over the domain.

    Crossings interior to linear pieces are counted, including degenerate
    one-point touches at piece boundaries.
    """
    segs: list[int] = []  # indicator per consecutive (possibly degenerate) span

    npieces = len(fn.pieces)
    for i, (s, c, _) in enumerate(fn.pieces):
        a, b = fn.piece_bounds(i)
        last = i == npieces - 1
        if s == 0:
            segs.append(1 if c >= z else 0)
            continue
        x = (z - c) / s
        if s > 0:
            # value >= z on [x, inf)
            if x <= a:
                segs.append(1)
            elif x < b:
                segs.extend((0, 1))
            elif last and x == b and math.isfinite(b):
                segs.extend((0, 1))  # touches z exactly at the closed end
            else:
                segs.append(0)
        else:
            # value >= z on (-inf, x]
            if x < a:
                segs.append(0)
            elif x == a:
                segs.extend((1, 0))  # one-point touch at the piece start
            elif x < b or (last and math.isfinite(b) and x >= b):
                if x >= b:
                    segs.append(1)
                else:
                    segs.extend((1, 0))
            else:
                segs.append(1)

    changes = 0
    for u, v in zip(segs, segs[1:]):
        if u != v:
            changes += 1
    return changes


def check_power(bases: Sequence[float], rho: float, name: str) -> None:
    """Reject rho where some base ** rho is not a positive finite float.

    Families that discount by a power of a size, degree or span call this
    before a solve or a decomposition.  base ** rho is monotone in base and in
    rho, so the extreme bases at the largest rho decide.
    """
    for base in bases:
        try:
            ok = 0.0 < base ** rho < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(
                f"rho={rho!r} is out of range: {base!r} ** rho (from {name}) leaves the float range"
            )


def sweep_constant(run, lo: float, hi: float) -> PiecewiseFunction1D:
    """Cover ``[lo, hi]`` with the intervals ``run`` certifies, one run per interval.

    ``run(x)`` returns ``(value, l, r)``: every comparison the run made keeps its
    outcome on ``[l, r]``.  Gaps narrower than ``EPS_CMP`` take the value on their right.
    """
    found, todo = [], [(float(lo), float(hi))]
    while todo:
        a, b = todo.pop()
        x = 0.5 * (a + b)
        value, l, r = run(x)
        # the certificate always covers x, even if rounding puts a crossing past it
        l, r = min(max(l, a), x), max(min(r, b), x)
        found.append((l, r, float(value)))
        todo += [side for side in ((a, l), (r, b)) if side[1] - side[0] >= EPS_CMP]
    # a probe on a tie that flips both ways certifies only x: the piece right of x owns it
    found = [p for p in sorted(found) if p[0] < p[1]] or found[:1]
    pieces = [(0.0, v, None) for _, _, v in found]
    return PiecewiseFunction1D(lo, hi, [r for _, r, _ in found[:-1]], pieces)


def sweep_linear(solve, lo: float, hi: float) -> PiecewiseFunction1D:
    """Upper envelope of the lines ``solve`` returns over ``[lo, hi]``.

    Eisner–Severance ray search: ``solve(x)`` returns ``(slope, intercept, tag)``
    of a line attaining the max at ``x``.  The kernel solves at both ends, then at
    the crossing of each interval's end lines: a line above that crossing by more
    than 1e-9 splits the interval, otherwise the crossing is a breakpoint.  At
    most 2 * pieces + 1 calls to ``solve``.
    """
    lo, hi = float(lo), float(hi)
    found, todo = [], [(lo, hi, solve(lo), solve(hi))]
    while todo:
        a, b, left, right = todo.pop()
        (s_l, c_l, _), (s_r, c_r, _) = left, right
        if s_l == s_r:
            # one line, or parallel lines: the higher one holds the interval
            found.append((a, b, left if c_l >= c_r else right))
            continue
        x = (c_l - c_r) / (s_r - s_l)
        if not (a + 1e-12 < x < b - 1e-12):
            # the end lines cross at (or past) an end: the one higher midway holds it
            m = 0.5 * (a + b)
            found.append((a, b, left if s_l * m + c_l >= s_r * m + c_r else right))
            continue
        mid = solve(x)
        if mid[0] * x + mid[1] > s_l * x + c_l + 1e-9:
            todo += [(x, b, mid, right), (a, x, left, mid)]
        else:
            found += [(a, x, left), (x, b, right)]
    found.sort(key=lambda f: f[0])
    return PiecewiseFunction1D(lo, hi, [f[0] for f in found[1:]], [f[2] for f in found])


def refine_constant(
    fn: PiecewiseFunction1D, evaluator: Callable[[float], float]
) -> PiecewiseFunction1D:
    """Piecewise-constant function taking ``evaluator(midpoint)`` per piece of ``fn``.

    Adjacent equal values merge; used to turn an objective envelope into the
    piecewise-constant utility it induces.
    """
    bps, pieces = [], []
    for i in range(len(fn.pieces)):
        a, b = fn.piece_bounds(i)
        v = float(evaluator(0.5 * (a + b)))
        if pieces:
            bps.append(a)
        pieces.append((0.0, v, None))
    return PiecewiseFunction1D(fn.lo, fn.hi, bps, pieces)
