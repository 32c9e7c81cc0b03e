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
solver returns by Eisner–Severance ray search.  ``sweep_linear`` runs in
rounds and hands the solver every pending probe point of a round in one
call, O(pieces) points in all, so a dynamic program that solves many
parameters in one batched run pays its fixed per-run cost once per round.
``refine_constant`` likewise asks for all piece midpoints at once.

ERM runs on arrays: ``PiecewiseBatch`` holds many functions on one domain as
a struct of arrays, and its ``mean`` and ``argmax`` are one numpy kernel (a
stable sort of all breakpoints, a sequential running sum of coefficient
changes, the constructor's canonical rules applied on arrays).  ``average``
and ``argmax`` are front ends to it.  The ``PiecewiseFunction1D``
constructor stays in Python, which is faster for the few-piece functions most
callers build.

Values are IEEE doubles.  Breakpoints closer than ``EPS_CMP`` are coalesced,
and all value-level guarantees downstream are stated with tolerances, so no
exact rational arithmetic is attempted.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

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

    def solve(xs):
        tops = [max(lines, key=lambda ln: (ln.value(x), ln.slope, -ln.tag)) for x in xs]
        return [(ln.slope, ln.intercept, ln.tag) for ln in tops]

    return sweep_linear(solve, lo, hi)


def average(fns: Sequence[PiecewiseFunction1D]) -> PiecewiseFunction1D:
    """Pointwise arithmetic mean of functions sharing one domain (tags cleared).

    A front end to ``PiecewiseBatch.mean``: one sort of all breakpoints and one
    running sum of the coefficient changes, in numpy.
    """
    return PiecewiseBatch.of(fns).mean().functions()[0]


class ArgmaxResult(NamedTuple):
    param: float
    value: float
    attained_in_limit: bool = False


def argmax(fn: PiecewiseFunction1D) -> ArgmaxResult:
    """Leftmost point attaining the supremum of ``fn``.

    If the supremum is approached only as a left limit at an (open) piece end,
    the breakpoint itself is returned with ``attained_in_limit=True``.
    Raises for a supremum of +inf on an unbounded domain.  A front end to
    ``PiecewiseBatch.argmax``.
    """
    return PiecewiseBatch.of([fn]).argmax()


def _leftmost_max(v: np.ndarray) -> int:
    """Index where ``best = v[0]``, then ``best = v[i]`` whenever ``v[i] > best``, ends."""
    if v[0] != v[0]:  # NaN: no later value compares greater
        return 0
    return int(np.argmax(np.where(v == v, v, NEG_INF)))


@dataclass(frozen=True, eq=False)
class PiecewiseBatch:
    """Piecewise-linear functions sharing the domain ``[lo, hi]``, as a struct of arrays.

    The pieces of all functions are listed function by function, left to
    right.  Piece ``i`` is ``slopes[i] * x + intercepts[i]`` from ``starts[i]``
    on: ``lo`` for the first piece of a function, that function's breakpoint
    otherwise.  Breakpoints lie strictly inside ``(lo, hi)``, so
    ``starts == lo`` marks where each function begins.  Tags are not kept.

    ``mean`` and ``argmax`` are the ERM kernel: the average of many duals and
    its leftmost maximizer.  Their sums run in a fixed order (see ``mean``),
    so results are reproducible bit for bit; ``tests/piecewise_reference.py``
    holds the piece-by-piece loops they must equal.
    """

    lo: float
    hi: float
    starts: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    @classmethod
    def of(cls, fns: Sequence[PiecewiseFunction1D]) -> "PiecewiseBatch":
        """The batch of ``fns``, which must share one domain."""
        if not fns:
            raise ValueError("need at least one function")
        lo, hi = fns[0].lo, fns[0].hi
        for f in fns:
            if f.lo != lo or f.hi != hi:
                raise ValueError("mismatched domains")
        pieces = list(chain.from_iterable(f.pieces for f in fns))
        starts = chain.from_iterable(chain((lo,), f.breakpoints) for f in fns)
        n = len(pieces)
        return cls(
            lo,
            hi,
            np.fromiter(starts, float, n),
            np.fromiter(map(itemgetter(0), pieces), float, n),
            np.fromiter(map(itemgetter(1), pieces), float, n),
        )

    def functions(self) -> list[PiecewiseFunction1D]:
        """One ``PiecewiseFunction1D`` per function of the batch (tags ``None``)."""
        heads = np.flatnonzero(self.starts == self.lo).tolist() + [len(self.starts)]
        a, s, c = self.starts.tolist(), self.slopes.tolist(), self.intercepts.tolist()
        return [
            PiecewiseFunction1D(self.lo, self.hi, a[i + 1:j], [(s[k], c[k], None) for k in range(i, j)])
            for i, j in zip(heads, heads[1:])
        ]

    def canonical(self) -> "PiecewiseBatch":
        """Every function in the canonical form ``PiecewiseFunction1D`` gives it.

        The constructor's rules, on arrays: breakpoints within ``EPS_CMP`` of
        ``hi`` are dropped; a breakpoint within ``EPS_CMP`` of the last kept one
        is dropped too, and its right piece replaces the kept one's; equal
        neighbouring pieces merge.
        """
        lo, hi = self.lo, self.hi
        first = self.starts == lo
        keep = first | ~(hi - self.starts < EPS_CMP)
        starts, first = self.starts[keep], first[keep]
        slopes, icepts = self.slopes[keep], self.intercepts[keep]

        # A raw gap of at least EPS_CMP keeps its breakpoint, since the last kept
        # one lies at or left of its neighbour; only the narrower gaps need a walk.
        keep = first.copy()
        inner = np.flatnonzero(~first)
        keep[inner] = ~(starts[inner] - starts[inner - 1] < EPS_CMP)
        anchor = 0
        for i in np.flatnonzero(~keep).tolist():
            if keep[i - 1]:
                anchor = i - 1
            keep[i] = not starts[i] - starts[anchor] < EPS_CMP
        kept = np.flatnonzero(keep)
        last = np.append(kept[1:], len(keep)) - 1  # a kept start takes its run's last piece
        starts, first = starts[kept], first[kept]
        slopes, icepts = slopes[last], icepts[last]

        same = ~first
        same[1:] &= (slopes[1:] == slopes[:-1]) & (icepts[1:] == icepts[:-1])
        keep = ~same
        return PiecewiseBatch(lo, hi, starts[keep], slopes[keep], icepts[keep])

    def mean(self) -> "PiecewiseBatch":
        """Pointwise mean of the batch's functions, as a canonical batch of one.

        Every breakpoint is an event, taken function by function, then piece by
        piece, and stably sorted by position.  The running sums start from the
        ``math.fsum`` of the first pieces and add each event's ``new - old``
        coefficient in that order (``np.add.accumulate`` adds sequentially);
        the sums after the last event at each position, divided by the number
        of functions, are the pieces.
        """
        lo = self.lo
        first = self.starts == lo
        n = int(np.count_nonzero(first))
        event = np.flatnonzero(~first)  # pieces that begin at a breakpoint
        order = np.argsort(self.starts[event], kind="stable")
        event = event[order]
        at = self.starts[event]
        sums = []
        for coef in (self.slopes, self.intercepts):
            delta = coef[event] - coef[event - 1]
            sums.append(np.add.accumulate(np.concatenate(([math.fsum(coef[first].tolist())], delta))))
        new = np.ones(len(at), dtype=bool)
        new[1:] = at[1:] != at[:-1]
        done = np.empty(len(at), dtype=bool)  # the last event at its position
        done[:-1] = new[1:]
        done[-1:] = True
        take = np.concatenate(([0], np.flatnonzero(done) + 1))
        starts = np.concatenate(([lo], at[new]))
        return PiecewiseBatch(lo, self.hi, starts, sums[0][take] / n, sums[1][take] / n).canonical()

    def argmax(self) -> ArgmaxResult:
        """``argmax`` of the one function this batch holds.

        Candidates are each piece's closed start (and the domain's finite right
        end), plus, for a rising piece, the open right end as a limit.  The
        leftmost best candidate wins, and a limit only when it is strictly higher.
        """
        lo, hi, a, s, c = self.lo, self.hi, self.starts, self.slopes, self.intercepts
        if np.count_nonzero(a == lo) != 1:
            raise ValueError("argmax needs a batch of one function")
        if (lo == NEG_INF and s[0] < 0) or (hi == POS_INF and s[-1] > 0):
            raise ValueError("unbounded")
        xs, vs = [a[1:]], [s[1:] * a[1:] + c[1:]]
        if lo != NEG_INF:
            xs.insert(0, [lo])
            vs.insert(0, [s[0] * lo + c[0]])
        elif s[0] == 0:
            xs.insert(0, [NEG_INF])
            vs.insert(0, [c[0]])
        if hi != POS_INF:
            xs.append([hi])
            vs.append([s[-1] * hi + c[-1]])
        xs, vs = np.concatenate(xs), np.concatenate(vs)
        i = _leftmost_max(vs)

        rising = np.flatnonzero(s[:-1] > 0)
        if len(rising):
            lim_x = a[rising + 1]
            lim_v = s[rising] * lim_x + c[rising]
            j = _leftmost_max(np.concatenate(([NEG_INF], lim_v))) - 1
            if j >= 0 and lim_v[j] > vs[i]:
                return ArgmaxResult(float(lim_x[j]), float(lim_v[j]), True)
        return ArgmaxResult(float(xs[i]), float(vs[i]), False)


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

    Eisner–Severance ray search, run in rounds: ``solve(xs)`` takes a list of
    points and returns, per point, ``(slope, intercept, tag)`` of a line
    attaining the max there.  Round 1 solves at both ends; each later round
    solves, in one call, at the crossing of the end lines of every pending
    interval.  A line above that crossing by more than 1e-9 splits its
    interval, otherwise the crossing is a breakpoint.  Each interval's
    outcome depends only on its ends, its end lines and the line at its
    crossing, and the pieces are sorted at the end, so the envelope is the
    one a depth-first search finds.  At most 2 * pieces + 1 probe points, in
    one ``solve`` call per round.
    """
    lo, hi = float(lo), float(hi)
    found, todo = [], [(lo, hi, *solve([lo, hi]))]
    while todo:
        probes = []
        for a, b, left, right in todo:
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
            probes.append((a, b, left, right, x))
        todo = []
        mids = solve([x for *_, x in probes]) if probes else ()
        for (a, b, left, right, x), mid in zip(probes, mids):
            if mid[0] * x + mid[1] > left[0] * x + left[1] + 1e-9:
                todo += [(a, x, left, mid), (x, b, mid, right)]
            else:
                found += [(a, x, left), (x, b, right)]
    found.sort(key=lambda f: f[0])
    return PiecewiseFunction1D(lo, hi, [f[0] for f in found[1:]], [f[2] for f in found])


def refine_constant(
    fn: PiecewiseFunction1D, evaluator: Callable[[list[float]], Sequence[float]]
) -> PiecewiseFunction1D:
    """Piecewise-constant function taking the evaluator's value at each piece's midpoint.

    ``evaluator(xs)`` gets the midpoints of all pieces of ``fn`` in one call
    and returns one value per point.  Adjacent equal values merge; used to
    turn an objective envelope into the piecewise-constant utility it induces.
    """
    bounds = [fn.piece_bounds(i) for i in range(len(fn.pieces))]
    values = evaluator([0.5 * (a + b) for a, b in bounds])
    pieces = [(0.0, float(v), None) for v in values]
    return PiecewiseFunction1D(fn.lo, fn.hi, [a for a, _ in bounds[1:]], pieces)
