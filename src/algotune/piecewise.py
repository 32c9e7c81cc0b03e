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

A ``PiecewiseFunction1D`` is stored as arrays: piece starts, slopes and
intercepts, plus its tags as one tuple (``None`` when no piece is tagged).
``breakpoints`` and ``pieces`` build a new list from them on each read, so
readers that need no list (evaluation, JSON, ERM) use the arrays.  One array
kernel, ``_canonical``, puts functions in canonical form: the constructor
runs it on one function and ``PiecewiseBatch.canonical`` on many at once; it
gathers only when it drops a piece.  The search kernels, ``tad`` and the JSON
reader hand their columns straight to ``PiecewiseFunction1D.from_arrays``,
and ``json_chunks`` writes a function a few thousand pieces at a time, so no
layer keeps a Python object per piece.

ERM runs on arrays: ``PiecewiseBatch`` holds many functions on one domain as
a struct of arrays, and its ``mean`` and ``argmax`` are one numpy kernel (a
stable sort of all breakpoints, a sequential running sum of coefficient
changes, the canonical kernel, and an exact ``math.fsum`` re-scoring of
near-tied candidates on the member functions).  ``average`` and ``argmax``
are front ends to it.

Values are IEEE doubles.  Breakpoints closer than ``EPS_CMP`` are coalesced,
and all value-level guarantees downstream are stated with tolerances, so no
exact rational arithmetic is attempted.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, NamedTuple

import numpy as np

#: Global comparison tolerance for breakpoint coalescing.
EPS_CMP = 1e-9

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Pieces per string of ``PiecewiseFunction1D.json_chunks``.
_JSON_CHUNK = 4096


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


def _canonical(lo, hi, starts, ends, slopes, icepts, tags=None):
    """Canonical form of functions on ``[lo, hi]`` listed function by function.

    Piece ``i`` spans ``[starts[i], ends[i])``: it starts at ``lo`` if it is
    the first piece of a function and at one of its breakpoints otherwise,
    and it ends where the next piece starts, or at ``hi`` for a function's
    last piece.  The rules: a breakpoint within ``EPS_CMP`` of ``hi`` goes
    with its piece; a breakpoint within ``EPS_CMP`` of the last kept one goes
    too, and its right piece replaces the kept one's; equal neighbouring
    pieces (slope, intercept and tag) merge.  Returns ``(starts, slopes,
    icepts, tags)``, the very arrays given when nothing goes.  ``tags`` is a
    tuple, or ``None`` for untagged pieces.  ``ValueError`` if a piece is
    empty or reversed: the breakpoints do not increase strictly.
    """
    width = ends - starts
    # no piece narrower than EPS_CMP: no breakpoint goes (a piece spanning
    # [lo, hi] alone may be, and then nothing goes either)
    if not width[width.argmin()] >= EPS_CMP:
        if not np.all(width > 0):
            raise ValueError("breakpoints must be strictly increasing")
        head = starts == lo  # the first piece of a function
        keep = head | ~(hi - starts < EPS_CMP)
        sel = np.flatnonzero(keep)
        at, head = starts[sel], head[sel]
        # a raw gap of at least EPS_CMP keeps its breakpoint, since the last kept
        # one lies at or left of its neighbour; only the narrower gaps need a walk
        keep = head.copy()
        inner = np.flatnonzero(~head)
        keep[inner] = ~(at[inner] - at[inner - 1] < EPS_CMP)
        anchor = 0
        for i in np.flatnonzero(~keep).tolist():
            if keep[i - 1]:
                anchor = i - 1
            keep[i] = not at[i] - at[anchor] < EPS_CMP
        kept = np.flatnonzero(keep)
        last = sel[np.append(kept[1:], len(keep)) - 1]  # a kept start takes its run's last piece
        starts, slopes, icepts = at[kept], slopes[last], icepts[last]
        if tags is not None:
            tags = tuple(map(tags.__getitem__, last.tolist()))

    same = slopes[1:] == slopes[:-1]
    same &= icepts[1:] == icepts[:-1]
    if np.count_nonzero(same):
        same[starts[1:] == lo] = False  # a function's first piece has no left neighbour
        if tags is not None:
            for i in np.flatnonzero(same).tolist():
                same[i] = tags[i] == tags[i + 1]
        keep = np.concatenate(([True], ~same))
        starts, slopes, icepts = starts[keep], slopes[keep], icepts[keep]
        if tags is not None:
            tags = tuple(compress(tags, keep.tolist()))
    return starts, slopes, icepts, tags


class PiecewiseFunction1D:
    """Canonical piecewise-linear function on ``[lo, hi]``, stored as arrays.

    Piece ``i`` is ``slope * x + intercept`` on ``[breakpoints[i-1],
    breakpoints[i])`` (with ``lo``/``hi`` as outer bounds) and carries a
    caller-owned tag, which may be ``None``.  The function keeps three float
    arrays, the piece starts (``lo``, then the breakpoints), the slopes and the
    intercepts, and its tags as one tuple, or ``None`` when no piece is tagged.
    ``breakpoints`` and ``pieces`` are new lists built from them on each read,
    so changing one leaves the function as it was: ``pieces[i]`` is the
    ``(slope, intercept, tag)`` triple of piece ``i``.

    The constructor takes breakpoints and such triples; ``from_arrays`` takes
    the columns.  Both canonicalize with the kernel ``PiecewiseBatch.canonical``
    also runs: breakpoints closer than ``EPS_CMP`` are coalesced (the sliver
    piece is dropped) and adjacent identical pieces are merged.
    """

    __slots__ = ("lo", "hi", "_starts", "_slopes", "_icepts", "_tags")

    def __init__(self, lo, hi, breakpoints, pieces):
        slopes, icepts, tags = tuple(zip(*pieces)) or ((), (), ())
        self._set(lo, hi, breakpoints, slopes, icepts, tags)

    @classmethod
    def from_arrays(cls, lo, hi, breakpoints, slopes, intercepts, tags=None) -> "PiecewiseFunction1D":
        """The function with these columns: ``len(breakpoints) + 1`` slopes,
        intercepts and (unless ``tags`` is ``None``) tags, as sequences or
        arrays.  Arrays are copied, so the caller may reuse them."""
        fn = cls.__new__(cls)
        fn._set(lo, hi, breakpoints, slopes, intercepts, tags)
        return fn

    def _set(self, lo, hi, breakpoints, slopes, icepts, tags):
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise ValueError("domain must satisfy lo < hi")
        n = len(breakpoints) + 1
        if tags is not None:
            tags = tuple(tags)
        if len(slopes) != n or len(icepts) != n or (tags is not None and len(tags) != n):
            raise ValueError("need exactly len(breakpoints) + 1 pieces")
        if tags is not None and tags.count(None) == n:
            tags = None
        edges = np.empty(n + 1)  # piece i spans [edges[i], edges[i + 1])
        edges[0] = lo
        edges[1:n] = breakpoints
        edges[n] = hi
        # the ends first: with them inside (lo, hi), no width is inf - inf
        if not (edges[1] > lo and edges[n - 1] < hi):
            if not np.all(edges[2:n] > edges[1:n - 1]):
                raise ValueError("breakpoints must be strictly increasing")
            raise ValueError("breakpoints must lie strictly inside (lo, hi)")
        slopes = np.array(slopes, dtype=float)
        icepts = np.array(icepts, dtype=float)
        starts, slopes, icepts, tags = _canonical(lo, hi, edges[:-1], edges[1:], slopes, icepts, tags)
        if tags is not None and tags.count(None) == len(tags):
            tags = None
        self.lo = lo
        self.hi = hi
        self._starts = starts
        self._slopes = slopes
        self._icepts = icepts
        self._tags = tags

    @property
    def breakpoints(self) -> list[float]:
        return self._starts[1:].tolist()

    @property
    def pieces(self) -> list[tuple]:
        return list(zip(self._slopes.tolist(), self._icepts.tolist(), self._tag_run(slice(None))))

    def _tag_run(self, part: slice):
        """The tags of ``part`` of the pieces; an endless run of ``None`` (for ``zip``) when untagged."""
        return repeat(None) if self._tags is None else self._tags[part]

    # -- evaluation ---------------------------------------------------------

    def piece_index(self, x: float) -> int:
        if not (self.lo - EPS_CMP <= x <= self.hi + EPS_CMP):
            raise ValueError(f"{x} outside domain [{self.lo}, {self.hi}]")
        return int(np.searchsorted(self._starts[1:], x, side="right"))

    def value(self, x: float) -> float:
        i = self.piece_index(x)
        return self._slopes[i].item() * x + self._icepts[i].item()

    def piece_bounds(self, i: int) -> tuple[float, float]:
        lo = self.lo if i == 0 else self._starts[i].item()
        hi = self.hi if i == len(self._starts) - 1 else self._starts[i + 1].item()
        return lo, hi

    def __eq__(self, other):
        return (
            isinstance(other, PiecewiseFunction1D)
            and self.lo == other.lo
            and self.hi == other.hi
            and np.array_equal(self._starts, other._starts)
            and np.array_equal(self._slopes, other._slopes)
            and np.array_equal(self._icepts, other._icepts)
            and self._tags == other._tags
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
            "breakpoints": self._starts[1:].tolist(),
            "pieces": self._piece_dicts(slice(None)),
        }

    def _piece_dicts(self, part: slice) -> list[dict]:
        rows = zip(self._slopes[part].tolist(), self._icepts[part].tolist(), self._tag_run(part))
        return [{"slope": s, "intercept": c, "tag": t} for s, c, t in rows]

    def json_chunks(self, extra: dict | None = None):
        """``json.dumps`` of ``to_dict()``, updated with ``extra``, as a run of strings.

        The first string holds the breakpoints and the first ``_JSON_CHUNK``
        pieces, each later one the next ``_JSON_CHUNK`` pieces, so writing
        them one by one never holds more piece dicts than that, nor the whole
        text; a function of up to ``_JSON_CHUNK`` pieces is one ``json.dumps``.
        ``extra``'s keys must be new ones; they follow ``pieces``, as
        ``dict.update`` puts them.
        """
        n = len(self._slopes)
        first = {"lo": self.lo, "hi": self.hi, "breakpoints": self._starts[1:].tolist(),
                 "pieces": self._piece_dicts(slice(0, _JSON_CHUNK))}
        text = json.dumps(first)[:-2]  # less the "]}" that close the pieces and the object
        for k in range(_JSON_CHUNK, n, _JSON_CHUNK):
            yield text
            text = ", " + json.dumps(self._piece_dicts(slice(k, k + _JSON_CHUNK)))[1:-1]
        yield text + "]" + (", " + json.dumps(extra)[1:-1] if extra else "") + "}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewiseFunction1D":
        pieces = d["pieces"]
        return cls.from_arrays(
            d["lo"],
            d["hi"],
            d["breakpoints"],
            [p["slope"] for p in pieces],
            [p["intercept"] for p in pieces],
            [p.get("tag") for p in pieces],
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
        return cls(
            lo,
            hi,
            np.concatenate([f._starts for f in fns]),
            np.concatenate([f._slopes for f in fns]),
            np.concatenate([f._icepts for f in fns]),
        )

    def functions(self) -> list[PiecewiseFunction1D]:
        """One ``PiecewiseFunction1D`` per function of the batch (tags ``None``)."""
        heads = np.flatnonzero(self.starts == self.lo).tolist() + [len(self.starts)]
        a, s, c = self.starts, self.slopes, self.intercepts
        return [
            PiecewiseFunction1D.from_arrays(self.lo, self.hi, a[i + 1:j], s[i:j], c[i:j])
            for i, j in zip(heads, heads[1:])
        ]

    def canonical(self) -> "PiecewiseBatch":
        """Every function in the canonical form ``PiecewiseFunction1D`` gives it:
        the same kernel, on all functions at once."""
        lo, hi, a = self.lo, self.hi, self.starts
        ends = np.empty_like(a)
        ends[:-1] = a[1:]
        ends[:-1][a[1:] == lo] = hi  # a function's last piece ends at hi
        ends[-1] = hi
        starts, slopes, icepts, _ = _canonical(lo, hi, a, ends, self.slopes, self.intercepts)
        return PiecewiseBatch(lo, hi, starts, slopes, icepts)

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
        head = self.starts == lo
        event = np.flatnonzero(~head)  # pieces that begin at a breakpoint
        event = event[np.argsort(self.starts[event], kind="stable")]
        at = self.starts[event]
        starts = np.concatenate(([lo], at[:1], at[1:][at[1:] != at[:-1]]))  # each position once
        # the events at or before each start: the running sum after its last event
        cut = np.searchsorted(at, starts, side="right")
        n = np.count_nonzero(head)
        coefs = []
        for coef in (self.slopes, self.intercepts):
            steps = np.concatenate(([math.fsum(coef[head].tolist())], coef[event] - coef[event - 1]))
            coefs.append(np.add.accumulate(steps)[cut] / n)
        return PiecewiseBatch(lo, self.hi, starts, *coefs).canonical()

    def argmax(self, members: "PiecewiseBatch | None" = None) -> ArgmaxResult:
        """``argmax`` of the one function this batch holds.

        Candidates are each piece's closed start (and the domain's finite right
        end), plus, for a rising piece, the open right end as a limit.  The
        leftmost best candidate wins, and a limit only when it is strictly higher.

        ``members`` is the batch this one is the ``mean`` of (ERM).  Given it,
        every candidate within 1e-12 * max(1, |best|) of the best is scored
        again, by the ``math.fsum`` of the members' values there (left limits
        for a limit) over their number.  The leftmost candidate of the best
        score wins, at one point the attained value before the limit, so an
        exact tie goes to the leftmost maximizer even where the running sums
        of ``mean`` round it apart.  The value returned is this batch's.
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
        rising = np.flatnonzero(s[:-1] > 0)
        lim_x = a[rising + 1]
        lim_v = s[rising] * lim_x + c[rising]

        i = _leftmost_max(vs)
        j = _leftmost_max(np.concatenate(([NEG_INF], lim_v))) - 1
        if members is not None:
            best = float(max(vs[i], lim_v[j]) if j >= 0 else vs[i])
            floor = best - 1e-12 * max(1.0, abs(best))
            near, near_lim = vs >= floor, lim_v >= floor
            cands = [*zip(xs[near].tolist(), repeat(False), vs[near].tolist()),
                     *zip(lim_x[near_lim].tolist(), repeat(True), lim_v[near_lim].tolist())]
            if len(cands) > 1:
                scores = [members._fsum_mean(x, limit) for x, limit, _ in cands]
                top = max(scores)
                x, limit, v = min(cand for cand, score in zip(cands, scores) if score == top)
                return ArgmaxResult(x, v, limit)
        if j >= 0 and lim_v[j] > vs[i]:
            return ArgmaxResult(float(lim_x[j]), float(lim_v[j]), True)
        return ArgmaxResult(float(xs[i]), float(vs[i]), False)

    def _fsum_mean(self, x: float, limit: bool) -> float:
        """``math.fsum`` of the functions' values at ``x`` (left limits if ``limit``) over their number."""
        heads = np.flatnonzero(self.starts == self.lo)
        if x == NEG_INF:
            return math.fsum(self.intercepts[heads].tolist()) / len(heads)
        left = self.starts < x if limit else self.starts <= x
        k = heads + np.add.reduceat(left, heads, dtype=np.intp) - 1
        return math.fsum((self.slopes[k] * x + self.intercepts[k]).tolist()) / len(heads)


def count_oscillations(fn: PiecewiseFunction1D, z: float) -> int:
    """Number of discontinuities of ``x -> 1{fn(x) >= z}`` over the domain.

    Crossings interior to linear pieces are counted, including degenerate
    one-point touches at piece boundaries.  One pass over the pieces: each
    gets the indicator's value at its start and just before its end, and a
    change within a piece or across a breakpoint counts.  ``ValueError`` for
    a NaN ``z``, against which no comparison holds.
    """
    if math.isnan(z):
        raise ValueError("z must not be NaN")
    a, s, c = fn._starts, fn._slopes, fn._icepts
    b = np.append(a[1:], fn.hi)
    flat, rising = s == 0, s > 0
    x = (z - c) / np.where(flat, 1.0, s)  # a sloped piece's line meets z at x
    # rising: at or above z on [x, inf); falling: on (-inf, x]
    start = np.where(flat, c >= z, np.where(rising, x <= a, x >= a))
    end = np.where(flat, c >= z, np.where(rising, x < b, x >= b))
    if rising[-1] and x[-1] == fn.hi < POS_INF:
        end[-1] = True  # the last piece touches z at its closed end
    return int(np.count_nonzero(start != end) + np.count_nonzero(start[1:] != end[:-1]))


def check_power(bases: Sequence[float], rho: float, name: str) -> None:
    """Reject a non-finite rho, and rho where some base ** rho is not a positive finite float.

    Families that discount by a power of a size, degree or span call this
    before a solve or a decomposition.  base ** rho is monotone in base and in
    rho, so the extreme bases at the largest rho decide.  rho itself is
    checked first, since 1.0 ** rho is 1.0 even for a NaN or infinite rho.
    """
    if not math.isfinite(rho):
        raise ValueError(f"rho={rho!r} must be finite")
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
    _, ends, values = zip(*found)
    return PiecewiseFunction1D.from_arrays(lo, hi, ends[:-1], np.zeros(len(found)), values)


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
    starts, _, lines = zip(*found)
    return PiecewiseFunction1D.from_arrays(lo, hi, starts[1:], *zip(*lines))


def refine_constant(
    fn: PiecewiseFunction1D, evaluator: Callable[[list[float]], Sequence[float]]
) -> PiecewiseFunction1D:
    """Piecewise-constant function taking the evaluator's value at each piece's midpoint.

    ``evaluator(xs)`` gets the midpoints of all pieces of ``fn`` in one call
    and returns one value per point.  Adjacent equal values merge; used to
    turn an objective envelope into the piecewise-constant utility it induces.
    """
    starts = fn._starts.tolist()
    values = evaluator([0.5 * (a + b) for a, b in zip(starts, starts[1:] + [fn.hi])])
    return PiecewiseFunction1D.from_arrays(fn.lo, fn.hi, fn._starts[1:], np.zeros(len(starts)), values)
