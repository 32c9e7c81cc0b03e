"""Frozen Python-loop piecewise code: the oracle for the array kernels.

``canonicalize`` is the body of the last ``PiecewiseFunction1D`` constructor
that canonicalized piece by piece.  ``average``, ``argmax`` and
``anonymous_reserve_dual`` are copied verbatim from the last versions that
looped over pieces in Python, and ``spa_erm_trial`` is the body of
``_SpaErmFamily.trial`` that built one dual per sample.  ``erm`` adds to
``argmax(average(duals))`` the exact re-scoring of near-tied candidates, one
candidate and one dual at a time.  ``count_oscillations`` is the last
version that branched piece by piece (it has no NaN check: a NaN ``z`` is
outside its contract).  Tests require the live code to return equal
(``==``) functions and results.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from algotune.learn import _trial_rng, spa_expected_revenue_anonymous
from algotune.piecewise import EPS_CMP, NEG_INF, POS_INF, ArgmaxResult, PiecewiseFunction1D


def canonicalize(lo, hi, breakpoints, pieces):
    """``(breakpoints, pieces)`` of ``PiecewiseFunction1D(lo, hi, breakpoints, pieces)``."""
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
    return merged_b, merged_p


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


def anonymous_reserve_dual(bids: Sequence[float], hi: float = 1.0) -> PiecewiseFunction1D:
    """Revenue of the anonymous SPA as a function of the reserve on [0, hi].

    Exact three-piece form: constant second-highest bid, then the identity,
    then zero once the reserve exceeds the highest bid.
    """
    bids = sorted(bids, reverse=True)
    if len(bids) < 2:
        raise ValueError("need at least two bidders")
    if hi <= 0:
        raise ValueError("hi must be positive")
    v1, v2 = float(bids[0]), float(bids[1])

    segments = [(0.0, v2, (0.0, v2)), (v2, v1, (1.0, 0.0)), (v1, hi, (0.0, 0.0))]
    bps, pieces = [], []
    for lo_, hi_, (s, c) in segments:
        lo_, hi_ = max(lo_, 0.0), min(hi_, hi)
        if hi_ <= lo_:
            continue
        if pieces:
            bps.append(lo_)
        pieces.append((s, c, None))
    if not pieces:  # all bids above the domain: the identity covers everything
        pieces = [(1.0, 0.0, None)]
    return PiecewiseFunction1D(0.0, hi, bps, pieces)


def erm(duals: Sequence[PiecewiseFunction1D]):
    """Parameter maximizing the average of per-instance duals (leftmost tie-break).

    ``argmax`` of the average, unless more candidates than one lie within
    1e-12 * max(1, |best|) of the best: then each is scored by the ``fsum`` of
    the duals' values there (left limits for a limit) over their number, and
    the leftmost of the best score wins, an attained value before a limit.
    """
    if not duals:
        raise ValueError("need at least one dual")
    avg = average(duals)
    res = argmax(avg)
    floor = res.value - 1e-12 * max(1.0, abs(res.value))
    cands = []  # (x, is a limit, value of the average)
    for i, (s, c, _) in enumerate(avg.pieces):
        a, b = avg.piece_bounds(i)
        if a != NEG_INF:
            cands.append((a, False, s * a + c))
        elif s == 0:
            cands.append((a, False, c))
        if i == len(avg.pieces) - 1:
            if b != POS_INF:
                cands.append((b, False, s * b + c))
        elif s > 0:
            cands.append((b, True, s * b + c))
    near = [cand for cand in cands if cand[2] >= floor]
    if len(near) < 2:
        return res.param, res.value

    def score(x, limit):
        values = []
        for f in duals:
            bps = list(f.breakpoints)
            if x == NEG_INF:
                values.append(f.pieces[0][1])
                continue
            s, c, _ = f.pieces[bisect_left(bps, x) if limit else bisect_right(bps, x)]
            values.append(s * x + c)
        return math.fsum(values) / len(duals)

    scores = [score(x, limit) for x, limit, _ in near]
    top = max(scores)
    x, limit, v = min(cand for cand, sc in zip(near, scores) if sc == top)
    return x, v


def spa_erm_trial(fam, n: int, t: int) -> float:
    """``_SpaErmFamily.trial`` of ``fam``, one dual object per sample."""
    rng = _trial_rng(fam.seed, t, n)
    w = fam.values
    sample = w[rng.integers(0, len(w), size=n)]
    duals = [anonymous_reserve_dual([float(v), 0.0]) for v in sample]
    rho_hat, train_value = erm(duals)
    return abs(train_value - spa_expected_revenue_anonymous(w, rho_hat))


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
