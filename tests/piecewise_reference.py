"""Frozen Python-loop ERM pieces: the oracle for the array kernel.

``average``, ``argmax`` and ``anonymous_reserve_dual`` are copied verbatim
from the last versions that looped over pieces in Python, and ``spa_erm_trial``
is the body of ``_SpaErmFamily.trial`` that built one dual per sample.  Tests
require the live code to return equal (``==``) functions and results.
"""

from __future__ import annotations

import math
from typing import Sequence

from algotune.learn import _trial_rng, spa_expected_revenue_anonymous
from algotune.piecewise import NEG_INF, POS_INF, ArgmaxResult, PiecewiseFunction1D


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
    """Parameter maximizing the average of per-instance duals (leftmost tie-break)."""
    if not duals:
        raise ValueError("need at least one dual")
    res = argmax(average(duals))
    return res.param, res.value


def spa_erm_trial(fam, n: int, t: int) -> float:
    """``_SpaErmFamily.trial`` of ``fam``, one dual object per sample."""
    rng = _trial_rng(fam.seed, t, n)
    w = fam.values
    sample = w[rng.integers(0, len(w), size=n)]
    duals = [anonymous_reserve_dual([float(v), 0.0]) for v in sample]
    rho_hat, train_value = erm(duals)
    return abs(train_value - spa_expected_revenue_anonymous(w, rho_hat))
