"""Frozen copy of the grid-scan ``bounds.exp_sum_roots`` that the certified
isolator replaced: a sign scan on 64 * t points, bisection, and a root-count
cap reported through ``with_cap_flag``.  Kept verbatim as an oracle for
``tests/test_exp_sum_isolator.py``: every root it finds must still be found.
"""

from __future__ import annotations

import math
from typing import Sequence


def _exp_sum(terms, x):
    total = 0.0
    for a, b in terms:
        e = -x * math.log(b)
        if e > 700.0:  # avoid overflow; the term dwarfs everything anyway
            e = 700.0
        total += a * math.exp(e)
    return total


def exp_sum_roots(
    terms: Sequence[tuple[float, float]],
    lo: float,
    hi: float,
    tol: float,
    with_cap_flag: bool = False,
):
    """Roots of h(x) = sum_i a_i / b_i^x inside [lo, hi], each within ``tol``.

    Sign scan on a grid of resolution (hi-lo)/(64*t) followed by bisection.
    The count is capped at t = len(terms) (Rolle-type bound for exponential
    sums); tangential roots invisible to the scan can be missed.
    """
    t = len(terms)
    if lo >= hi or tol <= 0:
        raise ValueError("need lo < hi and tol > 0")
    for _, b in terms:
        if b <= 0:
            raise ValueError("all bases must be positive")
    if t == 0 or all(a == 0 for a, _ in terms):
        return ([], False) if with_cap_flag else []

    steps = 64 * t
    h = (hi - lo) / steps
    xs = [lo + i * h for i in range(steps)] + [hi]
    vals = [_exp_sum(terms, x) for x in xs]

    roots = []
    for i in range(steps):
        x0, x1 = xs[i], xs[i + 1]
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(x0)
            continue
        if v0 * v1 < 0.0:
            a_, b_ = x0, x1
            va = v0
            while b_ - a_ > tol:
                m = 0.5 * (a_ + b_)
                vm = _exp_sum(terms, m)
                if vm == 0.0:
                    a_ = b_ = m
                    break
                if va * vm < 0.0:
                    b_ = m
                else:
                    a_, va = m, vm
            roots.append(0.5 * (a_ + b_))
    if vals[-1] == 0.0:
        roots.append(hi)

    deduped = []
    for r in roots:
        if not deduped or r - deduped[-1] > tol:
            deduped.append(r)
    cap_hit = len(deduped) > t
    if cap_hit:
        deduped = deduped[:t]
    return (deduped, cap_hit) if with_cap_flag else deduped
