"""Frozen one-step scans of the two pseudo-dimension solvers in ``bounds``.

They increment N from 1 until the defining inequality first fails, so their
run time grows with the answer.  ``bounds`` solves the same inequalities by
doubling and bisection; the tests require equal answers on grids.  This is a
reference only; nothing under ``src/`` imports it.
"""

import math

LN2 = math.log(2.0)


def pdim_from_counting(vc: int, pd: int, k: int) -> int:
    """Largest N with 2^N <= (e*k*N)^vc * (e*N)^pd, scanned one N at a time."""
    if vc == 0 and pd == 0:
        return 0
    n = 0
    cand = 1
    while True:
        rhs = vc * (1.0 + math.log(k) + math.log(cand)) + pd * (1.0 + math.log(cand))
        if cand * LN2 <= rhs:
            n = cand
            cand += 1
        else:
            return n


def pdim_from_oscillations(B: int) -> int:
    """Largest N with 2^N <= B*N + 1, scanned one N at a time."""
    n = 0
    cand = 1
    while 2**cand <= B * cand + 1:
        n = cand
        cand += 1
    return n
