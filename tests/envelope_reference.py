"""Frozen pairwise-cut upper envelope: the test oracle for ``piecewise.upper_envelope``.

This is the O(L^3) envelope that ``sweep_linear`` replaced: it collects every
pairwise crossing of the lines, then takes the max over all lines in every
cell.  It is kept verbatim so the tests can require equal pieces and
breakpoints.  It is a reference only; nothing under ``src/`` imports it.
"""

import math
from typing import Sequence

from algotune.piecewise import EPS_CMP, Line1D, PiecewiseFunction1D


def upper_envelope(lines: Sequence[Line1D], lo: float, hi: float) -> PiecewiseFunction1D:
    """Pointwise maximum of ``lines`` over ``[lo, hi]``.

    Each piece's tag names a line attaining the max on that piece.  At an
    isolated tie point the right-adjacent piece's line wins (half-open
    convention); on a tie interval the lowest tag wins.
    """
    if not lines:
        raise ValueError("no candidates")
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("need a bounded domain with lo < hi")

    cuts = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b = lines[i], lines[j]
            if a.slope == b.slope:
                continue
            x = (b.intercept - a.intercept) / (a.slope - b.slope)
            if lo < x < hi:
                cuts.add(x)
    xs = sorted(cuts)
    # Coalesce cuts within EPS_CMP of each other or of the domain ends.
    cells = [lo]
    for x in xs:
        if x - cells[-1] >= EPS_CMP and hi - x >= EPS_CMP:
            cells.append(x)
    cells.append(hi)

    bps, pieces = [], []
    for left, right in zip(cells, cells[1:]):
        mid = 0.5 * (left + right)
        best = max(ln.value(mid) for ln in lines)
        winner = min(
            (ln for ln in lines if ln.value(mid) == best), key=lambda ln: ln.tag
        )
        if pieces:
            bps.append(left)
        pieces.append((winner.slope, winner.intercept, winner.tag))
    return PiecewiseFunction1D(lo, hi, bps, pieces)
