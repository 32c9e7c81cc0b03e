"""Frozen depth-first line sweep and refinement: the oracles for ``piecewise``.

``sweep_linear`` is the explicit-stack Eisner–Severance ray search with one
``solve(x)`` call per probe point, and ``refine_constant`` calls its
evaluator once per piece midpoint.  The live kernels solve a whole round of
probe points, or all midpoints, in one call; they are kept verbatim here so
the tests can require equal functions.  This is a reference only; nothing
under ``src/`` imports it.
"""

from typing import Callable

from algotune.piecewise import PiecewiseFunction1D


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
