"""Frozen depth-first chord fit: the test oracle for ``tad.rho_decomposition``.

This is ``rho_decomposition`` as it was before the chord fit was batched in
numpy blocks: the same explicit-stack sweep over optimal sets, with
``emit_chords`` fitting one chord at a time, depth first and left half first,
through ``tad_objective``.  It is kept verbatim so the tests can require
byte-equal ``fn.to_json()`` and equal ``tad_sets`` from the batched fit.  It
is a reference only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math

from algotune.bounds import exp_sum_roots
from algotune.piecewise import PiecewiseFunction1D
from algotune.tad import TadDecomposition, TadSet, TadWeights, tad_objective, tad_optimize


def rho_decomposition(
    w: TadWeights, rho_hi: float, tol: float, min_length: int = 1
) -> TadDecomposition:
    """Parameter decomposition of the optimal TAD objective on [0, rho_hi].

    Explicit-stack sweep in the shape of ``piecewise.sweep_linear``; each
    interval carries the optimal sets at its ends.  Where they agree, one mid
    probe guards against a third set winning strictly inside.  Where they
    differ, the roots of their objective difference (an exponential sum) are
    isolated to ``max(tol * 1e-3, 1e-13)``, the x-precision that keeps values
    within ``tol`` beside a breakpoint; the optimum is probed at each interior
    root and the sub-intervals are searched in turn.  With no interior root
    the sets cross at an end, and the set higher at the midpoint holds the
    interval.  Each region's objective is approximated by chords, halved until
    they match it within ``tol`` at 1/4, 1/2 and 3/4; ``ValueError`` when
    ``tol`` is finer than 40 halvings (or a width of 1e-12) can resolve.
    ``cap_warning`` is set when ``exp_sum_roots`` hit its root-count cap.
    ``ValueError`` when (n - 1) ** rho_hi leaves the float range (every
    weight is then a finite double on the whole domain).
    """
    if not (math.isfinite(rho_hi) and rho_hi > 0):
        raise ValueError(f"rho_hi must be positive and finite, got {rho_hi!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    w.check_rho(rho_hi)

    sets: list[TadSet] = []
    set_index: dict[TadSet, int] = {}
    segments: list[tuple[float, float, float, float, int]] = []  # lo, hi, g(lo), g(hi), tag
    warned = False
    res = max(tol * 1e-3, 1e-13)

    def tag_of(t: TadSet) -> int:
        if t not in set_index:
            set_index[t] = len(sets)
            sets.append(t)
        return set_index[t]

    def emit_chords(lo, hi, t: TadSet, vlo, vhi):
        # subdivide until each chord matches the true objective at 1/4, 1/2, 3/4,
        # left half first.  An explicit stack, not recursion: a nested function
        # that calls itself is a reference cycle, which would keep ``segments``
        # alive after return until the cyclic garbage collector runs.
        stack = [(lo, hi, vlo, vhi, 0)]
        while stack:
            lo, hi, vlo, vhi, depth = stack.pop()
            slope = (vhi - vlo) / (hi - lo)
            for frac in (0.25, 0.5, 0.75):
                x = lo + frac * (hi - lo)
                if abs(vlo + slope * (x - lo) - tad_objective(w, t, x)) > tol:
                    if hi - lo <= 1e-12 or depth >= 40:
                        raise ValueError(f"tol={tol!r} is below what the chord fit can resolve: the "
                                         f"chord on [{lo!r}, {hi!r}] is still off by more than tol")
                    mid = 0.5 * (lo + hi)
                    vm = tad_objective(w, t, mid)
                    stack += [(mid, hi, vm, vhi, depth + 1), (lo, mid, vlo, vm, depth + 1)]
                    break
            else:
                segments.append((lo, hi, vlo, vhi, tag_of(t)))

    rho_hi = float(rho_hi)
    todo = [(0.0, rho_hi) + tuple(tad_optimize(w, x, min_length)[0] for x in (0.0, rho_hi))]
    while todo:
        a, b, t_a, t_b = todo.pop()
        mid = 0.5 * (a + b)
        if t_a == t_b:
            # the difference to another set may cross zero twice inside
            t_mid, v_mid = tad_optimize(w, mid, min_length)
            if t_mid != t_a and v_mid > tad_objective(w, t_a, mid) + max(tol * 1e-3, 1e-12):
                todo += [(mid, b, t_mid, t_b), (a, mid, t_a, t_mid)]
                continue
        else:
            in_a, in_b = set(t_a.intervals), set(t_b.intervals)
            terms = [(w.c[i][j], float(j - i)) for i, j in in_a - in_b]
            terms += [(-w.c[i][j], float(j - i)) for i, j in in_b - in_a]
            roots, cap = exp_sum_roots(terms, a, b, res), False
            warned = warned or cap
            roots = [r for r in roots if a + res < r < b - res]
            if roots:
                edges = [a] + roots + [b]
                opts = [t_a] + [tad_optimize(w, x, min_length)[0] for x in roots] + [t_b]
                todo += reversed(list(zip(edges, edges[1:], opts, opts[1:])))
                continue
            # the sets cross at an end: the one higher at the midpoint holds it
            if tad_objective(w, t_b, mid) > tad_objective(w, t_a, mid):
                t_a = t_b
        emit_chords(a, b, t_a, tad_objective(w, t_a, a), tad_objective(w, t_a, b))

    segments.sort(key=lambda s: s[0])
    bps = [s[0] for s in segments[1:]]
    pieces = []
    for lo, hi, vlo, vhi, tag in segments:
        slope = (vhi - vlo) / (hi - lo)
        pieces.append((slope, vlo - slope * lo, tag))
    fn = PiecewiseFunction1D(0.0, rho_hi, bps, pieces)
    return TadDecomposition(fn, sets, warned)
