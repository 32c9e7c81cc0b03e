"""Frozen recursive TAD decomposition: the test oracle for ``tad.rho_decomposition``.

This is the recursive parametric search that the explicit-stack sweep
replaced: where the end sets differ it isolates the roots of their difference
to ``tol`` and recurses, bisecting at the midpoint when no root lies inside,
down to a width of ``max(tol * 1e-3, 1e-13)`` or a depth of 60.  It is kept
verbatim so the tests can require the same optimal-set sequences, nearby
breakpoints and values within ``tol``; only its ``min_length`` pass-through,
which ``tad_optimize`` no longer takes, is gone.  It is a reference only;
nothing under ``src/`` imports it.
"""

from algotune.bounds import exp_sum_roots
from algotune.piecewise import PiecewiseFunction1D
from algotune.tad import TadDecomposition, TadSet, TadWeights, tad_objective, tad_optimize


def rho_decomposition(w: TadWeights, rho_hi: float, tol: float) -> TadDecomposition:
    """Parameter decomposition of the optimal TAD objective on [0, rho_hi].

    Recursive parametric search: optimize at interval endpoints; where the
    optimal sets differ, isolate sign changes of their objective difference
    (an exponential sum) within ``tol`` and recurse.  Within a piece the
    smooth objective is approximated by chords, subdividing until sampled
    deviation is below ``tol``, so piece values track the true optimum and
    adjacent pieces agree at breakpoints.
    """
    if rho_hi <= 0 or tol <= 0:
        raise ValueError("need rho_hi > 0 and tol > 0")

    sets: list[TadSet] = []
    set_index: dict[TadSet, int] = {}
    segments: list[tuple[float, float, float, float, int]] = []  # lo, hi, g(lo), g(hi), tag
    warned = False

    def tag_of(t: TadSet) -> int:
        if t not in set_index:
            set_index[t] = len(sets)
            sets.append(t)
        return set_index[t]

    def emit_chords(lo, hi, t: TadSet, vlo, vhi, depth):
        # subdivide until the chord matches the true objective at 1/4, 1/2, 3/4
        if hi - lo > 1e-12 and depth < 40:
            slope = (vhi - vlo) / (hi - lo)
            for frac in (0.25, 0.5, 0.75):
                x = lo + frac * (hi - lo)
                truth = tad_objective(w, t, x)
                if abs(vlo + slope * (x - lo) - truth) > tol:
                    mid = 0.5 * (lo + hi)
                    vm = tad_objective(w, t, mid)
                    emit_chords(lo, mid, t, vlo, vm, depth + 1)
                    emit_chords(mid, hi, t, vm, vhi, depth + 1)
                    return
        segments.append((lo, hi, vlo, vhi, tag_of(t)))

    def rec(lo, hi, t_lo, t_hi, depth):
        nonlocal warned
        if hi - lo <= max(tol * 1e-3, 1e-13) or depth >= 60:
            if depth >= 60:
                warned = True
            emit_chords(lo, hi, t_lo, tad_objective(w, t_lo, lo), tad_objective(w, t_lo, hi), 0)
            return
        if t_lo == t_hi:
            # guard against a different set winning strictly inside (the
            # difference may cross zero twice); one mid probe catches it
            mid = 0.5 * (lo + hi)
            t_mid, v_mid = tad_optimize(w, mid)
            if t_mid != t_lo and v_mid > tad_objective(w, t_lo, mid) + max(tol * 1e-3, 1e-12):
                rec(lo, mid, t_lo, t_mid, depth + 1)
                rec(mid, hi, t_mid, t_hi, depth + 1)
                return
            emit_chords(lo, hi, t_lo, tad_objective(w, t_lo, lo), tad_objective(w, t_lo, hi), 0)
            return
        in_lo = set(t_lo.intervals)
        in_hi = set(t_hi.intervals)
        terms = [(w.c[i][j], float(j - i)) for i, j in in_lo - in_hi]
        terms += [(-w.c[i][j], float(j - i)) for i, j in in_hi - in_lo]
        roots, cap = exp_sum_roots(terms, lo, hi, tol), False
        warned = warned or cap
        margin = max(tol, (hi - lo) * 1e-9)
        roots = [r for r in roots if lo + margin < r < hi - margin]
        if not roots:
            cuts = [0.5 * (lo + hi)]
        else:
            cuts = roots
        edges = [lo] + cuts + [hi]
        opts = [t_lo] + [tad_optimize(w, x)[0] for x in cuts] + [t_hi]
        for (a, b), (ta, tb) in zip(zip(edges, edges[1:]), zip(opts, opts[1:])):
            rec(a, b, ta, tb, depth + 1)

    t0 = tad_optimize(w, 0.0)[0]
    t1 = tad_optimize(w, float(rho_hi))[0]
    rec(0.0, float(rho_hi), t0, t1, 0)

    segments.sort(key=lambda s: s[0])
    bps = [s[0] for s in segments[1:]]
    pieces = []
    for lo, hi, vlo, vhi, tag in segments:
        slope = (vhi - vlo) / (hi - lo)
        pieces.append((slope, vlo - slope * lo, tag))
    fn = PiecewiseFunction1D(0.0, float(rho_hi), bps, pieces)
    return TadDecomposition(fn, sets, warned)
