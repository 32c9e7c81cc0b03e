"""Frozen dict-based folding DP: the test oracle for ``rnafold.fold`` and ``rho_breakpoints``.

``fold`` carries a sorted pair tuple through every cell and picks by
(value, fewest pairs, smallest tuple); ``rho_breakpoints`` builds its envelope
from the size-indexed ``max_stack_by_size`` and ``upper_envelope``.  They are
kept verbatim so the tests can require the span-vectorized kernel to return
the same ``Folding``, bit-identical objectives and equal envelopes.  This is a
reference only; nothing under ``src/`` imports it.
"""

import math
from typing import Sequence

from algotune.piecewise import Line1D, PiecewiseFunction1D, sweep_linear
from algotune.rnafold import MIN_SEP, Folding, RnaSequence, StackScores


def fold(s: RnaSequence, rho: float, m: StackScores) -> tuple[Folding, float]:
    """Optimal folding for one rho in [0, 1].

    Interval DP with best / best-given-endpoints-paired tables so that
    stacking credit lands exactly when adjacent nesting occurs.  Among
    co-optimal foldings the DP prefers fewer pairs, then the
    lexicographically smallest pair tuple (applied at every cell).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    n = len(s)
    if n < 1:
        raise ValueError("sequence must be nonempty")
    stackf = 1.0 - rho

    empty = (0.0, ())

    def pick(cands):
        # maximize value; then fewest pairs; then lexicographically smallest
        return min(cands, key=lambda c: (-c[0], len(c[1]), c[1]))

    # paired[(i, j)]: (i, j) in phi; value includes rho for (i, j) and all
    # interior credits but not (i, j)'s own credit (owned by the enclosing pair).
    paired: dict[tuple[int, int], tuple[float, tuple]] = {}
    notp: dict[tuple[int, int], tuple[float, tuple]] = {}
    best: dict[tuple[int, int], tuple[float, tuple]] = {}

    def get_best(i, j):
        return best[(i, j)] if i <= j else empty

    for span in range(0, n):
        for i in range(1, n - span + 1):
            j = i + span
            if span >= MIN_SEP:
                inner: list[tuple[float, tuple]] = []
                iv, ip = notp[(i + 1, j - 1)] if span - 2 >= 0 else empty
                inner.append((iv, ip))
                if span - 2 >= MIN_SEP:
                    pv, pp = paired[(i + 1, j - 1)]
                    credit = stackf * m.get(s[i], s[j - 2], s[i - 1], s[j - 1])
                    inner.append((pv + credit, pp))
                v, ps = pick(inner)
                paired[(i, j)] = (v + rho, tuple(sorted(ps + ((i, j),))))

            cands = [get_best(i, j - 1)]  # j unpaired
            for t in range(i + 1, j - MIN_SEP + 1):
                lv, lp = get_best(i, t - 1)
                rv, rp = paired[(t, j)]
                cands.append((lv + rv, tuple(sorted(lp + rp))))
            notp[(i, j)] = pick(cands)
            if (i, j) in paired:
                best[(i, j)] = pick([notp[(i, j)], paired[(i, j)]])
            else:
                best[(i, j)] = notp[(i, j)]

    value, pairs = best[(1, n)]
    return Folding(pairs), value


def max_stack_by_size(s: RnaSequence, m: StackScores) -> list[tuple[int, float]]:
    """For each achievable pair count k, the maximum stacking score over foldings.

    Size-indexed variant of the folding DP; unreachable k are omitted and
    k = 0 always yields stacking 0.
    """
    n = len(s)
    if n < 1:
        raise ValueError("sequence must be nonempty")

    empty = {0: 0.0}

    def merge(dst, k, v):
        if k not in dst or v > dst[k]:
            dst[k] = v

    paired: dict[tuple[int, int], dict[int, float]] = {}
    notp: dict[tuple[int, int], dict[int, float]] = {}
    best: dict[tuple[int, int], dict[int, float]] = {}

    def get_best(i, j):
        return best[(i, j)] if i <= j else empty

    for span in range(0, n):
        for i in range(1, n - span + 1):
            j = i + span
            if span >= MIN_SEP:
                acc: dict[int, float] = {}
                base = notp[(i + 1, j - 1)] if span - 2 >= 0 else empty
                for k, v in base.items():
                    merge(acc, k + 1, v)
                if span - 2 >= MIN_SEP:
                    credit = m.get(s[i], s[j - 2], s[i - 1], s[j - 1])
                    for k, v in paired[(i + 1, j - 1)].items():
                        merge(acc, k + 1, v + credit)
                paired[(i, j)] = acc

            accn = dict(get_best(i, j - 1))
            for t in range(i + 1, j - MIN_SEP + 1):
                left = get_best(i, t - 1)
                for kr, vr in paired[(t, j)].items():
                    for kl, vl in left.items():
                        merge(accn, kl + kr, vl + vr)
            notp[(i, j)] = accn
            if (i, j) in paired:
                out = dict(accn)
                for k, v in paired[(i, j)].items():
                    merge(out, k, v)
                best[(i, j)] = out
            else:
                best[(i, j)] = accn

    return sorted(best[(1, n)].items())


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

    def solve(x):
        best = max(lines, key=lambda ln: (ln.value(x), ln.slope, -ln.tag))
        return best.slope, best.intercept, best.tag

    return sweep_linear(solve, lo, hi)


def rho_breakpoints(s: RnaSequence, m: StackScores) -> PiecewiseFunction1D:
    """Exact envelope of the folding objective over rho in [0, 1].

    One line per achievable pair count k: slope k - stack_k, intercept
    stack_k, tag k.  Piece count is at most floor(n/2) + 1.
    """
    lines = [
        Line1D(slope=k - stack, intercept=stack, tag=k)
        for k, stack in max_stack_by_size(s, m)
    ]
    return upper_envelope(lines, 0.0, 1.0)
