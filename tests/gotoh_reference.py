"""Frozen pure-Python Gotoh aligner: the test oracle for ``seqalign.affine_align``.

This is the cell-by-cell, row-by-row dynamic program with three float tables
and three list-of-lists traceback tables that ``affine_align`` replaced, kept
verbatim so the tests can require identical rows, features and objectives.
It is a reference only; nothing under ``src/`` imports it.
"""

from algotune.seqalign import (
    GAP,
    NEG,
    AffineParams,
    Alignment,
    AlignmentFeatures,
    Sequence,
    objective,
)
from alignment_oracle import pairwise_features

# DP states: 0 = diagonal, 1 = gap in row 2 (consumes s1), 2 = gap in row 1.
_D, _P, _Q = 0, 1, 2


def affine_align(
    s1: Sequence, s2: Sequence, p: AffineParams, max_len: int = 10_000
) -> tuple[Alignment, AlignmentFeatures, float]:
    """Optimal affine-gap alignment of two sequences.

    Deterministic traceback: at equal score prefer the diagonal move, then a
    gap in row 2, then a gap in row 1, both for the final state and for every
    predecessor choice.
    """
    n, m = len(s1), len(s2)
    if n == 0 or m == 0:
        raise ValueError("sequences must be nonempty")
    if n > max_len or m > max_len:
        raise ValueError(f"sequence longer than configured max {max_len}")

    open_pen = p.rho2 + p.rho3
    ext_pen = p.rho2

    D = [[NEG] * (m + 1) for _ in range(n + 1)]
    P = [[NEG] * (m + 1) for _ in range(n + 1)]
    Q = [[NEG] * (m + 1) for _ in range(n + 1)]
    # back[state][i][j] = predecessor state
    back = [[[0] * (m + 1) for _ in range(n + 1)] for _ in range(3)]

    D[0][0] = 0.0
    for i in range(1, n + 1):
        P[i][0] = -(open_pen + (i - 1) * ext_pen)
        back[_P][i][0] = _D if i == 1 else _P
    for j in range(1, m + 1):
        Q[0][j] = -(open_pen + (j - 1) * ext_pen)
        back[_Q][0][j] = _D if j == 1 else _Q

    for i in range(1, n + 1):
        ci = s1[i - 1]
        Di_1, Pi_1, Qi_1 = D[i - 1], P[i - 1], Q[i - 1]
        Di, Pi, Qi = D[i], P[i], Q[i]
        bD, bP, bQ = back[_D][i], back[_P][i], back[_Q][i]
        for j in range(1, m + 1):
            sub = 1.0 if ci == s2[j - 1] else -p.rho1
            # diagonal: predecessor priority D > P > Q
            a, b, c = Di_1[j - 1], Pi_1[j - 1], Qi_1[j - 1]
            best = max(a, b, c)
            Di[j] = best + sub
            bD[j] = _D if a == best else (_P if b == best else _Q)
            # gap in row 2 (consume s1): extends P, opens from D or Q
            a, b, c = Di_1[j] - open_pen, Pi_1[j] - ext_pen, Qi_1[j] - open_pen
            best = max(a, b, c)
            Pi[j] = best
            bP[j] = _D if a == best else (_P if b == best else _Q)
            # gap in row 1 (consume s2)
            a, b, c = Di[j - 1] - open_pen, Pi[j - 1] - open_pen, Qi[j - 1] - ext_pen
            best = max(a, b, c)
            Qi[j] = best
            bQ[j] = _D if a == best else (_P if b == best else _Q)

    finals = (D[n][m], P[n][m], Q[n][m])
    best = max(finals)
    state = finals.index(best)  # index() returns the first, i.e. D > P > Q

    r1, r2 = [], []
    i, j = n, m
    while i > 0 or j > 0:
        prev = back[state][i][j]
        if state == _D:
            r1.append(s1[i - 1])
            r2.append(s2[j - 1])
            i -= 1
            j -= 1
        elif state == _P:
            r1.append(s1[i - 1])
            r2.append(GAP)
            i -= 1
        else:
            r1.append(GAP)
            r2.append(s2[j - 1])
            j -= 1
        state = prev
    aln = Alignment((reversed(r1), reversed(r2)))
    feats = pairwise_features(aln)
    return aln, feats, objective(feats, p)
