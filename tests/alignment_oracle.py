"""Brute-force alignment oracles for ``seqalign``: enumeration and features.

``enumerate_alignments`` lists every way to interleave matches and indels of
two short sequences, used to check the aligner's optimum and the indel
decomposition's envelope.  ``pairwise_features`` counts an alignment's
features column by column from its rows; ``seqalign`` counts them while it
traces an alignment back, and tests require the two to agree.  These are
references only; nothing under ``src/`` imports them.
"""

from itertools import groupby

from algotune.seqalign import GAP, Alignment, AlignmentFeatures, Sequence


def enumerate_alignments(s1: Sequence, s2: Sequence) -> list[Alignment]:
    """All alignments of two short sequences (brute-force oracle, length <= 6)."""
    n, m = len(s1), len(s2)
    if n == 0 or m == 0:
        raise ValueError("sequences must be nonempty")
    if n > 6 or m > 6:
        raise ValueError("oracle scale only")

    out: list[Alignment] = []

    def rec(i, j, r1, r2):
        if i == n and j == m:
            out.append(Alignment((tuple(r1), tuple(r2))))
            return
        if i < n and j < m:
            r1.append(s1[i])
            r2.append(s2[j])
            rec(i + 1, j + 1, r1, r2)
            r1.pop()
            r2.pop()
        if i < n:
            r1.append(s1[i])
            r2.append(GAP)
            rec(i + 1, j, r1, r2)
            r1.pop()
            r2.pop()
        if j < m:
            r1.append(GAP)
            r2.append(s2[j])
            rec(i, j + 1, r1, r2)
            r1.pop()
            r2.pop()

    rec(0, 0, [], [])
    return out


def pairwise_features(aln: Alignment) -> AlignmentFeatures:
    if len(aln.rows) != 2:
        raise ValueError("feature counts are defined for pairwise alignments")
    r1, r2 = aln.rows
    mt = ms = ind = 0
    for a, b in zip(r1, r2):
        if a == GAP or b == GAP:
            ind += 1
        elif a == b:
            mt += 1
        else:
            ms += 1
    gp = sum(sum(1 for k, g in groupby(row) if k == GAP) for row in aln.rows)
    return AlignmentFeatures(mt, ms, ind, gp)
