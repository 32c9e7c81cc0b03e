"""Brute-force enumeration of pairwise alignments: a test oracle for ``seqalign``.

Every way to interleave matches and indels of two short sequences, used to
check the aligner's optimum and the indel decomposition's envelope.  It is a
reference only; nothing under ``src/`` imports it.
"""

from algotune.seqalign import GAP, Alignment, Sequence


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
