"""Frozen recursive progressive MSA: the test oracle for ``seqalign.progressive_align``.

This is the one-pair-at-a-time, bottom-up recursion and the ``Counter``-per-
column ``consensus`` that the level-batched ``progressive_align`` and the
counting ``consensus`` replaced, kept verbatim so the tests can require
identical rows.  Its pairwise step is the frozen row-by-row aligner of
``gotoh_reference``, so the oracle shares no DP code with ``src/``.  It is a
reference only; nothing under ``src/`` imports it.
"""

from collections import Counter
from typing import Sequence as Seq

from gotoh_reference import affine_align

from algotune.seqalign import GAP, AffineParams, Alignment, GuideTree, Sequence


def consensus(a: Alignment) -> Sequence:
    """Per-column most-frequent non-gap symbol; ties break lexicographically."""
    chars = []
    for j in range(a.n_columns):
        counts = Counter(r[j] for r in a.rows if r[j] != GAP)
        top = max(counts.values())
        chars.append(min(c for c, k in counts.items() if k == top))
    return Sequence(chars, id="consensus")


def progressive_align(
    seqs: Seq[Sequence], tree: GuideTree, p: AffineParams
) -> Alignment:
    """Progressive MSA over a guide tree using consensus sequences.

    Bottom-up, each internal node pairwise-aligns its children's consensus
    sequences and stores its own consensus; top-down, gap columns are pushed
    into the children's alignment sequences ("once a gap, always a gap").
    """
    by_id = {s.id: s for s in seqs}
    labels = tree.leaf_labels()
    if len(by_id) != len(seqs):
        raise ValueError("sequence ids must be unique")
    if sorted(labels) != sorted(by_id):
        raise ValueError("guide-tree leaves do not match the sequence ids")

    cons: dict[int, Sequence] = {}
    pair: dict[int, Alignment] = {}

    def up(node):
        if node.is_leaf:
            cons[id(node)] = by_id[node.label]
            return
        up(node.left)
        up(node.right)
        aln, _, _ = affine_align(cons[id(node.left)], cons[id(node.right)], p)
        pair[id(node)] = aln
        cons[id(node)] = consensus(aln)

    up(tree.root)

    sigma: dict[int, tuple[str, ...]] = {id(tree.root): cons[id(tree.root)].chars}
    rows: dict[str, tuple[str, ...]] = {}

    def down(node):
        if node.is_leaf:
            rows[node.label] = sigma[id(node)]
            return
        tau1, tau2 = pair[id(node)].rows
        out1, out2 = [], []
        k = 0
        for c in sigma[id(node)]:
            if c == GAP:
                out1.append(GAP)
                out2.append(GAP)
            else:
                out1.append(tau1[k])
                out2.append(tau2[k])
                k += 1
        sigma[id(node.left)] = tuple(out1)
        sigma[id(node.right)] = tuple(out2)
        down(node.left)
        down(node.right)

    down(tree.root)
    return Alignment(rows[s.id] for s in seqs)
