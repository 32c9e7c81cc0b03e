"""The batched Gotoh sweep and the level-batched progressive MSA against the
frozen oracles: ``gotoh_reference`` pair by pair, ``msa_reference`` for whole
alignments and for ``consensus``."""

import tracemalloc

import numpy as np
import pytest

import msa_reference
from gotoh_reference import affine_align as reference_align

from algotune import seqalign
from algotune.seqalign import (
    MAX_LEN,
    AffineParams,
    Alignment,
    GuideTree,
    Sequence,
    align_batch,
    consensus,
    progressive_align,
)

ALPHABETS = ("AB", "ACGT")


def penalties(rng, k):
    """Zero, small-integer and uniform penalties in turn."""
    if k % 3 == 0:
        return AffineParams()
    if k % 3 == 1:
        return AffineParams(*(float(x) for x in rng.integers(0, 3, size=3)))
    return AffineParams(*rng.uniform(0, 2, size=3))


def random_seq(rng, alphabet, lo, hi, id=""):
    return Sequence(rng.choice(list(alphabet), size=int(rng.integers(lo, hi + 1))), id=id)


def test_batch_matches_reference_pair_by_pair():
    rng = np.random.default_rng(11)
    pairs_seen = 0
    for k in range(90):
        alphabet = ALPHABETS[k % 2]
        batch = [(random_seq(rng, alphabet, 1, 40), random_seq(rng, alphabet, 1, 40))
                 for _ in range(int(rng.integers(1, 9)))]
        p = penalties(rng, k)
        got = align_batch(batch, [p] * len(batch))
        assert len(got) == len(batch)
        for (s1, s2), (aln, feats, obj) in zip(batch, got):
            want = reference_align(s1, s2, p)
            assert aln.rows == want[0].rows, (s1, s2, p)
            assert feats == want[1] and obj == want[2], (s1, s2, p)
            pairs_seen += 1
    assert pairs_seen >= 300


def test_batch_pairs_of_very_different_shapes():
    # one pair's last diagonal comes long before the batch's last one
    rng = np.random.default_rng(12)
    for alphabet in ALPHABETS:
        batch = [(random_seq(rng, alphabet, 1, 1), random_seq(rng, alphabet, 40, 40)),
                 (random_seq(rng, alphabet, 40, 40), random_seq(rng, alphabet, 1, 1)),
                 (random_seq(rng, alphabet, 1, 1), random_seq(rng, alphabet, 1, 1)),
                 (random_seq(rng, alphabet, 35, 40), random_seq(rng, alphabet, 35, 40))]
        for p in (AffineParams(), AffineParams(1.0, 2.0, 0.0), AffineParams(0.3, 0.2, 0.7)):
            for (s1, s2), got in zip(batch, align_batch(batch, [p] * len(batch))):
                want = reference_align(s1, s2, p)
                assert (got[0].rows, got[1], got[2]) == (want[0].rows, want[1], want[2])


def caterpillar(labels):
    node = GuideTree.Node(label=labels[0])
    for label in labels[1:]:
        node = GuideTree.Node(left=node, right=GuideTree.Node(label=label))
    return GuideTree(node)


def random_tree(rng, labels):
    nodes = [GuideTree.Node(label=label) for label in labels]
    while len(nodes) > 1:
        i, j = sorted(rng.choice(len(nodes), size=2, replace=False))
        right, left = nodes.pop(j), nodes.pop(i)
        nodes.append(GuideTree.Node(left=left, right=right))
    return GuideTree(nodes[0])


def test_progressive_matches_oracle_on_balanced_caterpillar_and_random_trees():
    rng = np.random.default_rng(13)
    for k in range(60):
        alphabet = ALPHABETS[k % 2]
        labels = [f"s{i}" for i in range(int(rng.integers(2, 11)))]
        seqs = [random_seq(rng, alphabet, 1, 14, id=label) for label in labels]
        order = list(rng.permutation(labels))
        tree = (GuideTree.balanced(order), caterpillar(order), random_tree(rng, order))[k % 3]
        p = penalties(rng, k // 3)
        want = msa_reference.progressive_align(seqs, tree, p)
        assert progressive_align(seqs, tree, p).rows == want.rows, (k, seqs, p)


def test_level_split_into_budget_chunks_gives_the_same_alignment(monkeypatch):
    rng = np.random.default_rng(14)
    labels = [f"s{i}" for i in range(16)]
    seqs = [random_seq(rng, "ACGT", 18, 24, id=label) for label in labels]
    tree = GuideTree.balanced(labels)
    p = AffineParams(0.5, 0.4, 0.2)
    want = progressive_align(seqs, tree, p)

    chunks = []
    sweep = seqalign._sweep

    def counted(pairs, params):
        chunks.append(len(pairs))
        return sweep(pairs, params)

    monkeypatch.setattr(seqalign, "_sweep", counted)
    # room for two 24 x 24 sweeps per chunk
    monkeypatch.setattr(seqalign, "SWEEP_BUDGET", 2 * seqalign._sweep_bytes(24, 24))
    assert progressive_align(seqs, tree, p).rows == want.rows
    assert sum(chunks) == 15
    assert max(chunks) <= 2 and len(chunks) >= 8  # the 8 leaf pairs alone take 4 sweeps
    assert want.rows == msa_reference.progressive_align(seqs, tree, p).rows


def test_batch_over_max_len_rejected_before_allocation():
    long = Sequence("A" * (MAX_LEN + 1))
    batch = [(Sequence("AC"), Sequence("A"))] * 3 + [(Sequence("A"), long)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"configured max {MAX_LEN}"):
            align_batch(batch, [AffineParams()] * len(batch))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_consensus_matches_frozen_copy_with_ties():
    rng = np.random.default_rng(15)
    ties = 0
    for k in range(300):
        alphabet = ("AB", "ACGT", ("a1", "a10", "b"))[k % 3]
        rows = rng.choice(list(alphabet) + ["-"], size=(int(rng.integers(1, 7)), int(rng.integers(1, 25))))
        for j in range(rows.shape[1]):
            if (rows[:, j] == "-").all():
                rows[0, j] = alphabet[0]
        aln = Alignment(rows.tolist())
        want = msa_reference.consensus(aln)
        assert consensus(aln).chars == want.chars and consensus(aln).id == want.id
        for col in zip(*aln.rows):
            counts = sorted((col.count(c) for c in set(col) - {"-"}), reverse=True)
            ties += len(counts) > 1 and counts[0] == counts[1]
    assert ties >= 100
