"""The cell-major Gotoh sweep across its blocks of diagonals, and the glue
around it: ``align_batch`` against the frozen row-by-row oracle at block
edges and on lopsided shapes, the window-cell traceback and the chunk plan
that counts it with the block scratch, the one-pass node consensus of ``progressive_align`` against
the frozen ``consensus``, and the ``align_batch`` calls of
``progressive_align`` and ``lb_verify``."""

import tracemalloc

import numpy as np
import pytest

import msa_reference
from gotoh_reference import affine_align as reference_align
from test_msa_batch import random_tree

from algotune import seqalign
from algotune.bounds import verify_shattering
from algotune.seqalign import (
    _SUB_ROWS,
    AffineParams,
    GuideTree,
    Sequence,
    _sweep_bytes,
    _trace_bytes,
    align_batch,
    gen_lb_sequences,
    lb_verify,
    progressive_align,
    q_score,
)

TIE_RHOS = (0.0, 1 / 3, 2 / 7, 0.5, 1.0)
# largest n + m of a batch: a block of diagonals starts at d = 2, 66, 130, ...
EDGE_TOTALS = (63, 64, 65, 66, 67, 128, 129, 130, 131)


def edge_batch(rng, size, total):
    """``size`` pairs, the first of n + m = ``total``, the others shorter; some of length 1."""
    alphabet = list("AB" if size % 2 else "ACGT")
    lengths = []
    n1 = int(rng.integers(1, total))
    lengths.append((n1, total - n1))
    for k in range(1, size):
        if k % 4 == 1:
            lengths.append((1, int(rng.integers(1, total))))
        elif k % 4 == 2:
            lengths.append((int(rng.integers(1, total)), 1))
        else:
            n = int(rng.integers(1, total))
            lengths.append((n, int(rng.integers(1, total - n + 1))))
    return [(Sequence(rng.choice(alphabet, size=n)), Sequence(rng.choice(alphabet, size=m)))
            for n, m in lengths]


def edge_params(rng, size, tie_heavy):
    if tie_heavy:
        return [AffineParams(*(TIE_RHOS[int(i)] for i in rng.integers(0, len(TIE_RHOS), size=3)))
                for _ in range(size)]
    return [AffineParams(*rng.uniform(0, 2, size=3)) for _ in range(size)]


def test_block_edges_match_reference_pair_by_pair():
    assert _SUB_ROWS == 64  # EDGE_TOTALS are the block edges of 64 diagonals
    rng = np.random.default_rng(24)
    seen = set()
    with np.errstate(all="raise"):
        for size in range(1, 17):
            for tie_heavy in (True, False):
                total = EDGE_TOTALS[(2 * size + tie_heavy) % len(EDGE_TOTALS)]
                pairs = edge_batch(rng, size, total)
                params = edge_params(rng, size, tie_heavy)
                got = align_batch(pairs, params)
                assert len(got) == size
                for (s1, s2), p, (aln, feats, obj) in zip(pairs, params, got):
                    want = reference_align(s1, s2, p)
                    assert aln.rows == want[0].rows, (s1, s2, p)
                    assert feats == want[1] and obj == want[2], (s1, s2, p)
                seen.add(total)
    assert seen == set(EDGE_TOTALS)


def test_single_letter_pairs_match_reference():
    pairs = [(Sequence(a), Sequence(b)) for a in "AB" for b in "AB"]
    for p in (AffineParams(), AffineParams(1.0, 0.5, 0.0), AffineParams(0.3, 0.2, 0.7)):
        with np.errstate(all="raise"):
            got = align_batch(pairs, [p] * len(pairs))
        for (s1, s2), (aln, feats, obj) in zip(pairs, got):
            want = reference_align(s1, s2, p)
            assert (aln.rows, feats, obj) == (want[0].rows, want[1], want[2])


def test_empty_batch():
    assert align_batch([], []) == []
    with pytest.raises(ValueError, match="one AffineParams per pair"):
        align_batch([], [AffineParams()])
    with pytest.raises(ValueError, match="one AffineParams per pair"):
        align_batch([(Sequence("A"), Sequence("A"))], [])


SKINNY = ((300, 1), (1, 300), (200, 7), (7, 200), (64, 1), (1, 65))


def random_pair(rng, n, m, alphabet="ACGT"):
    return Sequence(rng.choice(list(alphabet), size=n)), Sequence(rng.choice(list(alphabet), size=m))


def assert_matches_reference(pairs, params):
    with np.errstate(all="raise"):
        got = align_batch(pairs, params)
    assert len(got) == len(pairs)
    for (s1, s2), p, (aln, feats, obj) in zip(pairs, params, got):
        want = reference_align(s1, s2, p)
        assert (aln.rows, feats, obj) == (want[0].rows, want[1], want[2]), (s1, s2, p)


def test_lopsided_and_skinny_pairs_match_reference():
    rng = np.random.default_rng(250)
    for n, m in SKINNY:
        for p in (AffineParams(0.5, 0.5, 0.5), AffineParams(1 / 3, 0.0, 2 / 7), AffineParams()):
            assert_matches_reference([random_pair(rng, n, m, "AB")], [p])
    for size in (2, 3, 5, 9):
        for tie_heavy in (True, False):
            shapes = [SKINNY[int(i)] for i in rng.integers(0, len(SKINNY), size=size)]
            shapes[-1] = tuple(int(x) for x in rng.integers(1, 40, size=2))
            pairs = [random_pair(rng, n, m, "AB" if tie_heavy else "ACGT") for n, m in shapes]
            assert_matches_reference(pairs, edge_params(rng, size, tie_heavy))


def test_trace_bytes_counts_each_diagonal_window():
    assert _trace_bytes(600, 600) == 396_449
    assert _trace_bytes(35, 35) == 2_265
    assert _trace_bytes(10_000, 10_000) == 100_628_737
    assert _trace_bytes(10_000, 1) == 639_232
    assert _trace_bytes(1, 10_000) == 10_000
    for n, m in ((1, 1), (63, 2), (64, 64), (130, 3)):
        # one row per diagonal 2 .. n + m, as wide as its block's cell window
        total = 0
        for d in range(2, n + m + 1):
            d0 = d - (d - 2) % _SUB_ROWS  # the first diagonal of d's block
            total += min(n, d0 + _SUB_ROWS - 2) - max(1, d0 - m) + 1
        assert _trace_bytes(n, m) == total, (n, m)


def test_trace_bytes_is_what_the_sweep_allocates(monkeypatch):
    allocated = []

    class RecordingNumpy:  # seqalign's numpy, noting the size of each uint8 array it makes
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, dtype=float):
            if dtype == np.uint8:
                allocated.append(shape)
            return np.empty(shape, dtype)

    monkeypatch.setattr(seqalign, "np", RecordingNumpy())
    rng = np.random.default_rng(251)
    for shapes in (((300, 1),), ((1, 300),), ((200, 7), (3, 3)), ((35, 35),) * 8,
                   ((63, 1), (1, 1)), ((70, 2), (2, 70), (5, 5))):
        allocated.clear()
        pairs = [random_pair(rng, n, m) for n, m in shapes]
        align_batch(pairs, [AffineParams(0.5, 0.5, 0.5)] * len(pairs))
        n, m = max(n for n, _ in shapes), max(m for _, m in shapes)
        assert allocated == [len(shapes) * _trace_bytes(n, m)], shapes


def test_skinny_batch_is_cut_by_window_bytes(monkeypatch):
    assert _trace_bytes(600, 1) > 60 * 600  # 64 window cells per diagonal, not one table cell
    per_pair = _sweep_bytes(600, 1)
    # room for 6,000 such pairs counted by n * m, for 96 by traceback, for 10 by sweep bytes
    budget = 10 * 600 * 600
    monkeypatch.setattr(seqalign, "SWEEP_BUDGET", budget)
    chunks = []

    def counted(pairs, params):  # the plan is under test here, not the sweep
        chunks.append(len(pairs))
        return [None] * len(pairs)

    monkeypatch.setattr(seqalign, "_sweep", counted)
    align_batch([(Sequence("A" * 600), Sequence("C"))] * 2000, [AffineParams()] * 2000)
    assert sum(chunks) == 2000
    assert max(chunks) * per_pair <= budget
    assert chunks[:-1] == [budget // per_pair] * (len(chunks) - 1)


def test_skinny_chunks_peak_within_the_budget(monkeypatch):
    # a block's scratch is up to 16 bytes per window cell (_BLOCK_BYTES): pairs of 64 x 1
    # hold about 15 times their traceback in it, so a plan on the traceback alone put
    # these 60 pairs in one chunk at about 3 times the budget
    rng = np.random.default_rng(253)
    shapes = [(64, 1)] * 40 + [(600, 1), (1, 600), (63, 2), (2, 63)] * 5
    pairs = [(Sequence(rng.choice(list("ACGT"), size=n)), Sequence(rng.choice(list("ACGT"), size=m)))
             for n, m in shapes]
    params = edge_params(rng, len(pairs), tie_heavy=True)
    want = [align_batch([pair], [p])[0] for pair, p in zip(pairs, params)]
    budget = 8 * _sweep_bytes(64, 1)
    monkeypatch.setattr(seqalign, "SWEEP_BUDGET", budget)
    peaks = []
    sweep = seqalign._sweep

    def traced(pairs, params):
        tracemalloc.start()
        try:
            out = sweep(pairs, params)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(seqalign, "_sweep", traced)
    assert align_batch(pairs, params) == want
    assert len(peaks) > 5 and max(peaks) <= budget, (len(peaks), max(peaks), budget)


def test_chunks_keep_padded_scores_in_the_float_range(monkeypatch):
    """A pair whose own scores fit is not padded to lengths where they would not."""
    sweeps = recording(monkeypatch, "_sweep")
    rng = np.random.default_rng(252)
    pairs = [random_pair(rng, 1, 1), random_pair(rng, 200, 200), random_pair(rng, 3, 2)]
    huge = AffineParams(1e306, 1e306, 1e306)  # 2 * (1 + 5e306) fits, 400 * (1 + 5e306) does not
    assert_matches_reference(pairs, [huge, AffineParams(0.5, 0.5, 0.5), AffineParams(1, 1, 1)])
    assert [len(batch) for (batch, _), _ in sweeps] == [1, 2]


def tree_height(node):
    if node.is_leaf:
        return 0
    return 1 + max(tree_height(node.left), tree_height(node.right))


def recording(monkeypatch, name):
    """Wrap ``seqalign.<name>``; the list collects (args, result) per call."""
    calls = []
    real = getattr(seqalign, name)

    def recorded(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(seqalign, name, recorded)
    return calls


def seeded_msa_inputs(rng, count):
    for k in range(count):
        alphabet = ("AB", "ACGT", ("a1", "a10", "b"))[k % 3]
        labels = [f"s{i}" for i in range(int(rng.integers(2, 12)))]
        seqs = [Sequence(rng.choice(list(alphabet), size=int(rng.integers(1, 15))), id=label)
                for label in labels]
        tree = random_tree(rng, labels) if k % 2 else GuideTree.balanced(labels)
        yield seqs, tree, AffineParams(*rng.uniform(0, 1, size=3))


def test_node_consensus_matches_frozen_consensus(monkeypatch):
    """Every internal node's consensus, the root's too, is ``consensus`` of its pair."""
    made = []

    class Recorded(Sequence):
        def __init__(self, chars, id=""):
            super().__init__(chars, id)
            made.append(self)

    batches = recording(monkeypatch, "align_batch")
    monkeypatch.setattr(seqalign, "Sequence", Recorded)
    nodes = 0
    for seqs, tree, p in seeded_msa_inputs(np.random.default_rng(25), 40):
        batches.clear()
        made.clear()
        progressive_align(seqs, tree, p)
        alns = [aln for _, out in batches for aln, _, _ in out]
        assert len(made) == len(alns) == len(seqs) - 1
        for aln, cons in zip(alns, made):
            assert cons.chars == msa_reference.consensus(aln).chars, aln
            assert cons.id == "consensus"
        nodes += len(alns)
    assert nodes >= 200


def test_progressive_align_takes_one_batch_and_one_sweep_per_tree_height(monkeypatch):
    batches = recording(monkeypatch, "align_batch")
    sweeps = recording(monkeypatch, "_sweep")
    for seqs, tree, p in seeded_msa_inputs(np.random.default_rng(26), 20):
        batches.clear()
        sweeps.clear()
        progressive_align(seqs, tree, p)
        assert len(batches) == len(sweeps) == tree_height(tree.root)
        assert sum(len(pairs) for (pairs, _), _ in batches) == len(seqs) - 1


def test_lb_verify_aligns_each_pair_in_one_batch_with_the_pointwise_certificate(monkeypatch):
    batches = recording(monkeypatch, "align_batch")
    singles = recording(monkeypatch, "affine_align")
    cert, pairs, refs, thresholds = lb_verify(128)
    assert len(pairs) == len(batches) == 3 and not singles
    grid = thresholds[0]
    candidates = [grid[0] / 2, *(0.5 * (a + b) for a, b in zip(grid, grid[1:])), grid[-1] * 1.5]
    for ((batch, params), _), pair in zip(batches, pairs):
        assert batch == [pair] * len(candidates)
        assert [p.rho2 for p in params] == candidates
    # the pointwise evaluation that lb_verify batched: one oracle alignment per point
    duals = [
        (lambda rho, s=pair, ref=ref: q_score(
            reference_align(s[0], s[1], AffineParams(0.0, rho, 0.0))[0], ref))
        for pair, ref in zip(pairs, refs)
    ]
    want = verify_shattering(duals, [0.75] * len(pairs), candidates)
    assert cert == want and cert.shattered
    assert (pairs, refs, thresholds) == gen_lb_sequences(128)
