import gc
import json
import math
import re

import numpy as np
import pytest

from algotune.piecewise import upper_envelope, Line1D
from algotune.seqalign import (
    AffineParams,
    Alignment,
    GuideTree,
    Sequence,
    affine_align,
    alignment_from_fasta,
    consensus,
    del_gaps,
    gen_lb_sequences,
    indel_breakpoints,
    lb_verify,
    objective,
    parse_fasta,
    progressive_align,
    q_score,
    sequences_from_fasta,
    utility_breakpoints,
)
from alignment_oracle import enumerate_alignments, pairwise_features
from test_cli_golden import run_case, write_inputs

rng = np.random.default_rng(42)


def random_seq(n, alphabet="ACGT", tag=""):
    return Sequence(rng.choice(list(alphabet), size=n), id=tag)


def brute_best(s1, s2, p):
    return max(objective(pairwise_features(a), p) for a in enumerate_alignments(s1, s2))


def test_identical_sequences_align_gapless():
    s = Sequence("ACGTAC")
    aln, feats, obj = affine_align(s, s, AffineParams(0.3, 0.7, 0.2))
    assert aln.rows[0] == aln.rows[1] == s.chars
    assert feats == pairwise_features(aln)
    assert obj == pytest.approx(len(s))


def test_single_mismatch_prefers_double_indel_when_free():
    aln, feats, obj = affine_align(Sequence("A"), Sequence("G"), AffineParams(1, 0, 0))
    assert obj == pytest.approx(0.0)
    assert feats.indels == 2 and feats.matches == 0 and feats.mismatches == 0


def test_enumerate_alignments_length_one():
    alns = enumerate_alignments(Sequence("A"), Sequence("G"))
    assert len(alns) == 3
    assert len(set(alns)) == 3


def test_enumerate_alignments_count_bound():
    # the 2^n n^(2n+1) bound starts holding at n = 2 (n = 1 has 3 alignments)
    for n in (2, 3):
        s1, s2 = random_seq(n), random_seq(n)
        count = len(enumerate_alignments(s1, s2))
        assert count <= 2**n * n ** (2 * n + 1)


def test_enumerate_alignments_rejects_long_input():
    with pytest.raises(ValueError, match="oracle"):
        enumerate_alignments(random_seq(7), random_seq(3))


def test_alignment_invariants_on_outputs():
    for _ in range(50):
        s1, s2 = random_seq(int(rng.integers(1, 9))), random_seq(int(rng.integers(1, 9)))
        p = AffineParams(*rng.uniform(0, 2, size=3))
        aln, _, _ = affine_align(s1, s2, p)
        assert del_gaps(aln.rows[0]) == s1.chars
        assert del_gaps(aln.rows[1]) == s2.chars
        assert len(aln.rows[0]) == len(aln.rows[1])


def test_affine_objective_matches_bruteforce():
    for _ in range(200):
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        s1, s2 = random_seq(n1, "ACG"), random_seq(n2, "ACG")
        p = AffineParams(*rng.uniform(0, 1.5, size=3))
        _, _, obj = affine_align(s1, s2, p)
        assert obj == pytest.approx(brute_best(s1, s2, p), abs=1e-9)


def test_features_count_terminal_gap_runs():
    aln = Alignment(("AC-", "-CA"))
    f = pairwise_features(aln)
    assert f.matches == 1 and f.mismatches == 0
    assert f.indels == 2
    assert f.gaps == 2  # one leading and one trailing run, both counted


def test_q_score_worked_example():
    cand = Alignment(("GATCC", "AG-CC"))
    ref = Alignment(("-GATCC", "AG--CC"))
    assert q_score(cand, ref) == pytest.approx(2 / 3)


def test_q_score_reflexive_and_disjoint():
    a = Alignment(("AC-G", "ACTG"))
    assert q_score(a, a) == 1.0
    left = Alignment(("AG--", "--CT"))
    right = Alignment(("AG", "CT"))
    assert q_score(left, right) == 0.0


def test_q_score_mismatched_sources_rejected():
    with pytest.raises(ValueError):
        q_score(Alignment(("AC", "GG")), Alignment(("AC", "GT")))


def test_consensus_worked_example():
    aln = Alignment(("AT-C", "G-CC"))
    assert consensus(aln).chars == tuple("ATCC")


def test_consensus_degenerate_rows():
    # a single-row alignment cannot contain gap columns, so it is its own consensus
    assert consensus(Alignment(("ACG",))).chars == tuple("ACG")
    aln = Alignment(("ACG", "ACG"))
    assert consensus(aln).chars == tuple("ACG")


def test_progressive_two_leaves_reduces_to_pairwise():
    s1, s2 = random_seq(6, tag="x"), random_seq(6, tag="y")
    tree = GuideTree.from_newick("(x,y);")
    p = AffineParams(0.4, 0.6, 0.1)
    msa = progressive_align([s1, s2], tree, p)
    aln, _, _ = affine_align(s1, s2, p)
    assert msa.rows == aln.rows


def test_progressive_identical_sequences_gapless():
    seqs = [Sequence("ACGT", id=f"s{i}") for i in range(3)]
    tree = GuideTree.from_newick("((s0,s1),s2);")
    msa = progressive_align(seqs, tree, AffineParams(1, 1, 1))
    assert all(row == tuple("ACGT") for row in msa.rows)


def test_progressive_rows_recover_inputs():
    for _ in range(20):
        seqs = [random_seq(int(rng.integers(1, 9)), tag=f"s{i}") for i in range(3)]
        tree = GuideTree.from_newick("((s0,s1),s2);")
        msa = progressive_align(seqs, tree, AffineParams(*rng.uniform(0, 1, 3)))
        for s, row in zip(seqs, msa.rows):
            assert del_gaps(row) == s.chars
        for j in range(msa.n_columns):
            assert any(r[j] != "-" for r in msa.rows)


def test_progressive_gap_propagation_monotone():
    # gap columns inserted at the root survive into every leaf row
    seqs = [
        Sequence("AAAA", id="a"),
        Sequence("AAAA", id="b"),
        Sequence("AATTAA", id="c"),
        Sequence("AATTAA", id="d"),
    ]
    tree = GuideTree.from_newick("((a,b),(c,d));")
    msa = progressive_align(seqs, tree, AffineParams(1.0, 0.1, 0.1))
    assert len({len(r) for r in msa.rows}) == 1
    assert del_gaps(msa.rows[0]) == seqs[0].chars


def test_leaf_mismatch_rejected():
    seqs = [Sequence("AC", id="a"), Sequence("GT", id="b")]
    with pytest.raises(ValueError, match="leaves"):
        progressive_align(seqs, GuideTree.from_newick("(a,zzz);"), AffineParams())


def test_indel_breakpoints_identical_sequences():
    s = Sequence("ACGTT")
    fn = indel_breakpoints(s, s, 2.0)
    assert fn.breakpoints == []
    assert fn.pieces[0][:2] == (0.0, 5.0)


def test_indel_breakpoints_match_bruteforce_envelope():
    for _ in range(60):
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        s1, s2 = random_seq(n1, "ACG"), random_seq(n2, "ACG")
        fn = indel_breakpoints(s1, s2, 1.5)
        lines = {}
        for a in enumerate_alignments(s1, s2):
            f = pairwise_features(a)
            key = (f.matches, f.indels)
            lines[key] = Line1D(-float(f.indels), float(f.matches), tag=len(lines))
        env = upper_envelope(list(lines.values()), 0.0, 1.5)
        for rho in rng.uniform(0, 1.5, size=40):
            rho = float(rho)
            assert fn.value(rho) == pytest.approx(env.value(rho), abs=1e-9)


def test_envelope_pieces_are_tagged_by_their_indel_count(tmp_path):
    # a piece's line is -indels * rho + matches, so the tag names it and no
    # two pieces share one: at most one piece per achievable indel count
    envelopes = [
        [(p["slope"], p["tag"]) for p in json.loads(run_case(argv, tmp_path / "out.json"))["pieces"]]
        for name, argv in write_inputs(tmp_path).items()
        if name.startswith("align_decompose_") and name.endswith("_json")
    ]
    gen = np.random.default_rng(43)  # its own stream: the module's draws stay as they were
    for k in range(80):
        alphabet = list(("AC", "ACG", "ACGT")[k % 3])
        s1, s2 = (Sequence(gen.choice(alphabet, size=int(gen.integers(1, 40)))) for _ in range(2))
        envelopes.append([(s, t) for s, _, t in indel_breakpoints(s1, s2, float(gen.uniform(0.5, 6.0))).pieces])
    for pieces in envelopes:
        tags = [t for _, t in pieces]
        assert tags == [-s for s, _ in pieces] and len(set(tags)) == len(tags), pieces
    assert sum(len(pieces) >= 3 for pieces in envelopes) >= 10


def test_indel_breakpoints_sampled_against_aligner():
    s1, s2 = random_seq(12), random_seq(14)
    fn = indel_breakpoints(s1, s2, 2.0)
    for rho in rng.uniform(0, 2, size=100):
        rho = float(rho)
        _, _, obj = affine_align(s1, s2, AffineParams(0.0, rho, 0.0))
        assert fn.value(rho) == pytest.approx(obj, abs=1e-9)


def sketch_pair(i):
    """Sub-construction with k=3: returns pair i (1-based) plus its reference."""
    pairs, refs, thresholds = gen_lb_sequences(32)
    return pairs[i - 1], refs[i - 1], thresholds[i - 1]


def test_lb_family_shapes_at_n32():
    pairs, refs, thresholds = gen_lb_sequences(32)
    assert len(pairs) == 2  # k = 3
    (s1, s2), _, _ = sketch_pair(1)
    assert "".join(s1.chars) == "a1b1d1a2a2b2d2a3a3a3b3d3"
    assert "".join(s2.chars) == "b1c1d1b2c2c2d2b3c3c3c3d3"
    assert thresholds[0] == [pytest.approx(x) for x in (1 / 6, 1 / 4, 1 / 2)]


def test_lb_sketch_utility_pattern_pair1():
    (s1, s2), ref, _ = sketch_pair(1)
    fn = utility_breakpoints(s1, s2, ref, 1.0)
    assert [p[1] for p in fn.pieces] == [
        pytest.approx(v) for v in (4 / 6, 5 / 6, 4 / 6, 5 / 6)
    ]
    assert fn.breakpoints == [pytest.approx(x) for x in (1 / 6, 1 / 4, 1 / 2)]


def test_lb_sketch_utility_pattern_pair2():
    (s1, s2), ref, _ = sketch_pair(2)
    # generated reference follows the all-low rule, mirroring the pattern
    fn = utility_breakpoints(s1, s2, ref, 1.0)
    assert [p[1] for p in fn.pieces] == [pytest.approx(0.5), pytest.approx(1.0)]
    assert fn.breakpoints == [pytest.approx(0.25)]
    # with the matched-b reference the utility is 1 up to 1/4, then 1/2
    ref_high = Alignment(
        (
            ("a2", "a2", "b2", "-", "-", "d2"),
            ("-", "-", "b2", "c2", "c2", "d2"),
        )
    )
    fn2 = utility_breakpoints(s1, s2, ref_high, 1.0)
    assert [p[1] for p in fn2.pieces] == [pytest.approx(1.0), pytest.approx(0.5)]
    assert fn2.breakpoints == [pytest.approx(0.25)]


def test_lb_construction_n128():
    pairs, refs, thresholds = gen_lb_sequences(128)
    assert len(pairs) == 3  # k = 7, N = 3
    assert max(len(s) for pair in pairs for s in pair) == 42
    assert len(thresholds[0]) == 7
    cert, _, _, _ = lb_verify(128)
    assert cert.shattered
    assert len(cert.achieved_patterns) == 8


def test_lb_construction_n128_oscillation_fidelity():
    # each pair's utility flips across 3/4 at exactly its thresholds,
    # starting below 3/4 at rho = 0 and ending above
    pairs, refs, thresholds = gen_lb_sequences(128)
    for (s1, s2), ref, cuts in zip(pairs, refs, thresholds):
        fn = utility_breakpoints(s1, s2, ref, 1.0)
        assert fn.breakpoints == [pytest.approx(c) for c in cuts]
        sides = [piece[1] > 0.75 for piece in fn.pieces]
        assert sides[0] is False and sides[-1] is True
        assert all(a != b for a, b in zip(sides, sides[1:]))


def test_lb_b_match_threshold():
    # b_j characters are matched by the aligner iff rho <= 1/(2j)
    pairs, _, _ = gen_lb_sequences(128)
    s1, s2 = pairs[0]
    for j in (1, 3, 7):
        for rho, expect in ((1 / (2 * j) - 0.01, True), (1 / (2 * j) + 0.01, False)):
            aln, _, _ = affine_align(s1, s2, AffineParams(0.0, rho, 0.0))
            cols = {
                (a, b) for a, b in zip(*aln.rows) if a == f"b{j}" and b == f"b{j}"
            }
            assert bool(cols) is expect


def test_gen_lb_rejects_small_n():
    with pytest.raises(ValueError):
        gen_lb_sequences(7)


def test_fasta_round_trip_and_gap_guard():
    text = ">s1\nACGT\n>s2\nGG\nTT\n"
    seqs = sequences_from_fasta(text)
    assert [s.id for s in seqs] == ["s1", "s2"]
    assert seqs[1].chars == tuple("GGTT")
    aln = alignment_from_fasta(">a\nAC-G\n>b\nA-CG\n")
    assert aln.n_columns == 4
    with pytest.raises(ValueError):
        Sequence("AC-G")


def test_newick_parse_and_validation():
    tree = GuideTree.from_newick("((s1,s2),(s3,s4));")
    assert tree.leaf_labels() == ["s1", "s2", "s3", "s4"]
    with pytest.raises(ValueError):
        GuideTree.from_newick("((s1,s2);")


def caterpillar_newick(labels, left=True):
    text = labels[0]
    for label in labels[1:]:
        text = f"({text},{label})" if left else f"({label},{text})"
    return text + ";"


def test_newick_caterpillar_deeper_than_the_recursion_limit():
    labels = [f"s{i}" for i in range(1200)]
    for left in (True, False):
        tree = GuideTree.from_newick(caterpillar_newick(labels, left))
        assert tree.leaf_labels() == (labels if left else labels[::-1])
        assert GuideTree(tree.root).leaf_labels() == tree.leaf_labels()


def test_newick_leaf_labels_in_text_order():
    rng = np.random.default_rng(52)

    def newick(labels):
        if len(labels) == 1:
            return labels[0]
        cut = int(rng.integers(1, len(labels)))
        return f"({newick(labels[:cut])},{newick(labels[cut:])})"

    for n in range(1, 40):
        labels = [f"x{i}" for i in rng.permutation(n)]
        assert GuideTree.from_newick(newick(labels) + ";").leaf_labels() == labels


def test_newick_and_tree_errors():
    for text, message in (
        ("", "empty leaf label in newick input"),
        ("(a,)", "empty leaf label in newick input"),
        ("(a b", "expected ',' in newick input"),
        ("((a,b),c", "expected ')' in newick input"),
        ("(a,b,c)", "expected ')' in newick input"),
        ("(a,b)c;", "trailing newick input at position 5"),
        ("a,b", "trailing newick input at position 1"),
        ("((a,b),a);", "duplicate leaf labels"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GuideTree.from_newick(text)
    Node = GuideTree.Node
    # the walks visit left first, so the leftmost fault is the one reported
    bad_leaf = Node(label="b", left=Node(label="z"))
    with pytest.raises(ValueError, match="^leaf with children$"):
        GuideTree(Node(left=Node(left=Node(label="a"), right=bad_leaf), right=Node(label="c")))
    # a missing child is found before the labels are read (it raised AttributeError)
    with pytest.raises(ValueError, match="^internal nodes need exactly two children$"):
        GuideTree(Node(left=Node(label="a")))
    with pytest.raises(ValueError, match="^internal nodes need exactly two children$"):
        GuideTree(Node(left=Node(label="a"), right=Node(right=Node(label="b"))))


def test_msa_run_leaves_no_reference_cycles(tmp_path, capsys):
    from algotune.cli import dispatch

    fasta = tmp_path / "four.fa"
    fasta.write_text(">a\nACGT\n>b\nACG\n>c\nAACGT\n>d\nAGT\n")
    tree = tmp_path / "tree.nwk"
    tree.write_text("((a,b),(c,d));")
    argv = ["msa", "run", "--input", str(fasta), "--tree", str(tree)]
    assert dispatch(argv) == 0  # builds the parser once per process
    gc.collect()
    gc.disable()
    try:
        assert dispatch(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out.count(">") == 8
