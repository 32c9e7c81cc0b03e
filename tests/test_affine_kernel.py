"""The anti-diagonal ``affine_align`` against the frozen row-by-row oracle,
its traceback's features against the column-by-column count, plus its memory
bound and length guard."""

import tracemalloc

import numpy as np
import pytest

from alignment_oracle import pairwise_features
from gotoh_reference import affine_align as reference_align

from algotune.cli import dispatch
from algotune.seqalign import (
    MAX_LEN,
    SWEEP_BUDGET,
    AffineParams,
    Sequence,
    _sweep_bytes,
    affine_align,
    align_batch,
    indel_breakpoints,
    objective,
)

TIE_RHOS = (0.0, 1 / 3, 2 / 7, 0.5)


def seeded_cases(count, seed=7, max_len=40):
    """Tie-heavy pairs: 2-4 symbol alphabets, penalties from a few exact ratios."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        alphabet = list("ACGT"[: 2 + k % 3])
        s1 = Sequence(rng.choice(alphabet, size=int(rng.integers(1, max_len + 1))))
        s2 = Sequence(rng.choice(alphabet, size=int(rng.integers(1, max_len + 1))))
        if k % 4 == 0:  # the indel slice, rho1 = rho3 = 0
            p = AffineParams(0.0, TIE_RHOS[(k // 4) % 4], 0.0)
        elif k % 4 == 3:
            p = AffineParams(*rng.uniform(0, 2, size=3))
        else:
            p = AffineParams(*(TIE_RHOS[int(i)] for i in rng.integers(0, 4, size=3)))
        cases.append((s1, s2, p))
    return cases


def assert_same(s1, s2, p):
    got, want = affine_align(s1, s2, p), reference_align(s1, s2, p)
    assert got[0].rows == want[0].rows, (s1, s2, p)
    assert got[1] == want[1] and got[2] == want[2], (s1, s2, p)


def test_matches_reference_on_seeded_pairs():
    for s1, s2, p in seeded_cases(600):
        assert_same(s1, s2, p)


def test_matches_reference_at_indel_crossings():
    # at an envelope breakpoint two alignments tie exactly, so only the
    # tie-break decides which one comes back
    crossings = 0
    for s1, s2, _ in seeded_cases(600)[:50]:
        env = indel_breakpoints(s1, s2, 4.0)
        for rho in env.breakpoints:
            assert_same(s1, s2, AffineParams(0.0, rho, 0.0))
        crossings += len(env.breakpoints)
    assert crossings >= 40


def test_traceback_features_match_the_oracle():
    """The features counted on the traceback equal those counted on the rows,
    over single letters, end gaps in either row and gap opens from 0 to 4."""
    rng = np.random.default_rng(19)
    seen = {"single": 0, "lead1": 0, "lead2": 0, "tail1": 0, "tail2": 0}
    for batch in range(100):
        pairs, params = [], []
        for k in range(50):
            alphabet = list("ACGT"[: 1 + (batch + k) % 4])
            n1, n2 = (int(x) for x in rng.integers(1, 16, size=2))
            if k % 10 == 0:
                n1 = 1
            elif k % 10 == 1:
                n2 = 1
            pairs.append((Sequence(rng.choice(alphabet, size=n1)), Sequence(rng.choice(alphabet, size=n2))))
            params.append(AffineParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 1)),
                                       float(k % 5) if k % 3 else float(rng.uniform(0, 4))))
        for (s1, s2), p, (aln, feats, obj) in zip(pairs, params, align_batch(pairs, params)):
            assert feats == pairwise_features(aln), (s1, s2, p)
            assert obj == objective(pairwise_features(aln), p)
            r1, r2 = aln.rows
            seen["single"] += min(len(s1), len(s2)) == 1
            seen["lead1"] += r1[0] == "-"
            seen["lead2"] += r2[0] == "-"
            seen["tail1"] += r1[-1] == "-"
            seen["tail2"] += r2[-1] == "-"
    assert min(seen.values()) >= 300, seen


def test_matches_reference_at_200x200():
    rng = np.random.default_rng(3)
    s1 = Sequence(rng.choice(list("ACGT"), size=200))
    s2 = Sequence(rng.choice(list("ACGT"), size=200))
    assert_same(s1, s2, AffineParams(0.5, 0.5, 0.5))


def test_traced_memory_at_600x600():
    rng = np.random.default_rng(5)
    s1 = Sequence(rng.choice(list("ACGT"), size=600))
    s2 = Sequence(rng.choice(list("ACGT"), size=600))
    tracemalloc.start()
    try:
        affine_align(s1, s2, AffineParams(0.5, 0.5, 0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_max_len_follows_the_traceback_budget():
    assert MAX_LEN == 10_000
    assert _sweep_bytes(MAX_LEN, MAX_LEN) <= SWEEP_BUDGET < _sweep_bytes(MAX_LEN + 1, MAX_LEN + 1)


def test_over_max_len_rejected_before_allocation():
    long = Sequence("A" * (MAX_LEN + 1))
    for s1, s2 in ((long, long), (long, Sequence("A")), (Sequence("A"), long)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"configured max {MAX_LEN}"):
                affine_align(s1, s2, AffineParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


def test_cli_align_run_over_max_len_exits_2(tmp_path, capsys):
    fasta = tmp_path / "long.fa"
    fasta.write_text(f">x\n{'A' * (MAX_LEN + 1)}\n>y\nACGT\n")
    assert dispatch(["align", "run", "--input", str(fasta)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"sequence longer than configured max {MAX_LEN}" in captured.err
