import itertools

import numpy as np
import pytest

from algotune.rnafold import (
    MIN_SEP,
    Folding,
    RnaSequence,
    StackScores,
    fold,
    max_stack_by_size,
    pair_utility,
    rho_breakpoints,
    utility_breakpoints,
)
from fold_reference import fold_objective, stacking_score

rng = np.random.default_rng(123)


def random_rna(n):
    return RnaSequence(rng.choice(list("AUCG"), size=n))


def random_scores():
    tbl = {}
    for key in itertools.product("AUCG", repeat=4):
        tbl[key] = float(rng.uniform(-1, 2))
    return StackScores(tbl)


def all_foldings(n):
    """Every non-crossing pair set with the minimum separation, by recursion."""

    def rec(positions):
        if not positions:
            yield frozenset()
            return
        first, rest = positions[0], positions[1:]
        # first unpaired
        for f in rec(rest):
            yield f
        # first paired with any admissible j
        for idx, j in enumerate(rest):
            if j - first < MIN_SEP:
                continue
            inside = [p for p in rest[:idx]]
            outside = rest[idx + 1 :]
            for fi in rec(inside):
                for fo in rec(outside):
                    yield fi | fo | {(first, j)}

    return [Folding(f) for f in rec(list(range(1, n + 1)))]


def test_folding_validation():
    with pytest.raises(ValueError, match="separation"):
        Folding([(1, 2)])
    with pytest.raises(ValueError, match="cross"):
        Folding([(1, 4), (2, 6)])
    with pytest.raises(ValueError, match="two pairs"):
        Folding([(1, 4), (4, 7)])
    assert len(Folding([(1, 6), (2, 5)])) == 2


def test_two_bases_fold_empty():
    phi, obj = fold(RnaSequence("AU"), 0.7, StackScores.watson_crick())
    assert phi.pairs == ()
    assert obj == 0.0


def test_four_bases_single_pair_at_rho_one():
    for _ in range(5):
        s = random_rna(4)
        phi, obj = fold(s, 1.0, random_scores())
        best = max(fold_objective(s, f, 1.0, random_scores()) for f in all_foldings(4))
        assert obj == pytest.approx(best) == pytest.approx(1.0)
        assert len(phi) == 1


def test_fold_matches_bruteforce():
    for _ in range(100):
        n = int(rng.integers(1, 13))
        s = random_rna(n)
        m = random_scores()
        rho = float(rng.uniform(0, 1))
        phi, obj = fold(s, rho, m)
        want = max(fold_objective(s, f, rho, m) for f in all_foldings(n))
        assert obj == pytest.approx(want, abs=1e-9)
        assert obj == pytest.approx(fold_objective(s, phi, rho, m), abs=1e-12)


def test_fold_rejects_bad_rho():
    with pytest.raises(ValueError):
        fold(RnaSequence("AUCG"), 1.5, StackScores())


def test_max_stack_by_size_zero_scores():
    s = random_rna(10)
    out = dict(max_stack_by_size(s, StackScores()))
    assert out[0] == 0.0
    assert all(v == 0.0 for v in out.values())


def test_max_stack_by_size_matches_bruteforce():
    for _ in range(40):
        n = int(rng.integers(1, 12))
        s = random_rna(n)
        m = random_scores()
        got = dict(max_stack_by_size(s, m))
        want = {}
        for f in all_foldings(n):
            k = len(f)
            v = stacking_score(s, f, m)
            if k not in want or v > want[k]:
                want[k] = v
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-9)


def test_max_stack_dominates_fold_output():
    for _ in range(20):
        s = random_rna(10)
        m = random_scores()
        table = dict(max_stack_by_size(s, m))
        for rho in rng.uniform(0, 1, size=5):
            phi, _ = fold(s, float(rho), m)
            assert table[len(phi)] >= stacking_score(s, phi, m) - 1e-9


def test_rho_breakpoints_zero_scores():
    s = random_rna(9)
    fn = rho_breakpoints(s, StackScores())
    ks = dict(max_stack_by_size(s, StackScores()))
    k_max = max(ks)
    assert fn.value(1.0) == pytest.approx(k_max)
    assert fn.value(0.5) == pytest.approx(0.5 * k_max)


def test_rho_breakpoints_piece_cap_and_value_identity():
    for _ in range(25):
        n = int(rng.integers(1, 13))
        s = random_rna(n)
        m = random_scores()
        fn = rho_breakpoints(s, m)
        assert len(fn.pieces) <= n // 2 + 1
        for rho in rng.uniform(0, 1, size=100):
            rho = float(rho)
            _, obj = fold(s, rho, m)
            assert fn.value(rho) == pytest.approx(obj, abs=1e-9)


def test_pair_utility_cases():
    truth = Folding([(1, 6), (2, 5)])
    assert pair_utility(truth, truth) == 1.0
    assert pair_utility(Folding([(1, 6)]), truth) == 0.5
    assert pair_utility(Folding([(7, 9)]), truth) == 0.0
    assert pair_utility(Folding(), Folding()) == 1.0


def test_utility_breakpoints_truth_from_fold():
    # truth taken from the algorithm's own output inside the last piece; the
    # utility there is exactly 1 (tie-breaks match because both go through fold)
    s = random_rna(10)
    m = StackScores.watson_crick()
    env = rho_breakpoints(s, m)
    lo, hi = env.piece_bounds(len(env.pieces) - 1)
    mid = 0.5 * (lo + hi)
    truth, _ = fold(s, mid, m)
    fn = utility_breakpoints(s, m, truth)
    assert fn.value(mid) == pytest.approx(1.0)
    assert len(fn.pieces) <= len(s) // 2 + 1


def test_utility_breakpoints_constant_when_zero_scores():
    s = random_rna(8)
    m = StackScores()
    truth, _ = fold(s, 0.5, m)
    fn = utility_breakpoints(s, m, truth)
    # with no stacking signal the max-pair folding wins at every rho > 0
    for rho in (0.1, 0.5, 0.9):
        assert fn.value(rho) == pytest.approx(1.0)


def test_fold_tiebreak_prefers_fewer_pairs():
    # all-zero scores at rho = 0: every folding scores 0; the empty one wins
    s = random_rna(8)
    phi, obj = fold(s, 0.0, StackScores())
    assert phi.pairs == ()
    assert obj == 0.0


def test_scores_csv_and_wc_table():
    m = StackScores.from_csv("A,U,C,G,1.5\nG,C,A,U,-0.25\n")
    assert m.get("A", "U", "C", "G") == 1.5
    assert m.get("G", "C", "A", "U") == -0.25
    assert m.get("A", "A", "A", "A") == 0.0
    wc = StackScores.watson_crick()
    assert wc.get("A", "U", "C", "G") == 1.0
    assert wc.get("U", "A", "G", "C") == 1.0
    assert wc.get("A", "G", "C", "G") == 0.0


def test_folding_json_round_trip():
    phi = Folding([(1, 6), (2, 5)])
    assert Folding.from_json(phi.to_json()) == phi
