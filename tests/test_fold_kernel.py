"""The span-vectorized folding kernel against the frozen dict-based DP.

``fold``, ``rho_breakpoints`` and ``utility_breakpoints`` must return exactly
what ``fold_reference`` returns: the same ``Folding``, a bit-identical
objective, an equal envelope and the same utility JSON.  The corpus is
tie-heavy on purpose (Watson-Crick, all-zero and small-integer tables), where
the fewer-pairs and smallest-tuple rules decide.
"""

import itertools
import random

import pytest

import algotune.rnafold as rnafold
from algotune.rnafold import (
    Folding,
    RnaSequence,
    StackScores,
    fold,
    pair_utility,
    rho_breakpoints,
    utility_breakpoints,
)
import fold_reference as ref
from sweep_reference import refine_constant

KINDS = ("watson_crick", "zero", "integer", "float")


def scores(rng, kind):
    if kind == "watson_crick":
        return StackScores.watson_crick()
    if kind == "zero":
        return StackScores()
    keys = itertools.product("AUCG", repeat=4)
    if kind == "integer":
        return StackScores({key: float(rng.randint(-2, 3)) for key in keys})
    return StackScores({key: rng.uniform(-1, 2) for key in keys})


def corpus(seed, count):
    """(rng, sequence, scores): n cycles through 1..40, each pass with other table kinds."""
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 40
        s = RnaSequence("".join(rng.choice("AUCG") for _ in range(n)))
        yield rng, s, scores(rng, KINDS[(k + k // 40) % len(KINDS)])


def rhos(rng, env):
    return [0.0, 1.0, 0.5, 1 / 3, rng.random(), rng.random(), *env.breakpoints]


def test_fold_and_envelope_match_the_frozen_dp():
    for rng, s, m in corpus(seed=11, count=80):
        env = ref.rho_breakpoints(s, m)
        assert rho_breakpoints(s, m) == env, s
        for rho in rhos(rng, env):
            want_phi, want_obj = ref.fold(s, rho, m)
            phi, obj = fold(s, rho, m)
            assert phi == want_phi, (s, rho)
            assert type(obj) is float and obj.hex() == want_obj.hex(), (s, rho)


def test_utility_json_matches_the_frozen_dp():
    for rng, s, m in corpus(seed=12, count=40):
        truth = ref.fold(s, rng.random(), m)[0] if rng.random() < 0.5 else Folding(
            p for p in ref.fold(s, 1.0, StackScores())[0].pairs if rng.random() < 0.6)
        want = refine_constant(
            ref.rho_breakpoints(s, m), lambda rho: pair_utility(ref.fold(s, rho, m)[0], truth))
        assert utility_breakpoints(s, m, truth).to_json() == want.to_json(), s


def test_envelope_solves_at_most_two_per_piece_plus_one(monkeypatch):
    solves = []  # probe points: one per row of each DP run

    class Counted(rnafold._Tables):
        def __init__(self, credits, rhos, lex):
            solves.extend(rhos)
            super().__init__(credits, rhos, lex)

    monkeypatch.setattr(rnafold, "_Tables", Counted)
    for _, s, m in corpus(seed=13, count=80):
        solves.clear()
        env = rho_breakpoints(s, m)
        assert 1 <= len(solves) <= 2 * len(env.pieces) + 1, (s, len(solves), env)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_long_sequence_matches_the_frozen_dp(rho):
    rng = random.Random(14)
    s = RnaSequence("".join(rng.choice("AUCG") for _ in range(70)))
    m = StackScores.watson_crick()
    want_phi, want_obj = ref.fold(s, rho, m)
    phi, obj = fold(s, rho, m)
    assert phi == want_phi and obj.hex() == want_obj.hex()


def test_envelope_rejects_non_finite_scores():
    # rejected when the table is built, before any DP can form 0 * inf = NaN
    for score in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            rho_breakpoints(RnaSequence("AAAAUUUU"), StackScores({("A", "U", "A", "U"): score}))


def test_scores_whose_sums_overflow_are_rejected():
    m = StackScores({key: 1e308 * v for key, v in StackScores.watson_crick().table.items()})
    s = RnaSequence("GGGGGAAACCCCC")
    for solve in (lambda: fold(s, 0.5, m), lambda: rho_breakpoints(s, m)):
        with pytest.raises(ValueError, match="float range"):
            solve()
