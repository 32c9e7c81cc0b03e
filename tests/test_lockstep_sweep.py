"""Round-based sweeps and batched solves against the frozen depth-first copies.

``piecewise.sweep_linear`` solves every probe point of a round in one call
and ``refine_constant`` every midpoint in one call; ``sweep_reference`` keeps
the one-point-per-call search they replaced, and the functions must be
equal.  The batched solvers under them (``align_batch`` with a penalty set
per pair, ``rnafold._Tables`` with a rho per row) must give each row exactly
what a run of its own gives, compared with ``==`` and ``float.hex``.
"""

import itertools
import random

import numpy as np
import pytest

import sweep_reference as ref
from algotune import rnafold, seqalign
from algotune.piecewise import Line1D, PiecewiseFunction1D, refine_constant, sweep_linear
from algotune.rnafold import RnaSequence, StackScores, fold, fold_batch
from algotune.seqalign import AffineParams, Sequence, affine_align, align_batch


def max_line(lines):
    def solve(x):
        best = max(lines, key=lambda ln: (ln.value(x), ln.slope, -ln.tag))
        return best.slope, best.intercept, best.tag

    return solve


def batched(solve, rounds=None):
    """``solve`` as the batch solver ``sweep_linear`` takes; ``rounds`` records each batch."""

    def run(xs):
        if rounds is not None:
            rounds.append(list(xs))
        return [solve(x) for x in xs]

    return run


def tie_heavy_lines(rng):
    k = int(rng.integers(1, 16))
    span = int(rng.choice([2, 6]))
    slopes, icepts = rng.integers(-span, span + 1, size=(2, k))
    tags = rng.permutation(3 * k)[:k]
    return [Line1D(float(s), float(c), int(t)) for s, c, t in zip(slopes, icepts, tags)]


def concurrent_lines(rng):
    k = int(rng.integers(2, 12))
    px, py = float(rng.uniform(0.0, 1.0)), float(rng.uniform(-1.0, 1.0))
    return [Line1D(float(s), py - float(s) * px, i) for i, s in enumerate(rng.uniform(-3, 3, size=k))]


def test_rounds_equal_depth_first_on_line_corpora():
    rng = np.random.default_rng(31)
    for trial in range(900):
        lines = (tie_heavy_lines, concurrent_lines)[trial % 2](rng)
        lo = float(rng.integers(-3, 1)) if trial % 2 == 0 else 0.0
        hi = lo + (float(rng.integers(1, 5)) if trial % 2 == 0 else 1.0)
        rounds = []
        got = sweep_linear(batched(max_line(lines), rounds), lo, hi)
        assert got == ref.sweep_linear(max_line(lines), lo, hi), lines
        probes = sum(len(r) for r in rounds)
        assert rounds[0] == [lo, hi] and probes <= 2 * len(got.pieces) + 1


def test_refine_constant_equals_one_call_per_midpoint():
    rng = random.Random(32)
    for _ in range(200):
        cuts = sorted({round(rng.uniform(0.0, 3.0), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))})
        cuts = [c for c in cuts if 0.0 < c < 3.0]
        fn = PiecewiseFunction1D(0.0, 3.0, cuts, [(1.0, float(k), k) for k in range(len(cuts) + 1)])
        step = rng.choice([0.5, 1.0, 7.0])  # coarse steps make neighbours equal and merge
        util = lambda x: float(int(x / step))  # noqa: E731
        calls = []
        got = refine_constant(fn, lambda xs: calls.append(len(xs)) or [util(x) for x in xs])
        assert got == ref.refine_constant(fn, util) and calls == [len(fn.pieces)]


def random_pair(rng, lo, hi):
    alphabet = rng.choice(["AC", "ACG", "ACGT"])
    return (Sequence(rng.choices(alphabet, k=rng.randint(lo, hi))),
            Sequence(rng.choices(alphabet, k=rng.randint(lo, hi))))


def indel_solver(s1, s2):
    def solve(rho):
        _, f, _ = affine_align(s1, s2, AffineParams(0.0, rho, 0.0))
        return -float(f.indels), float(f.matches), f.indels

    return solve


def test_indel_decompositions_equal_depth_first():
    rng = random.Random(33)
    for k in range(60):
        s1, s2 = random_pair(rng, 1, 30)
        rho_max = rng.uniform(0.5, 6.0)
        env = ref.sweep_linear(indel_solver(s1, s2), 0.0, rho_max)
        assert seqalign.indel_breakpoints(s1, s2, rho_max) == env, (s1, s2)
        if k % 3 == 0:
            reference = affine_align(s1, s2, AffineParams(0.0, rng.uniform(0, 2), 0.0))[0]
            want = ref.refine_constant(
                env, lambda rho: seqalign.q_score(affine_align(s1, s2, AffineParams(0.0, rho, 0.0))[0], reference))
            got = seqalign.utility_breakpoints(s1, s2, reference, rho_max)
            assert got.to_json() == want.to_json(), (s1, s2)


def fold_corpus(seed, count):
    rng = random.Random(seed)
    kinds = ("watson_crick", "zero", "integer", "float")
    for k in range(count):
        s = RnaSequence("".join(rng.choice("AUCG") for _ in range(1 + k % 30)))
        kind = kinds[k % len(kinds)]
        if kind == "watson_crick":
            m = StackScores.watson_crick()
        elif kind == "zero":
            m = StackScores()
        else:
            draw = (lambda: float(rng.randint(-2, 3))) if kind == "integer" else (lambda: rng.uniform(-1, 2))
            m = StackScores({key: draw() for key in itertools.product("AUCG", repeat=4)})
        yield rng, s, m


def fold_solver(s, m):
    credits, n = rnafold._credits(s, m), len(s)

    def solve(rho):
        t = rnafold._Tables(credits, [rho], lex=False)
        k, stack = int(t.best[1, 0, 0, n - 1]), float(t.best[2, 0, 0, n - 1])
        return float(k - stack), stack, k

    return solve


def test_fold_decompositions_equal_depth_first():
    for rng, s, m in fold_corpus(seed=34, count=60):
        env = ref.sweep_linear(fold_solver(s, m), 0.0, 1.0)
        assert rnafold.rho_breakpoints(s, m) == env, s
        truth = fold(s, rng.random(), m)[0]
        want = ref.refine_constant(env, lambda rho: rnafold.pair_utility(fold(s, rho, m)[0], truth))
        assert rnafold.utility_breakpoints(s, m, truth).to_json() == want.to_json(), s


def test_dp_runs_per_decomposition_at_most_rounds_plus_one(monkeypatch):
    rounds, runs = [], []

    def counted_sweep(sweep):
        def run(solve, lo, hi):
            return sweep(lambda xs: rounds.append(len(xs)) or solve(xs), lo, hi)

        return run

    class Tables(rnafold._Tables):
        def __init__(self, credits, rhos, lex):
            runs.append(len(rhos))
            super().__init__(credits, rhos, lex)

    sweep = seqalign._sweep

    def counted_align(pairs, params):
        runs.append(len(pairs))
        return sweep(pairs, params)

    monkeypatch.setattr(rnafold, "sweep_linear", counted_sweep(rnafold.sweep_linear))
    monkeypatch.setattr(seqalign, "sweep_linear", counted_sweep(seqalign.sweep_linear))
    monkeypatch.setattr(rnafold, "_Tables", Tables)
    monkeypatch.setattr(seqalign, "_sweep", counted_align)
    batched_rounds = 0
    for _, s, m in fold_corpus(seed=35, count=40):
        truth = fold(s, 0.5, StackScores())[0]
        rounds.clear()
        runs.clear()
        rnafold.utility_breakpoints(s, m, truth)
        # one run per sweep round, a row per probe, then one for all midpoints
        assert len(runs) == len(rounds) + 1 and runs[:-1] == rounds, s
        batched_rounds += max(rounds) > 1
    rng = random.Random(36)
    for _ in range(40):
        s1, s2 = random_pair(rng, 5, 30)
        reference = affine_align(s1, s2, AffineParams(0.0, 0.3, 0.0))[0]
        rounds.clear()
        runs.clear()
        seqalign.utility_breakpoints(s1, s2, reference, rng.uniform(0.5, 4.0))
        assert len(runs) == len(rounds) + 1 and runs[:-1] == rounds, (s1, s2)
        batched_rounds += max(rounds) > 1
    assert batched_rounds >= 20  # most decompositions solve several points in some round


def test_align_batch_rows_equal_single_runs_under_their_own_params():
    rng = random.Random(37)
    for k in range(60):
        pairs, params = [], []
        for _ in range(rng.randint(1, 7)):
            pair = random_pair(rng, 1, 1) if rng.random() < 0.2 else random_pair(rng, 1, 35)
            # the same pair at several penalty sets, as a sweep round asks for it
            for _ in range(rng.choice([1, 1, 3])):
                pairs.append(pair)
                if k % 2:
                    params.append(AffineParams(0.0, rng.choice([0.0, 0.5, rng.uniform(0, 3)]), 0.0))
                else:
                    params.append(AffineParams(*(rng.choice([0.0, 1.0, rng.uniform(0, 2)]) for _ in range(3))))
        for (s1, s2), p, (aln, feats, obj) in zip(pairs, params, align_batch(pairs, params)):
            want_aln, want_feats, want_obj = affine_align(s1, s2, p)
            assert aln.rows == want_aln.rows and feats == want_feats, (s1, s2, p)
            assert obj.hex() == want_obj.hex(), (s1, s2, p)


def test_align_batch_needs_one_params_per_pair():
    pair = (Sequence("AC"), Sequence("A"))
    with pytest.raises(ValueError, match="one AffineParams per pair"):
        align_batch([pair, pair], [AffineParams()])


TABLES = ("best", "notp", "paired")


def test_fold_table_rows_equal_single_runs():
    rng = random.Random(38)
    for _, s, m in fold_corpus(seed=39, count=48):
        credits, n = rnafold._credits(s, m), len(s)
        rhos = [0.0, 1.0, rng.random(), 0.5, rng.random(), 0.0]  # a repeat row too
        for lex in (False, True):
            batch = rnafold._Tables(credits, rhos, lex)
            for k, rho in enumerate(rhos):
                one = rnafold._Tables(credits, [rho], lex)
                for name in TABLES:
                    assert getattr(batch, name)[:, k].tobytes() == getattr(one, name)[:, 0].tobytes()
                if not lex:
                    continue
                for name in ("bb", "pb", "nb"):
                    assert (getattr(batch, name)[k] == getattr(one, name)[0]).all(), (s, rho, name)
                assert batch.ties[k].keys() == one.ties[0].keys()
                for d, rows in one.ties[0].items():
                    assert {r: v.tolist() for r, v in batch.ties[k][d].items()} == \
                        {r: v.tolist() for r, v in rows.items()}
                root = ("b", 0, n - 1)
                assert batch.pairs(k, root) == one.pairs(0, root), (s, rho)


def test_fold_batch_equals_fold_on_zero_scores():
    # all-zero stacking: values tie everywhere and ``ties`` settle each traceback
    m, rng = StackScores(), random.Random(40)
    tied = 0
    for n in range(1, 36):
        s = RnaSequence("".join(rng.choice("AUCG") for _ in range(n)))
        rhos = [0.0, 0.25, 0.5, 1.0, rng.random()]
        t = rnafold._Tables(rnafold._credits(s, m), rhos, lex=True)
        tied += sum(bool(ties) for ties in t.ties)
        for rho, (phi, obj) in zip(rhos, fold_batch(s, rhos, m)):
            want_phi, want_obj = fold(s, rho, m)
            assert phi == want_phi and obj.hex() == want_obj.hex(), (s, rho)
    assert tied >= 20
