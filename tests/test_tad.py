import itertools
import math
import os

import numpy as np
import pytest

from algotune.tad import (
    ContactMatrix,
    TadSet,
    TadWeights,
    precompute_cij,
    rho_decomposition,
    tad_objective,
    tad_optimize,
    tad_utility,
)

from tad_cij_reference import precompute_cij as reference_cij

rng = np.random.default_rng(77)


def random_contacts(n):
    a = rng.uniform(0, 3, size=(n, n))
    m = (a + a.T) / 2
    np.fill_diagonal(m, 0.0)
    return ContactMatrix(m)


def naive_cij(m: ContactMatrix):
    """Direct quadruple-loop block sums and length-class means."""
    n = m.n
    M = m.m

    def block(i, j):  # 1-based inclusive
        return sum(
            M[p - 1][q - 1] for p in range(i, j + 1) for q in range(p + 1, j + 1)
        )

    c = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = j - i
            mean = sum(block(t, t + d) for t in range(1, n - d + 1)) / (n - d)
            c[(i, j)] = block(i, j) - mean
    return c


def all_tad_sets(n, min_length=1):
    intervals = [
        (i, j) for i in range(1, n + 1) for j in range(i + min_length, n + 1)
    ]
    sets = [TadSet()]
    def rec(start, acc):
        for i, j in intervals:
            if i <= start:
                continue
            rec(j, acc + [(i, j)])
            sets.append(TadSet(acc + [(i, j)]))
    rec(0, [])
    return sets


def test_tadset_validation():
    TadSet([(1, 3), (4, 9)])
    with pytest.raises(ValueError):
        TadSet([(3, 1)])
    with pytest.raises(ValueError):
        TadSet([(1, 4), (4, 6)])  # touching endpoints
    with pytest.raises(ValueError):
        TadSet([(1, 5), (3, 8)])  # overlap


def test_cij_full_interval_and_constant_matrix_are_exact_zero():
    for n in (4, 7):
        m = random_contacts(n)
        w = precompute_cij(m)
        assert w.c[1][n] == 0.0
        const = ContactMatrix(np.full((n, n), 0.7) - 0.7 * np.eye(n))
        wc = precompute_cij(const)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert wc.c[i][j] == 0.0


def test_cij_matches_naive_definition():
    for n in (3, 5, 6, 8):
        m = random_contacts(n)
        w = precompute_cij(m)
        naive = naive_cij(m)
        for (i, j), v in naive.items():
            assert w.c[i][j] == pytest.approx(v, abs=1e-9)


def test_optimize_all_nonpositive_gives_empty():
    n = 4
    c = np.zeros((n + 1, n + 1))
    c[1][2] = -1.0
    c[2][4] = -0.5
    ts, obj = tad_optimize(TadWeights(c), 1.0)
    assert ts == TadSet()
    assert obj == 0.0


def test_optimize_single_positive_weight():
    n = 4
    c = np.zeros((n + 1, n + 1))
    c -= 0.1
    c[1][2] = 3.0
    ts, obj = tad_optimize(TadWeights(c), 0.0)
    assert ts == TadSet([(1, 2)])
    assert obj == pytest.approx(3.0)


def test_optimize_matches_bruteforce():
    for _ in range(30):
        n = int(rng.integers(2, 9))
        c = np.zeros((n + 1, n + 1))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                c[i][j] = rng.uniform(-1, 1)
        w = TadWeights(c)
        rho = float(rng.uniform(0, 2))
        ts, obj = tad_optimize(w, rho)
        want = max(tad_objective(w, t, rho) for t in all_tad_sets(n))
        assert obj == pytest.approx(want, abs=1e-9)
        assert obj == pytest.approx(tad_objective(w, ts, rho), abs=1e-12)


def test_decomposition_constant_matrix_single_piece():
    m = ContactMatrix(np.full((5, 5), 1.0) - np.eye(5))
    dec = rho_decomposition(precompute_cij(m), 2.0, 1e-6)
    assert dec.tad_sets == [TadSet()]
    assert all(p[2] == 0 for p in dec.fn.pieces)
    assert dec.fn.value(1.0) == pytest.approx(0.0, abs=1e-9)


def test_decomposition_recovers_analytic_crossing():
    # two mutually exclusive singletons (they overlap): weight 4 at span 5
    # vs weight 1 at span 2; 4/5^rho = 1/2^rho at rho = ln(4/1)/ln(5/2)
    n = 7
    c = np.full((n + 1, n + 1), -5.0)
    c[2][7] = 4.0
    c[1][3] = 1.0
    w = TadWeights(c)
    dec = rho_decomposition(w, 3.0, 1e-6)
    want = math.log(4.0 / 1.0) / math.log(5.0 / 2.0)
    assert any(abs(b - want) <= 1e-6 for b in dec.fn.breakpoints)
    assert TadSet([(2, 7)]) in dec.tad_sets
    assert TadSet([(1, 3)]) in dec.tad_sets
    # the heavier long-span weight decays faster, so it wins left of the cut
    assert dec.fn.value(want - 0.01) == pytest.approx(4.0 / 5 ** (want - 0.01), abs=1e-5)
    assert dec.fn.value(want + 0.01) == pytest.approx(1.0 / 2 ** (want + 0.01), abs=1e-5)


def test_decomposition_sampled_consistency_and_continuity():
    for _ in range(4):
        n = int(rng.integers(4, 8))
        m = random_contacts(n)
        w = precompute_cij(m)
        dec = rho_decomposition(w, 2.5, 1e-6)
        for rho in rng.uniform(0, 2.5, size=50):
            rho = float(rho)
            _, obj = tad_optimize(w, rho)
            assert dec.fn.value(rho) == pytest.approx(obj, abs=1e-6)
        for i, b in enumerate(dec.fn.breakpoints):
            s0, c0, _ = dec.fn.pieces[i]
            s1, c1, _ = dec.fn.pieces[i + 1]
            assert s0 * b + c0 == pytest.approx(s1 * b + c1, abs=1e-6)


def test_utility_cases():
    truth = TadSet([(1, 3)])
    assert tad_utility(truth, truth) == 1.0
    assert tad_utility(TadSet([(1, 3), (5, 8)]), truth) == 0.5
    assert tad_utility(TadSet(), truth) == 0.0
    assert tad_utility(TadSet(), TadSet()) == 1.0
    assert tad_utility(TadSet([(2, 4)]), TadSet()) == 0.0


def test_min_length_knob():
    n = 5
    c = np.full((n + 1, n + 1), -1.0)
    c[2][3] = 5.0
    c[1][4] = 2.0
    w = TadWeights(c)
    ts, _ = tad_optimize(w, 0.0, min_length=1)
    assert ts == TadSet([(2, 3)])
    ts2, _ = tad_optimize(w, 0.0, min_length=3)
    assert ts2 == TadSet([(1, 4)])


def test_contact_matrix_csv_and_validation():
    m = ContactMatrix.from_csv("0,1\n1,0\n")
    assert m.n == 2
    with pytest.raises(ValueError, match="symmetric"):
        ContactMatrix([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="nonnegative"):
        ContactMatrix([[0, -1], [-1, 0]])


def test_tadset_json_round_trip():
    ts = TadSet([(1, 3), (5, 8)])
    assert TadSet.from_json(ts.to_json()) == ts


DATA = os.path.join(os.path.dirname(__file__), "data")


def cij_corpus():
    """Seeded symmetric matrices, n 2..39: uniform, integers 0-3 with -0.0 for 0, exponential."""
    r = np.random.default_rng(1414)
    for n in range(2, 40):
        a = r.uniform(0, 3, size=(n, n))
        yield (a + a.T) / 2
        a = r.integers(0, 4, size=(n, n)).astype(float)
        m = a + a.T
        m[m == 0] = -0.0
        yield m
        a = r.exponential(1e3, size=(n, n))
        yield (a + a.T) / 2
    with open(os.path.join(DATA, "tad_14.csv")) as fh:
        yield ContactMatrix.from_csv(fh.read()).m


def test_precompute_cij_equals_the_frozen_loop():
    for m in cij_corpus():
        want = reference_cij(ContactMatrix(m)).c
        got = precompute_cij(ContactMatrix(m)).c
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# ``tad_planted_7.csv``: y1 = 2**-0.35 and y2 = 2**-0.30 planted as c[1][2] = y1 * y2,
# c[2][4] = y1 + y2 and c[3][7] = 1; the other intervals of each of those spans share
# minus the planted weight, so every span sums to 0, and spans 3, 5 and 6 are 0.  The
# matrix is T = c by inclusion-exclusion, shifted off the diagonal to be nonnegative.
# With x = 2**-rho, obj{(1,2),(3,7)} - obj{(2,4)} = (x - y1)(x - y2): {(2,4)} wins
# on (0.30, 0.35) only, and {(1,2),(3,7)} is optimal at both ends of [0, 4].
Y1, Y2 = 2**-0.35, 2**-0.30
PLANTED = {(1, 2): Y1 * Y2, (2, 4): Y1 + Y2, (3, 7): 1.0}


def planted_weights():
    with open(os.path.join(DATA, "tad_planted_7.csv")) as fh:
        return precompute_cij(ContactMatrix.from_csv(fh.read()))


def test_planted_interior_winner_fixture():
    w = planted_weights()
    want = np.zeros((8, 8))
    for (i, j), v in PLANTED.items():
        others = [(k, k + j - i) for k in range(1, 8 - (j - i)) if k != i]
        want[i][j] = v
        for iv in others:
            want[iv] = -v / len(others)
    assert np.abs(w.c - want).max() <= 7.1e-15
    t, v = tad_optimize(w, 0.325)
    assert t == TadSet([(2, 4)])
    assert v > tad_objective(w, TadSet([(1, 2), (3, 7)]), 0.325) + 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="known defect: where the optimal set is the same at both ends of an interval, "
    "rho_decomposition's same-set midpoint probe is its only check, so {(2, 4)}, which wins "
    "only on (0.30, 0.35), is never probed",
)
def test_planted_interior_winner_is_found():
    w = planted_weights()
    dec = rho_decomposition(w, 4.0, 1e-6)
    assert TadSet([(2, 4)]) in dec.tad_sets
    for x in np.linspace(0.29, 0.36, 701).tolist():
        assert abs(dec.fn.value(x) - tad_optimize(w, x)[1]) <= 1e-6
