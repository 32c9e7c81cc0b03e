"""The certified chord fit of ``tad.rho_decomposition`` against the frozen
depth-first fit in ``tad_chord_reference``: the same regions and sets, within
tol everywhere, with fewer pieces; and a chord at the width floor named when
the tolerance cannot be met."""

import math
import os
import re

import numpy as np
import pytest

import algotune.tad as tad
from algotune.piecewise import EPS_CMP
from algotune.tad import ContactMatrix, TadSet, precompute_cij, rho_decomposition, tad_objective
from tad_chord_reference import rho_decomposition as reference_decomposition

TAD_14 = os.path.join(os.path.dirname(__file__), "data", "tad_14.csv")


def seeded_weights():
    """Contact matrices n 3-20, alternately uniform and integer 0-3 (tie-heavy)."""
    rng = np.random.default_rng(9120)
    for k in range(48):
        n = int(rng.integers(3, 21))
        if k % 2:
            a = rng.integers(0, 4, size=(n, n)).astype(float)
        else:
            a = rng.uniform(0, 3, size=(n, n))
        m = np.triu(a, 1)
        yield k, precompute_cij(ContactMatrix(m + m.T))


def regions(fn):
    """Region edges and tags: the breakpoints where the piece tag changes."""
    edges, tags = [fn.lo], [fn.pieces[0][2]]
    for b, (_, _, tag) in zip(fn.breakpoints, fn.pieces[1:]):
        if tag != tags[-1]:
            edges.append(b)
            tags.append(tag)
    return edges, tags


def fit_error(w, dec):
    """Largest gap to the objective of the piece's own set, on 2,001 points and
    1e-7 either side of every breakpoint (numpy's powers: far below tol)."""
    fn = dec.fn
    near = np.add.outer(fn.breakpoints, [-1e-7, 1e-7]).ravel()
    x = np.concatenate([np.linspace(fn.lo, fn.hi, 2001), near])
    slope, intercept, tag = (np.array(col) for col in zip(*fn.pieces))
    k = np.searchsorted(fn.breakpoints, x, side="right")  # fn.piece_index
    g = np.zeros_like(x)
    for t, tad_set in enumerate(dec.tad_sets):
        on = tag[k] == t
        g[on] = sum(w.c[i][j] / float(j - i) ** x[on] for i, j in tad_set.intervals)
    return np.abs(slope[k] * x + intercept[k] - g).max()


def corpus():
    """The 48 seeded matrices and ``tad_14.csv`` on [0, 2]."""
    for k, w in seeded_weights():
        yield k, w, (0.5, 2.0)[k % 2]
    with open(TAD_14) as fh:
        yield "tad_14", precompute_cij(ContactMatrix.from_csv(fh.read())), 2.0


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_certified_chords_stay_within_tol(tol):
    for k, w, rho_hi in corpus():
        assert fit_error(w, rho_decomposition(w, rho_hi, tol)) <= tol, k


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
def test_certified_chords_keep_the_frozen_regions_with_fewer_pieces(tol):
    ours = theirs = 0
    for k, w, rho_hi in corpus():
        dec = rho_decomposition(w, rho_hi, tol)
        ref = reference_decomposition(w, rho_hi, tol)
        assert dec.tad_sets == ref.tad_sets and dec.cap_warning == ref.cap_warning, k
        assert regions(dec.fn) == regions(ref.fn), k
        assert len(dec.fn.pieces) <= len(ref.fn.pieces), k
        ours, theirs = ours + len(dec.fn.pieces), theirs + len(ref.fn.pieces)
    assert ours <= 0.75 * theirs, (ours, theirs)


def planted_terms():
    # span 19 next to spans 1 and 2: g'' falls by a factor over 100 on [0, 4]
    return [(0.7, 19.0), (1.3, 2.0), (0.4, 1.0)]


def second_derivative(terms, x):
    return sum(c * math.log(s) ** 2 * s**-x for c, s in terms)


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_planted_chords_stay_within_tol_where_the_curvature_falls(tol):
    terms = planted_terms()
    assert second_derivative(terms, 0.0) > 100 * second_derivative(terms, 4.0)
    lo, hi, vlo, vhi = tad._fit_chords(terms, 0.0, 4.0, tol)
    assert lo[0] == 0.0 and hi[-1] == 4.0 and (lo[1:] == hi[:-1]).all()
    assert (hi - lo >= EPS_CMP).all()

    def g(x):  # tad_objective's sum
        return math.fsum(c / s**x for c, s in terms)

    assert vlo.tolist() == [g(x) for x in lo.tolist()]
    # dense inside every chord, and against its ends
    for frac in np.linspace(0.0, 1.0, 41 if len(lo) < 2000 else 9):
        x = lo + frac * (hi - lo)
        chord = vlo + (vhi - vlo) / (hi - lo) * (x - lo)
        assert max(abs(c - g(t)) for c, t in zip(chord.tolist(), x.tolist())) <= tol
    # near the fewest chords any fit within tol can take, the integral of sqrt(g'' / 8 tol)
    xs = np.linspace(0.0, 4.0, 4001)
    density = np.sqrt(second_derivative(terms, xs) / (8 * tol))
    least = float(np.sum((density[1:] + density[:-1]) / 2 * np.diff(xs)))
    assert least <= len(lo) <= 1.05 * least + 2


def test_curvature_free_sets_take_one_chord():
    for terms in ([], [(2.5, 1.0)]):
        ends = np.array([0.25, 3.0])
        chords = tad._fit_chords(terms, *ends, 1e-12)
        assert chords.T.tolist() == [[*ends, *tad._objective_at(terms, ends)]]


@pytest.mark.parametrize("weight", [0.0, -0.5, -5e-324, math.nan])
def test_a_set_with_a_nonpositive_weight_is_refused(weight):
    with pytest.raises(ValueError, match="positive weights"):
        tad._fit_chords([(1.0, 3.0), (weight, 2.0)], 0.0, 1.0, 1e-6)


def test_objective_at_is_tad_objective_bit_for_bit():
    # np.power would differ from the C library's pow in the last bit at some of these
    rng = np.random.default_rng(31)
    xs = np.concatenate([rng.uniform(0, 3, 400), [0.0, 0.5, 1.0, 2.0, 40.0]])
    for n_terms in range(6):
        for _ in range(20):
            ends = sorted(int(p) for p in rng.choice(np.arange(1, 21), 2 * n_terms, replace=False))
            t = TadSet(zip(ends[::2], ends[1::2]))
            c = np.zeros((21, 21))
            for i, j in t.intervals:
                c[i][j] = rng.choice([rng.uniform(-3, 3), 0.0, -1e-300, 5e-324])
            w = tad.TadWeights(c)
            terms = [(c[i][j], float(j - i)) for i, j in t.intervals]
            got = tad._objective_at(terms, xs).tolist()
            want = [tad_objective(w, t, x) for x in xs.tolist()]
            assert got == want
            assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


def test_fsum_signed_zero_is_kept():
    # fsum returns 0.0 for a sum of negative zeros; the array sum must too
    terms = [(np.float64(-0.0), 2.0), (np.float64(-0.0), 3.0)]
    for k in (1, 2):
        got = tad._objective_at(terms[:k], np.array([0.5, 1.0]))
        assert [math.copysign(1.0, v) for v in got] == [1.0, 1.0]


def test_unreachable_tolerance_names_a_chord_at_the_floor():
    with open(TAD_14) as fh:
        w = precompute_cij(ContactMatrix.from_csv(fh.read()))
    with pytest.raises(ValueError, match="below what the chord fit can resolve") as err:
        rho_decomposition(w, 2.0, 1e-300)
    lo, hi = map(float, re.search(r"chord on \[(\S+), (\S+)\] is still off", str(err.value)).groups())
    # 40 halvings of a region no wider than the domain, or a width of 1e-12
    assert 0 < hi - lo <= max(2.0 / 2**40, 1e-12) * (1 + 1e-9)
