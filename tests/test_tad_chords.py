"""The certified chord fit of ``tad.rho_decomposition`` against the frozen
depth-first fit in ``tad_chord_reference``: the same regions and sets, within
tol everywhere, with fewer pieces; and the bound on the tolerance named when
it cannot be met."""

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
        # the frozen fit places each set change only within res = max(tol / 1000, 1e-13);
        # the live one places it at adjacent doubles
        (edges, tags), (ref_edges, ref_tags) = regions(dec.fn), regions(ref.fn)
        assert tags == ref_tags, k
        res = max(tol * 1e-3, 1e-13)
        assert max(abs(e - f) for e, f in zip(edges, ref_edges)) <= res / 2, k
        assert len(dec.fn.pieces) <= len(ref.fn.pieces), k
        ours, theirs = ours + len(dec.fn.pieces), theirs + len(ref.fn.pieces)
    assert ours <= 0.55 * theirs, (ours, theirs)


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
def test_neighbouring_pieces_agree_inside_a_region(tol):
    # both pieces take the lowered value at their shared chord end: at most
    # the rounding of two slope-intercept evaluations apart
    for k, w, rho_hi in corpus():
        fn = rho_decomposition(w, rho_hi, tol).fn
        for b, (s0, c0, t0), (s1, c1, t1) in zip(fn.breakpoints, fn.pieces, fn.pieces[1:]):
            if t0 == t1:
                scale = abs(s0 * b) + abs(c0) + abs(s1 * b) + abs(c1)
                assert abs((s0 * b + c0) - (s1 * b + c1)) <= 4 * 2.0**-52 * scale, (k, b)


# (contact scale, tol): beside a set change the other set can be optimal and lead the
# piece's set by up to their slope gap times the change's misplacement, which grows with
# the contacts while tol does not.  Changes placed within tol / 1000 were 1.23 * tol off at
# 3e4 and 14.1 * tol at 1e5 with tol 1e-4; at adjacent doubles the precondition
# tol >= 2**-41 * V(0) bounds the lead (1e5 with tol 1e-6 is just above it)
ROOM_CASES = [(1.0, 1e-6), (100.0, 1e-6), (1e4, 1e-6), (2e4, 1e-6), (3e4, 1e-6), (1e5, 1e-4),
              (1e5, 1e-6)]


@pytest.mark.parametrize("scale, tol", ROOM_CASES,
                         ids=[f"{s}" if t == 1e-6 else f"{s}-{t}" for s, t in ROOM_CASES])
def test_lowered_chords_leave_room_for_the_root_resolution(scale, tol):
    with open(TAD_14) as fh:
        w = precompute_cij(ContactMatrix(scale * ContactMatrix.from_csv(fh.read()).m))
    fn = rho_decomposition(w, 4.0, tol).fn
    changes = [b for b, (*_, s), (*_, t) in zip(fn.breakpoints, fn.pieces, fn.pieces[1:]) if s != t]
    assert len(changes) == 3
    for b in changes:
        for x in (b + np.linspace(-2e-9, 2e-9, 41)).tolist():
            assert abs(fn.value(x) - tad.tad_optimize(w, x)[1]) <= tol, (b, x)


def planted_terms():
    # span 19 next to spans 1 and 2: g'' falls by a factor over 100 on [0, 4]
    return [(0.7, 19.0), (1.3, 2.0), (0.4, 1.0)]


def second_derivative(terms, x):
    return sum(c * math.log(s) ** 2 * s**-x for c, s in terms)


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_planted_chords_stay_within_tol_where_the_curvature_falls(tol):
    terms = planted_terms()
    assert second_derivative(terms, 0.0) > 100 * second_derivative(terms, 4.0)
    chords = tad._fit_chords(terms, 0.0, 4.0, tol)
    lo, hi, vlo, vhi = chords
    assert lo[0] == 0.0 and hi[-1] == 4.0 and (lo[1:] == hi[:-1]).all()
    assert (hi - lo >= EPS_CMP).all()

    def g(x):  # tad_objective's sum
        return math.fsum(c / s**x for c, s in terms)

    # numpy's exp in place of the C library's pow: within a few ulps
    assert all(abs(v - g(x)) <= 4 * math.ulp(g(x)) for v, x in zip(vlo.tolist(), lo.tolist()))
    # lowered by half the largest certified height, as rho_decomposition lowers them
    delta = 0.5 * tad._chord_bound(terms, chords)
    assert 0.99 * tol <= delta <= tol
    # dense inside every chord, and against its ends
    for frac in np.linspace(0.0, 1.0, 41 if len(lo) < 2000 else 9):
        x = lo + frac * (hi - lo)
        chord = vlo + (vhi - vlo) / (hi - lo) * (x - lo) - delta
        assert max(abs(c - g(t)) for c, t in zip(chord.tolist(), x.tolist())) <= tol
    # near the fewest pieces any linear fit within tol can take, the integral of
    # sqrt(g'' / 16 tol): a line within tol of g over width h needs h**2 * g'' / 16 <= tol
    xs = np.linspace(0.0, 4.0, 4001)
    density = np.sqrt(second_derivative(terms, xs) / (16 * tol))
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


def test_objective_at_is_tad_objective_within_a_few_ulps():
    # numpy's exp(-x * ln s) in place of the C library's pow: each term is off by a few
    # ulps plus the rounding of x * ln s, so the sum by that much of the terms' magnitudes
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
            for x, v in zip(xs.tolist(), got):
                want = tad_objective(w, t, x)
                scale = sum(abs(a) * s**-x * (4 + n_terms + x * math.log(s)) for a, s in terms)
                assert abs(v - want) <= 2.0**-52 * scale + n_terms * math.ulp(0.0), (terms, x)


def test_fsum_signed_zero_is_kept():
    # fsum returns 0.0 for a sum of negative zeros; the array sum must too
    terms = [(np.float64(-0.0), 2.0), (np.float64(-0.0), 3.0)]
    for k in (1, 2):
        got = tad._objective_at(terms[:k], np.array([0.5, 1.0]))
        assert [math.copysign(1.0, v) for v in got] == [1.0, 1.0]


@pytest.mark.parametrize("tol", [1e-300, 1e-13])
def test_unreachable_tolerance_names_the_bound(tol):
    with open(TAD_14) as fh:
        w = precompute_cij(ContactMatrix.from_csv(fh.read()))
    with pytest.raises(ValueError, match=f"tol={tol!r} is below what the chord fit can resolve") as err:
        rho_decomposition(w, 2.0, tol)
    bound = float(re.search(r"tol >= 2\*\*-41 \* V\(0\) = (\S+), where", str(err.value)).group(1))
    assert bound == 2.0**-41 * tad.tad_optimize(w, 0.0)[1]
