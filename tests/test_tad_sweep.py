"""``tad.rho_decomposition`` against the frozen recursive search in ``tad_reference``.

The sweep must find the same optimal sets in the same order, put each set
change within 1e-8 of the old breakpoint and stay within ``tol`` of
``tad_optimize`` on a dense grid and beside every breakpoint.
"""

import gc
import math
import os

import numpy as np

import algotune.tad as tad
from algotune.tad import ContactMatrix, TadWeights, precompute_cij, rho_decomposition
from tad_reference import rho_decomposition as reference_decomposition

TOL = 1e-6


def oracle_inputs():
    """Seeded contact matrices, n 3-12, alternately uniform and small-integer (tie-heavy)."""
    rng = np.random.default_rng(2204)
    for k in range(60):
        n = int(rng.integers(3, 13))
        if k % 2:
            a = rng.integers(0, 4, size=(n, n)).astype(float)
        else:
            a = rng.uniform(0, 3, size=(n, n))
        m = np.triu(a, 1)
        yield precompute_cij(ContactMatrix(m + m.T)), (0.5, 2.0, 4.0)[k % 3]


def set_changes(w, dec):
    """Optimal objective functions in order, and the breakpoints where they change.

    Two sets whose intervals sum to the same weight at every span are tied at
    every rho (integer matrices make these common), and rounding decides which
    one ``tad_optimize`` reports; each set is keyed by its per-span weight sums.
    """
    keys, bps = [], []
    for i, (_, _, tag) in enumerate(dec.fn.pieces):
        by_span = {}
        for lo, hi in dec.tad_sets[tag].intervals:
            by_span.setdefault(hi - lo, []).append(w.c[lo][hi])
        sums = {span: math.fsum(v) for span, v in by_span.items()}
        key = tuple(sorted((span, v) for span, v in sums.items() if v))
        if not keys or keys[-1] != key:
            if keys:
                bps.append(dec.fn.breakpoints[i - 1])
            keys.append(key)
    return keys, bps


def test_matches_the_frozen_recursion():
    for w, rho_hi in oracle_inputs():
        dec = rho_decomposition(w, rho_hi, TOL)
        keys, bps = set_changes(w, dec)
        ref_keys, ref_bps = set_changes(w, reference_decomposition(w, rho_hi, TOL))
        assert keys == ref_keys
        assert max((abs(x - y) for x, y in zip(bps, ref_bps)), default=0.0) <= 1e-8
        beside = [b + e for b in bps for e in (-1e-7, 1e-7)]
        for rho in list(np.linspace(0.0, rho_hi, 201)) + beside:
            rho = float(rho)
            assert abs(dec.fn.value(rho) - tad.tad_optimize(w, rho)[1]) <= TOL


def test_analytic_crossing_takes_four_solves(monkeypatch):
    # the two-singleton instance of test_tad: one crossing at ln 4 / ln 2.5
    c = np.full((8, 8), -5.0)
    c[2][7] = 4.0
    c[1][3] = 1.0
    calls = []
    solve = tad.tad_optimize

    def counted(w, rho):
        calls.append(rho)
        return solve(w, rho)

    monkeypatch.setattr(tad, "tad_optimize", counted)
    dec = rho_decomposition(TadWeights(c), 3.0, TOL)
    assert len(dec.tad_sets) == 2
    assert len(calls) <= 4


def test_decomposition_leaves_no_reference_cycles():
    # a cycle would keep the chord list alive until the cyclic collector runs
    with open(os.path.join(os.path.dirname(__file__), "data", "tad_14.csv")) as fh:
        w = precompute_cij(ContactMatrix.from_csv(fh.read()))
    gc.collect()
    gc.disable()
    try:
        dec = rho_decomposition(w, 2.0, TOL)
        assert len(dec.fn.pieces) > 1000
        del dec
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sets_tied_at_every_rho_are_not_chased():
    # draw 151 of this scheme: an 11x11 integer matrix whose optimal sets come in
    # ties (equal weight sums per span); the scan-based sweep chased their
    # rounding through 71 set changes, 2 remain once the sums are taken per span
    rng = np.random.default_rng(5)
    for k in range(152):
        n = int(rng.integers(3, 13))
        a = rng.integers(0, 4, (n, n)).astype(float) if k % 2 else rng.uniform(0, 3, (n, n))
    m = np.triu(a, 1)
    w = precompute_cij(ContactMatrix(m + m.T))
    assert w.n == 11
    tags = [tag for *_, tag in rho_decomposition(w, 2.0, TOL).fn.pieces]
    assert sum(s != t for s, t in zip(tags, tags[1:])) <= 2


def test_planted_midpoint_rivals_are_found():
    # {(2, 4)} beats the held {(1, 2), (4, 7)} at rho = 2 by m < tol * 1e-3 and by up to
    # about 0.12 elsewhere inside, so any slack on the midpoint probe would hide it
    held, rival = tad.TadSet([(1, 2), (4, 7)]), tad.TadSet([(2, 4)])
    rng = np.random.default_rng(30)
    kept = 0
    while kept < 200:
        beta = rng.uniform(0.5, 2.0)
        gamma = beta * rng.uniform(0.86, 0.99)
        m = rng.uniform(0.05, 0.95) * TOL * 1e-3
        c = np.full((8, 8), -1.0)
        c[1][2], c[4][7], c[2][4] = beta / 4 - gamma / 9 - m, gamma, beta
        w = TadWeights(c)
        if [tad.tad_optimize(w, x)[0] for x in (0.0, 2.0, 4.0)] != [held, rival, held]:
            continue
        kept += 1
        dec = rho_decomposition(w, 4.0, TOL)
        assert rival in dec.tad_sets
        for rho in np.linspace(0.0, 4.0, 81).tolist():
            assert abs(dec.fn.value(rho) - tad.tad_optimize(w, rho)[1]) <= TOL


def test_regions_do_not_depend_on_the_tolerance():
    # the tolerance sets only the chord fit; the set changes are the same at every tol
    for w, rho_hi in oracle_inputs():
        want = set_changes(w, rho_decomposition(w, rho_hi, 1e-6))
        assert set_changes(w, rho_decomposition(w, rho_hi, 1e-3)) == want
        if 1e-9 >= 2.0**-41 * tad.tad_optimize(w, 0.0)[1]:
            assert set_changes(w, rho_decomposition(w, rho_hi, 1e-9)) == want


def test_tad_14_solver_calls_and_no_objective_evaluations(monkeypatch):
    with open(os.path.join(os.path.dirname(__file__), "data", "tad_14.csv")) as fh:
        w = precompute_cij(ContactMatrix.from_csv(fh.read()))
    calls = {"tad_optimize": 0, "exp_sum_roots": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(tad, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(tad, name, counted)

    def refused(*args):
        raise AssertionError("the region search evaluated a set's objective")

    monkeypatch.setattr(tad, "tad_objective", refused)
    dec = rho_decomposition(w, 4.0, TOL)
    assert len(dec.tad_sets) == 4
    assert calls == {"tad_optimize": 10, "exp_sum_roots": 8}
