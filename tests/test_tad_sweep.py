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

    def counted(w, rho, min_length=1):
        calls.append(rho)
        return solve(w, rho, min_length)

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
