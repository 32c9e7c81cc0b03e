"""The block-batched chord fit of ``tad.rho_decomposition`` against the frozen
depth-first fit in ``tad_chord_reference``: the same bytes, and a chord at the
depth floor named when the tolerance cannot be met."""

import math
import os
import re

import numpy as np
import pytest

import algotune.tad as tad
from algotune.cli import dispatch
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


@pytest.mark.parametrize("block", [1024, 3])
def test_fit_matches_the_frozen_depth_first_fit(monkeypatch, block):
    monkeypatch.setattr(tad, "_CHORD_BLOCK", block)
    widest = []
    fit = tad._fit_chords

    def counted(*args):
        chords = fit(*args)
        widest.append(chords.shape[1])
        return chords

    monkeypatch.setattr(tad, "_fit_chords", counted)
    for k, w in seeded_weights():
        rho_hi, tol = (0.5, 2.0)[k % 2], (1e-4, 1e-6)[k // 2 % 2]
        dec = rho_decomposition(w, rho_hi, tol)
        ref = reference_decomposition(w, rho_hi, tol)
        assert dec.fn.to_json() == ref.fn.to_json(), (k, w.n, rho_hi, tol)
        assert dec.tad_sets == ref.tad_sets and dec.cap_warning == ref.cap_warning
    assert max(widest) > block  # some regions take more than one block


def test_cli_stdout_matches_the_frozen_fit(capsys, monkeypatch):
    outs = {}
    for name, fn in (("batched", rho_decomposition), ("reference", reference_decomposition)):
        monkeypatch.setattr(tad, "rho_decomposition", fn)
        for fmt in ("json", "csv"):
            code = dispatch(["tad", "decompose", "--matrix", TAD_14, "--rho-max", "2.0",
                             "--tolerance", "1e-6", "--format", fmt])
            captured = capsys.readouterr()
            assert code == 0
            outs[name, fmt] = captured.out, captured.err
    assert outs["batched", "json"] == outs["reference", "json"]
    assert outs["batched", "csv"] == outs["reference", "csv"]
    assert len(outs["batched", "csv"][0].splitlines()) > 1000


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
