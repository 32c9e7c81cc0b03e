"""The array-backed ``PiecewiseFunction1D`` against the frozen constructor loop in
``piecewise_reference``: equal breakpoints, pieces and tags; its list views; its
chunked JSON encoder; and the memory of a large streamed decomposition."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import algotune
import algotune.piecewise as pw
from algotune.piecewise import EPS_CMP, PiecewiseFunction1D
from algotune.tad import ContactMatrix, precompute_cij, rho_decomposition

import piecewise_reference as ref

DOMAINS = [(0.0, 1.0), (-2.0, 3.0), (-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf)]
DATA = os.path.join(os.path.dirname(__file__), "data")


def raw_function(rng, lo, hi):
    """Strictly increasing cuts inside (lo, hi), not yet canonical: gaps below
    EPS_CMP, slivers against lo and hi, runs of near-duplicate cuts; coefficients
    and int/None tags from small sets, so equal neighbours come with equal and
    with different tags."""
    a = -4.0 if lo == -math.inf else lo
    b = 4.0 if hi == math.inf else hi
    cuts = []
    for _ in range(int(rng.integers(0, 12))):
        r = rng.random()
        if r < 0.3 and cuts:  # a run of near-duplicates
            for _ in range(int(rng.integers(1, 4))):
                cuts.append(cuts[-1] + float(rng.choice([2e-10, 5e-10, 9.9e-10, 1e-9, 1.5e-9])))
        elif r < 0.4:
            cuts.append(b - float(rng.choice([1e-10, 5e-10, 1e-9, 3e-9])))
        elif r < 0.5:
            cuts.append(a + float(rng.choice([1e-10, 5e-10, 1e-9, 3e-9])))
        else:
            cuts.append(float(rng.uniform(a, b)))
    cuts = sorted({c for c in cuts if lo < c < hi})
    pieces = [
        (float(rng.choice([0.0, -0.0, 1.0])), float(rng.choice([0.0, 2.0, rng.normal()])),
         None if rng.random() < 0.5 else int(rng.integers(0, 2)))
        for _ in range(len(cuts) + 1)
    ]
    return cuts, pieces


def corpus(seed, cases):
    rng = np.random.default_rng(seed)
    for k in range(cases):
        lo, hi = DOMAINS[k % len(DOMAINS)]
        yield lo, hi, *raw_function(rng, lo, hi)


def test_constructor_matches_the_frozen_loop():
    kinds = dict(narrow=0, hi_sliver=0, merged_same_tag=0, kept_other_tag=0)
    for lo, hi, cuts, pieces in corpus(5, 1500):
        fn = PiecewiseFunction1D(lo, hi, cuts, pieces)
        want_b, want_p = ref.canonicalize(lo, hi, cuts, pieces)
        assert fn.breakpoints == want_b and fn.pieces == want_p, (lo, hi, cuts, pieces)
        assert [p[2] for p in fn.pieces] == [p[2] for p in want_p]  # == also says 0 == None is False
        assert all(type(b) is float for b in fn.breakpoints)
        assert all(type(s) is float and type(c) is float for s, c, _ in fn.pieces)
        assert PiecewiseFunction1D.from_arrays(lo, hi, cuts, *zip(*pieces)) == fn
        kinds["narrow"] += any(0 < y - x < EPS_CMP for x, y in zip([lo, *cuts], cuts))
        kinds["hi_sliver"] += bool(cuts) and hi - cuts[-1] < EPS_CMP
        for p, q in zip(pieces, pieces[1:]):
            if p[:2] == q[:2]:
                kinds["merged_same_tag" if p[2] == q[2] else "kept_other_tag"] += 1
    assert min(kinds.values()) > 50, kinds


@pytest.mark.parametrize("lo,hi,cuts", [
    (0.0, 1.0, [0.5, 0.5]), (0.0, 1.0, [0.6, 0.4]), (0.0, 1.0, [0.0]), (0.0, 1.0, [1.0]),
    (0.0, 1.0, [math.nan]), (-math.inf, 1.0, [-math.inf]), (0.0, math.inf, [math.inf]),
    (1.0, 1.0, []), (math.nan, 1.0, []),
])
def test_constructor_rejects_what_the_loop_rejects(lo, hi, cuts):
    pieces = [(0.0, float(k), None) for k in range(len(cuts) + 1)]
    with pytest.raises(ValueError) as want:
        ref.canonicalize(lo, hi, cuts, pieces)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        PiecewiseFunction1D(lo, hi, cuts, pieces)


def test_constructor_rejects_a_wrong_piece_count():
    for pieces in ([(0.0, 1.0, None)], [(0.0, 1.0, None)] * 3):
        with pytest.raises(ValueError, match=re.escape("need exactly len(breakpoints) + 1 pieces")):
            PiecewiseFunction1D(0.0, 1.0, [0.5], pieces)
    with pytest.raises(ValueError, match="pieces"):
        PiecewiseFunction1D.from_arrays(0.0, 1.0, [0.5], [0.0, 0.0], [1.0, 2.0], [None])


def test_breakpoints_and_pieces_are_lists_apart_from_the_function():
    fn = PiecewiseFunction1D(0.0, 3.0, [1.0, 2.0], [(0.0, 1.0, 7), (1.0, 0.0, None), (0.0, 2.0, 7)])
    assert len(fn.pieces) == 3 and len(fn.breakpoints) == 2
    assert fn.pieces[-1] == (0.0, 2.0, 7) and fn.pieces[1:] == [(1.0, 0.0, None), (0.0, 2.0, 7)]
    assert fn.breakpoints[-1] == 2.0 and fn.breakpoints[:1] == [1.0]
    assert [1.0, 2.0] == fn.breakpoints != [1.0]
    assert repr(fn.breakpoints) == "[1.0, 2.0]"
    assert np.asarray(fn.breakpoints).tolist() == [1.0, 2.0]
    copy = PiecewiseFunction1D(0.0, 3.0, fn.breakpoints, fn.pieces)
    fn.pieces[0] = (0.0, 0.0, None)
    assert fn == copy
    with pytest.raises(IndexError):
        fn.pieces[3]
    untagged = PiecewiseFunction1D(0.0, 1.0, [0.5], [(0.0, 1.0, None), (0.0, 2.0, None)])
    assert list(untagged.pieces) == [(0.0, 1.0, None), (0.0, 2.0, None)]


def test_json_round_trip_and_chunks(monkeypatch):
    extra = {"piece_count": 3, "tad_sets": [[[0, 1]]]}
    fns = [PiecewiseFunction1D(lo, hi, cuts, pieces) for lo, hi, cuts, pieces in corpus(11, 300)]
    for chunk in (pw._JSON_CHUNK, 1, 2, 3):
        monkeypatch.setattr(pw, "_JSON_CHUNK", chunk)
        for fn in fns:
            text = fn.to_json()
            assert text == json.dumps(fn.to_dict())
            assert PiecewiseFunction1D.from_json(text) == fn
            assert "".join(fn.json_chunks(extra)) == json.dumps({**fn.to_dict(), **extra})
            assert len(list(fn.json_chunks())) == -(-len(fn.pieces) // chunk)  # one per chunk of pieces


def test_tad_chords_keep_their_tags_as_one_tuple():
    m = np.triu(np.random.default_rng(3).uniform(0, 3, size=(9, 9)), 1)
    fn = rho_decomposition(precompute_cij(ContactMatrix(m + m.T)), 2.0, 1e-6).fn
    assert isinstance(fn._tags, tuple) and all(type(t) is int for t in fn._tags)
    assert PiecewiseFunction1D.from_json(fn.to_json()) == fn


# runs the CLI in a grandchild, so that RUSAGE_CHILDREN holds that process alone
CHILD = textwrap.dedent("""
    import resource, subprocess, sys
    subprocess.run(sys.argv[1:], check=True)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
""")


def test_large_decomposition_streams_its_json(tmp_path):
    """55 MB of chords: written a chunk at a time, byte for byte ``json.dumps``."""
    out = tmp_path / "tad.json"
    matrix = os.path.join(DATA, "tad_14.csv")
    src = os.path.dirname(os.path.dirname(algotune.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-m", "algotune.cli", "tad", "decompose", "--matrix", matrix,
            "--rho-max", "4", "--tolerance", "1e-11", "--format", "json", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=env,
                          check=True)
    peak_mb = int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 250, peak_mb

    with open(matrix) as fh:
        dec = rho_decomposition(precompute_cij(ContactMatrix.from_csv(fh.read())), 4.0, 1e-11)
    assert len(dec.fn.pieces) > 100_000
    d = dec.fn.to_dict()
    d["tad_sets"] = [[list(iv) for iv in t.intervals] for t in dec.tad_sets]
    assert out.read_text() == json.dumps(d) + "\n"
