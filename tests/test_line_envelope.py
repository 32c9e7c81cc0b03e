"""``piecewise.sweep_linear`` and the envelopes built on it.

``upper_envelope`` is checked against the frozen pairwise-cut envelope in
``envelope_reference``; ``indel_breakpoints`` against its solver-call budget.
"""

import random

import numpy as np
import pytest

import algotune.seqalign as seqalign
from algotune.piecewise import Line1D, sweep_linear, upper_envelope
from algotune.seqalign import Sequence, indel_breakpoints
from envelope_reference import upper_envelope as reference_envelope


def max_line(lines, calls=None):
    """Solver over a fixed line set, with the tie rule ``upper_envelope`` documents."""

    def solve(x):
        if calls is not None:
            calls.append(x)
        best = max(lines, key=lambda ln: (ln.value(x), ln.slope, -ln.tag))
        return best.slope, best.intercept, best.tag

    return solve


def each(solve):
    """The batch solver ``sweep_linear`` takes, from a solver of one point."""
    return lambda xs: [solve(x) for x in xs]


def test_tie_at_lo_goes_to_the_right_adjacent_line():
    flat, rising, falling = Line1D(0.0, 1.0, 0), Line1D(1.0, 1.0, 1), Line1D(-2.0, 2.5, 2)
    # flat and rising tie at lo = 0; rising is the max just right of it
    fn = sweep_linear(each(max_line([flat, rising])), 0.0, 1.0)
    assert fn.breakpoints == [] and fn.pieces == [(1.0, 1.0, 1)]
    # a solver that returns the left line at the tie still loses the piece
    fn = sweep_linear(each(lambda x: (0.0, 1.0, 0) if x == 0.0 else (1.0, 1.0, 1)), 0.0, 1.0)
    assert fn.breakpoints == [] and fn.pieces == [(1.0, 1.0, 1)]
    # falling ties nothing at lo and holds [0, 0.5); rising takes over after
    fn = sweep_linear(each(max_line([flat, rising, falling])), 0.0, 1.0)
    assert fn.breakpoints == [0.5]
    assert [p[2] for p in fn.pieces] == [2, 1]


def test_tie_interval_of_identical_lines_takes_the_lowest_tag():
    lines = [Line1D(0.0, 1.0, 5), Line1D(0.0, 1.0, 2), Line1D(0.0, 1.0, 7), Line1D(2.0, -0.5, 3)]
    calls = []
    fn = sweep_linear(each(max_line(lines, calls)), 0.0, 1.0)
    assert fn.breakpoints == [0.75]
    assert fn.pieces == [(0.0, 1.0, 2), (2.0, -0.5, 3)]
    assert len(calls) <= 2 * len(fn.pieces) + 1


def test_parallel_end_lines_keep_the_higher_one():
    lines = [Line1D(1.0, 0.0, 0), Line1D(1.0, 0.25, 1)]
    fn = sweep_linear(each(lambda x: (1.0, 0.0, 0) if x < 0.5 else (1.0, 0.25, 1)), 0.0, 1.0)
    assert fn.pieces == [(1.0, 0.25, 1)]
    assert fn == upper_envelope(lines, 0.0, 1.0)


def test_identical_end_lines_keep_the_left_tag():
    # e.g. two co-optimal alignments with equal feature counts
    fn = sweep_linear(each(lambda x: (1.0, 0.0, 0 if x < 0.5 else 1)), 0.0, 1.0)
    assert fn.pieces == [(1.0, 0.0, 0)]


def test_line_within_1e9_of_the_crossing_does_not_split():
    falling, rising = Line1D(-1.0, 1.0, 0), Line1D(1.0, 0.0, 1)
    near = Line1D(0.0, 0.5 + 2e-10, 2)  # above the crossing at 0.5, by less than 1e-9
    fn = sweep_linear(each(max_line([falling, rising, near])), 0.0, 1.0)
    assert fn.breakpoints == [0.5]
    assert [p[2] for p in fn.pieces] == [0, 1]
    far = Line1D(0.0, 0.5 + 1e-6, 2)
    fn = sweep_linear(each(max_line([falling, rising, far])), 0.0, 1.0)
    assert [p[2] for p in fn.pieces] == [0, 2, 1]


def test_solver_calls_within_two_per_piece_on_indel_pairs(monkeypatch):
    calls = []  # probe points: one per pair of each batch
    align = seqalign.align_batch

    def counted(pairs, params, *args, **kwargs):
        calls.extend(p.rho2 for p in params)
        return align(pairs, params, *args, **kwargs)

    monkeypatch.setattr(seqalign, "align_batch", counted)
    rng = random.Random(20)
    for _ in range(50):
        alphabet = rng.choice(["AC", "ACG", "ACGT"])
        s1 = Sequence(rng.choices(alphabet, k=rng.randint(1, 40)))
        s2 = Sequence(rng.choices(alphabet, k=rng.randint(1, 40)))
        calls.clear()
        fn = indel_breakpoints(s1, s2, rng.uniform(0.5, 7.3))
        assert len(calls) <= 2 * len(fn.pieces) + 1


def test_equals_reference_on_integer_and_tie_heavy_lines():
    rng = np.random.default_rng(11)
    for trial in range(600):
        k = int(rng.integers(1, 16))
        span = 2 if trial % 2 else 6  # narrow spans make many lines coincide or tie
        slopes = rng.integers(-span, span + 1, size=k)
        icepts = rng.integers(-span, span + 1, size=k)
        tags = rng.permutation(3 * k)[:k]
        lines = [Line1D(float(s), float(c), int(t)) for s, c, t in zip(slopes, icepts, tags)]
        lo = float(rng.integers(-3, 1))
        hi = lo + float(rng.integers(1, 5))
        assert upper_envelope(lines, lo, hi) == reference_envelope(lines, lo, hi)


def test_equals_reference_on_random_float_lines():
    rng = np.random.default_rng(12)
    for _ in range(300):
        k = int(rng.integers(1, 16))
        lines = [
            Line1D(float(s), float(c), i)
            for i, (s, c) in enumerate(zip(rng.normal(size=k), rng.normal(size=k)))
        ]
        assert upper_envelope(lines, -2.0, 3.0) == reference_envelope(lines, -2.0, 3.0)


def test_concurrent_float_lines_agree_with_reference():
    # lines through one point: the pairwise cuts there differ in the last bits
    rng = np.random.default_rng(13)
    for _ in range(400):
        k = int(rng.integers(2, 12))
        px, py = float(rng.uniform(0.0, 1.0)), float(rng.uniform(-1.0, 1.0))
        slopes = rng.uniform(-3, 3, size=k)
        lines = [Line1D(float(s), py - float(s) * px, i) for i, s in enumerate(slopes)]
        got, want = upper_envelope(lines, 0.0, 1.0), reference_envelope(lines, 0.0, 1.0)
        assert len(got.breakpoints) == len(want.breakpoints)
        assert got.breakpoints == pytest.approx(want.breakpoints, rel=0, abs=1e-12)
        cuts = [0.0, *want.breakpoints, 1.0]
        for a, b in zip(cuts, cuts[1:]):
            x = 0.5 * (a + b)
            assert got.pieces[got.piece_index(x)][2] == want.pieces[want.piece_index(x)][2]
