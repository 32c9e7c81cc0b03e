import json
import math

import numpy as np
import pytest

from algotune.piecewise import (
    EPS_CMP,
    Line1D,
    PiecewiseFunction1D,
    argmax,
    average,
    count_oscillations,
    sweep_constant,
    upper_envelope,
)


def test_envelope_single_line():
    fn = upper_envelope([Line1D(0.0, 1.0, tag=0)], 0.0, 1.0)
    assert fn.breakpoints == []
    assert fn.pieces == [(0.0, 1.0, 0)]


def test_envelope_two_line_intersection():
    fn = upper_envelope([Line1D(1.0, 0.0, 0), Line1D(-1.0, 1.0, 1)], 0.0, 1.0)
    assert fn.breakpoints == [0.5]
    assert [p[2] for p in fn.pieces] == [1, 0]


def test_envelope_dominated_flat_line_excluded():
    lines = [Line1D(1.0, 0.0, 0), Line1D(-1.0, 1.0, 1), Line1D(0.0, 0.4, 2)]
    fn = upper_envelope(lines, 0.0, 1.0)
    assert fn.breakpoints == [0.5]
    assert [p[2] for p in fn.pieces] == [1, 0]


def test_envelope_tie_interval_lowest_tag():
    lines = [Line1D(0.0, 1.0, 5), Line1D(0.0, 1.0, 2)]
    fn = upper_envelope(lines, 0.0, 1.0)
    assert fn.pieces == [(0.0, 1.0, 2)]


def test_envelope_empty_rejected():
    with pytest.raises(ValueError, match="no candidates"):
        upper_envelope([], 0.0, 1.0)


def test_envelope_matches_max_on_random_lines():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        k = rng.integers(1, 21)
        lines = [
            Line1D(float(s), float(c), tag=i)
            for i, (s, c) in enumerate(zip(rng.normal(size=k), rng.normal(size=k)))
        ]
        fn = upper_envelope(lines, -2.0, 3.0)
        for x in rng.uniform(-2.0, 3.0, size=100):
            want = max(ln.value(x) for ln in lines)
            got = fn.value(float(x))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_average_constants():
    f = PiecewiseFunction1D.constant(0, 1, 0.5)
    g = PiecewiseFunction1D.constant(0, 1, 0.7)
    avg = average([f, g])
    assert avg.value(0.3) == pytest.approx(0.6)
    assert avg.breakpoints == []


def test_average_opposing_steps_cancel():
    f = PiecewiseFunction1D(0, 1, [0.5], [(0, 1.0, None), (0, 0.0, None)])
    g = PiecewiseFunction1D(0, 1, [0.5], [(0, 0.0, None), (0, 1.0, None)])
    avg = average([f, g])
    assert avg.breakpoints == []
    assert avg.value(0.2) == pytest.approx(0.5)


def test_average_idempotent():
    f = PiecewiseFunction1D(0, 2, [1.0], [(1.0, 0.0, 3), (0.0, 1.0, 4)])
    avg = average([f, f])
    for x in (0.0, 0.5, 1.0, 1.7, 2.0):
        assert avg.value(x) == pytest.approx(f.value(x), abs=1e-12)


def test_average_is_linear_pointwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        def rand_fn():
            bps = sorted(set(rng.uniform(0.1, 0.9, size=rng.integers(0, 4))))
            pieces = [
                (float(s), float(c), None)
                for s, c in zip(rng.normal(size=len(bps) + 1), rng.normal(size=len(bps) + 1))
            ]
            return PiecewiseFunction1D(0, 1, bps, pieces)

        f, g = rand_fn(), rand_fn()
        avg = average([f, g])
        for x in rng.uniform(0, 1, size=20):
            x = float(x)
            assert avg.value(x) == pytest.approx((f.value(x) + g.value(x)) / 2, abs=1e-12)


def test_average_mismatched_domains_rejected():
    f = PiecewiseFunction1D.constant(0, 1, 0.5)
    g = PiecewiseFunction1D.constant(0, 2, 0.5)
    with pytest.raises(ValueError, match="domain"):
        average([f, g])


def test_argmax_constant_leftmost():
    fn = PiecewiseFunction1D.constant(0, 1, 0.6)
    assert argmax(fn) == (0.0, 0.6, False)


def test_argmax_rising_line_at_closed_end():
    fn = PiecewiseFunction1D(0, 1, [], [(1.0, 0.0, None)])
    assert argmax(fn) == (1.0, 1.0, False)


def test_argmax_step_up_at_breakpoint():
    fn = PiecewiseFunction1D(0, 1, [0.3], [(0, 0.0, None), (0, 1.0, None)])
    assert argmax(fn) == (0.3, 1.0, False)


def test_argmax_limit_supremum_flagged():
    # rises to 1 just before 0.5, then drops to 0
    fn = PiecewiseFunction1D(0, 1, [0.5], [(2.0, 0.0, None), (0.0, 0.0, None)])
    res = argmax(fn)
    assert res.param == 0.5
    assert res.value == pytest.approx(1.0)
    assert res.attained_in_limit


def test_argmax_unbounded_rejected():
    fn = PiecewiseFunction1D(0, math.inf, [], [(1.0, 0.0, None)])
    with pytest.raises(ValueError, match="unbounded"):
        argmax(fn)


def test_count_oscillations_examples():
    const = PiecewiseFunction1D.constant(0, 1, 0.5)
    assert count_oscillations(const, 0.7) == 0
    line = PiecewiseFunction1D(0, 1, [], [(1.0, 0.0, None)])
    assert count_oscillations(line, 0.5) == 1


def test_count_oscillations_peak_touch_counts_twice():
    fn = PiecewiseFunction1D(0, 1, [0.5], [(1.0, 0.0, None), (-1.0, 1.0, None)])
    assert count_oscillations(fn, 0.5) == 2  # touches 0.5 only at the peak


def test_count_oscillations_piecewise_constant_capped_by_breakpoints():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(0, 6))
        bps = sorted(set(rng.uniform(0.05, 0.95, size=k)))
        pieces = [(0.0, float(v), None) for v in rng.uniform(0, 1, size=len(bps) + 1)]
        fn = PiecewiseFunction1D(0, 1, bps, pieces)
        for z in rng.uniform(0, 1, size=10):
            assert count_oscillations(fn, float(z)) <= len(fn.breakpoints)


def test_canonical_form_merges_equal_pieces():
    fn = PiecewiseFunction1D(0, 1, [0.5], [(0.0, 1.0, None), (0.0, 1.0, None)])
    assert fn.breakpoints == []
    assert len(fn.pieces) == 1


def test_canonical_form_coalesces_close_breakpoints():
    fn = PiecewiseFunction1D(
        0,
        1,
        [0.5, 0.5 + 1e-12],
        [(0.0, 1.0, None), (0.0, 2.0, None), (0.0, 3.0, None)],
    )
    assert fn.breakpoints == [0.5]
    assert [p[1] for p in fn.pieces] == [1.0, 3.0]


def test_half_open_convention_at_breakpoint():
    fn = PiecewiseFunction1D(0, 1, [0.5], [(0, 0.0, None), (0, 1.0, None)])
    assert fn.value(0.5) == 1.0  # breakpoint belongs to the right piece
    assert fn.value(1.0) == 1.0  # final piece closed at hi


def test_infinite_domain_sentinels():
    fn = PiecewiseFunction1D(
        -math.inf, math.inf, [0.0], [(0.0, 1.0, None), (-1.0, 1.0, None)]
    )
    res = argmax(fn)  # constant toward -inf, decreasing toward +inf
    assert res.value == 1.0
    assert count_oscillations(fn, 0.5) == 1
    with pytest.raises(ValueError, match="bounded"):
        upper_envelope([Line1D(1.0, 0.0, 0)], 0.0, math.inf)
    rising = PiecewiseFunction1D(0, math.inf, [], [(1.0, 0.0, None)])
    with pytest.raises(ValueError, match="unbounded"):
        argmax(rising)


def test_json_round_trip():
    fn = PiecewiseFunction1D(0, 2, [1.0], [(1.0, 0.5, 3), (0.0, 1.5, None)])
    blob = fn.to_json()
    parsed = json.loads(blob)
    assert set(parsed) == {"lo", "hi", "breakpoints", "pieces"}
    assert PiecewiseFunction1D.from_json(blob) == fn


def step_run(steps, values, calls):
    """Toy run: the step of [steps[i], steps[i+1]) holding x, certified exactly."""
    edges = [-math.inf, *steps, math.inf]

    def run(x):
        calls.append(x)
        i = sum(t <= x for t in steps)
        return values[i], edges[i], edges[i + 1]

    return run


def test_sweep_probe_on_a_step():
    calls = []
    fn = sweep_constant(step_run([0.25, 0.5], [1.0, 2.0, 3.0], calls), 0.0, 1.0)
    assert calls[0] == 0.5  # the first probe lands exactly on a step
    assert fn.breakpoints == [0.25, 0.5]
    assert [p[1] for p in fn.pieces] == [1.0, 2.0, 3.0]
    assert fn.value(0.5) == 3.0 and fn.value(0.25) == 2.0
    assert len(calls) == 3


def test_sweep_probe_on_a_tie_that_flips_both_ways():
    # at exactly 0.5 the run certifies only the point itself
    def run(x):
        if x == 0.5:
            return 9.0, 0.5, 0.5
        return (1.0, -math.inf, 0.5) if x < 0.5 else (2.0, 0.5, math.inf)

    fn = sweep_constant(run, 0.0, 1.0)
    assert fn.breakpoints == [0.5]
    assert [p[1] for p in fn.pieces] == [1.0, 2.0]
    assert fn.value(0.5) == 2.0


def test_sweep_skips_gap_narrower_than_eps():
    calls = []
    sliver = 0.3 + 0.4 * EPS_CMP
    fn = sweep_constant(step_run([0.3, sliver], [1.0, 5.0, 2.0], calls), 0.0, 1.0)
    assert len(calls) == 2  # the sliver is never probed
    assert fn.breakpoints == [0.3]  # and takes the value on its right
    assert [p[1] for p in fn.pieces] == [1.0, 2.0]


def test_sweep_constant_run_has_no_breakpoints():
    calls = []
    fn = sweep_constant(step_run([], [7.0], calls), 0.0, 4.0)
    assert fn.breakpoints == [] and fn.pieces == [(0.0, 7.0, None)]
    assert len(calls) == 1
    # a certificate narrower than the true piece costs runs, not breakpoints
    fn = sweep_constant(lambda x: (7.0, x - 0.1, x + 0.1), 0.0, 4.0)
    assert fn.breakpoints == [] and fn.pieces == [(0.0, 7.0, None)]
