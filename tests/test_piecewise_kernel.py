"""The array ERM kernel against the frozen Python loops in ``piecewise_reference``:
equal (``==``) averaged functions, equal ``ArgmaxResult``s, equal batch duals,
equal oscillation counts and byte-identical ``learn run`` CSVs."""

import json
import math

import numpy as np
import pytest

import algotune.learn as learn
from algotune.cli import dispatch
from algotune.learn import ExperimentConfig, erm, rows_to_csv, run_experiment
from algotune.mechanisms import anonymous_reserve_dual, anonymous_reserve_duals
from algotune.piecewise import (
    EPS_CMP,
    PiecewiseBatch,
    PiecewiseFunction1D,
    argmax,
    average,
    count_oscillations,
)
from algotune.tad import ContactMatrix, precompute_cij, rho_decomposition

import piecewise_reference as ref

DOMAINS = [(0.0, 1.0), (-1.0, 2.0), (-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf)]


def _coef(rng):
    r = rng.random()
    if r < 0.2:
        return 0.0
    if r < 0.3:
        return -0.0
    if r < 0.5:
        return float(rng.integers(-2, 3))  # ties between pieces and functions
    return float(rng.normal())


def _raw_function(rng, lo, hi, shared):
    """Strictly increasing cuts inside (lo, hi), not yet canonical: shared cuts,
    chains of sub-EPS_CMP steps, slivers against lo and hi; int and None tags."""
    a = -5.0 if lo == -math.inf else lo
    b = 5.0 if hi == math.inf else hi
    cuts = []
    for _ in range(int(rng.integers(0, 8))):
        r = rng.random()
        if r < 0.3:
            cuts.append(float(rng.choice(shared)))
        elif r < 0.55 and cuts:
            cuts.append(cuts[-1] + float(rng.choice([3e-10, 6e-10, 9e-10, 1e-9, 1.1e-9])))
        elif r < 0.65:
            cuts.append(b - float(rng.choice([3e-10, 9e-10, 1e-9, 2e-9])))
        elif r < 0.7:
            cuts.append(a + float(rng.choice([3e-10, 9e-10, 1e-9, 2e-9])))
        else:
            cuts.append(float(rng.uniform(a, b)))
    cuts = sorted({c for c in cuts if lo < c < hi})
    tags = [int(rng.integers(0, 3)) if rng.random() < 0.5 else None for _ in range(len(cuts) + 1)]
    return cuts, [(_coef(rng), _coef(rng), t) for t in tags]


def corpus(seed=20, cases=600):
    """Lists of functions on one domain each."""
    rng = np.random.default_rng(seed)
    for k in range(cases):
        lo, hi = DOMAINS[k % len(DOMAINS)]
        shared = np.linspace(max(lo, -3.0), min(hi, 3.0), 7)[1:-1]
        raws = [_raw_function(rng, lo, hi, shared) for _ in range(int(rng.integers(1, 7)))]
        yield [PiecewiseFunction1D(lo, hi, c, p) for c, p in raws]


def tad_duals():
    """Chord duals of ``tad.rho_decomposition`` on seeded matrices, in groups of 3."""
    rng = np.random.default_rng(4407)
    duals = []
    for k in range(12):
        n = int(rng.integers(5, 12))
        a = rng.integers(0, 4, size=(n, n)).astype(float) if k % 2 else rng.uniform(0, 3, size=(n, n))
        m = np.triu(a, 1)
        duals.append(rho_decomposition(precompute_cij(ContactMatrix(m + m.T)), 2.0, 1e-6).fn)
    return [duals[i:i + 3] for i in range(0, len(duals), 3)]


def _same(got, want):
    """``==`` on results, plus the sign of a zero parameter and exact float types."""
    assert got == want
    assert type(got.param) is float and type(got.value) is float
    assert math.copysign(1.0, got.param) == math.copysign(1.0, want.param)


def _argmax_or_error(fn, f):
    try:
        return f(fn)
    except ValueError as e:
        return str(e)


def test_average_and_argmax_match_the_loops():
    sub_eps = 0
    for fns in corpus():
        want = ref.average(fns)
        assert average(fns) == want
        cuts = sorted(b for f in fns for b in f.breakpoints)
        sub_eps += any(0 < y - x < EPS_CMP for x, y in zip(cuts, cuts[1:]))
        for fn in fns + [want]:
            got, exp = _argmax_or_error(fn, argmax), _argmax_or_error(fn, ref.argmax)
            if isinstance(exp, str):
                assert got == exp
            else:
                _same(got, exp)
        if not isinstance(_argmax_or_error(want, ref.argmax), str):
            assert erm(fns) == ref.erm(fns)
    assert sub_eps > 50  # the corpus reaches the walk over narrow gaps


def test_canonical_batch_matches_the_constructor():
    rng = np.random.default_rng(77)
    for k in range(400):
        lo, hi = DOMAINS[k % len(DOMAINS)]
        shared = np.linspace(max(lo, -3.0), min(hi, 3.0), 7)[1:-1]
        raws = [_raw_function(rng, lo, hi, shared) for _ in range(int(rng.integers(1, 5)))]
        starts = [x for cuts, _ in raws for x in [lo] + cuts]
        pieces = [p for _, ps in raws for p in ps]
        batch = PiecewiseBatch(lo, hi, np.array(starts), *np.array([p[:2] for p in pieces]).T.copy())
        want = [PiecewiseFunction1D(lo, hi, cuts, [(s, c, None) for s, c, _ in ps]) for cuts, ps in raws]
        assert batch.canonical().functions() == want


def test_erm_on_tad_duals_matches_the_loops():
    for group in tad_duals():
        want = ref.average(group)
        assert average(group) == want
        _same(argmax(want), ref.argmax(want))
        assert erm(group) == ref.erm(group)


def test_erm_ties_match_the_loop():
    """Reserve duals on a grid of values tie exactly; the running sums often round
    the tie apart, and both ERMs give it to the leftmost maximizer."""
    rng = np.random.default_rng(8)
    moved = 0
    for _ in range(300):
        w = rng.choice(np.linspace(0.0, 1.0, int(rng.integers(3, 17))), int(rng.integers(2, 40)))
        batch = anonymous_reserve_duals(w, np.zeros_like(w))
        duals = batch.functions()
        got = erm(batch)
        assert got == erm(duals) == ref.erm(duals)
        plain = ref.argmax(ref.average(duals))
        moved += got != (plain.param, plain.value)
    assert moved >= 5


def test_count_oscillations_matches_the_loop():
    """Thresholds drawn at random, at each piece's value at its finite ends
    (where the indicator may touch z at one point), and at +-inf."""
    rng = np.random.default_rng(31)
    pairs = unbounded = flat = at_ends = 0
    for fns in corpus(seed=31, cases=900):
        for fn in fns:
            zs = [float(rng.normal()), float(rng.integers(-2, 3)), math.inf, -math.inf]
            ends = [fn.lo, *fn.breakpoints, fn.hi]
            for k, (s, c, _) in enumerate(fn.pieces):
                ends_here = [x for x in ends[k:k + 2] if math.isfinite(x)]
                zs += [s * x + c for x in ends_here]
                at_ends += len(ends_here)
                flat += s == 0
            unbounded += not math.isfinite(fn.hi - fn.lo)
            for z in zs:
                assert count_oscillations(fn, z) == ref.count_oscillations(fn, z), (fn, z)
            pairs += len(zs)
    assert pairs >= 20_000 and unbounded >= 500 and flat >= 500 and at_ends >= 5_000


def test_count_oscillations_rejects_a_nan_threshold():
    fn = PiecewiseFunction1D(0.0, 3.0, [1.0, 2.0], [(-1.0, 1.0, None), (0.0, 0.5, None), (-1.0, 3.0, None)])
    assert ref.count_oscillations(fn, math.nan) == 2  # although fn >= nan holds nowhere
    with pytest.raises(ValueError, match="NaN"):
        count_oscillations(fn, math.nan)


def test_argmax_unbounded_and_limit_cases():
    rising = PiecewiseFunction1D(0.0, math.inf, [1.0], [(0.0, 1.0, None), (1.0, 0.0, None)])
    falling = PiecewiseFunction1D(-math.inf, 0.0, [], [(-1.0, 0.0, None)])
    for fn in (rising, falling):
        with pytest.raises(ValueError, match="unbounded"):
            argmax(fn)
    flat_left = PiecewiseFunction1D(-math.inf, 1.0, [0.5], [(0.0, 2.0, 1), (3.0, 0.0, 2)])
    _same(argmax(flat_left), ref.argmax(flat_left))
    peak = PiecewiseFunction1D(0.0, 1.0, [0.25, 0.5], [(4.0, 0.0, 0), (0.0, 1.0, None), (0.0, 0.5, 3)])
    _same(argmax(peak), ref.argmax(peak))
    with pytest.raises(ValueError, match="one function"):
        PiecewiseBatch.of([peak, peak]).argmax()


def _bid_pairs(hi):
    """(bids, hi): zero, near zero, at hi, near hi, above hi, ties, a negative second bid."""
    e = EPS_CMP
    specials = [0.0, -0.0, 0.5 * e, e, 2 * e, 0.3, hi - 2 * e, hi - e, hi - 0.5 * e, hi,
                hi + 0.5 * e, hi + 1.0, -0.4, -1e-10]
    pairs = [sorted((a, b), reverse=True) for a in specials for b in specials]
    rng = np.random.default_rng(5)
    pairs += [sorted(map(float, rng.uniform(-0.5, 1.5 * hi, 2)), reverse=True) for _ in range(300)]
    return pairs


@pytest.mark.parametrize("hi", [1.0, 0.25, 3.0])
def test_batch_duals_match_the_scalar_loop(hi):
    pairs = _bid_pairs(hi)
    top, second = zip(*pairs)
    batch = anonymous_reserve_duals(top, second, hi)
    want = [ref.anonymous_reserve_dual(p, hi) for p in pairs]
    assert batch.functions() == want
    assert [anonymous_reserve_dual(p, hi) for p in pairs] == want
    assert anonymous_reserve_dual([0.2, 0.9, 0.5], hi) == ref.anonymous_reserve_dual([0.2, 0.9, 0.5], hi)
    assert erm(batch) == ref.erm(want)


def test_batch_duals_reject_bad_input():
    with pytest.raises(ValueError, match="positive"):
        anonymous_reserve_duals([0.5], [0.2], 0.0)
    with pytest.raises(ValueError, match="at least its second"):
        anonymous_reserve_duals([0.2], [0.5])
    with pytest.raises(ValueError, match="at least its second"):
        anonymous_reserve_duals([float("nan")], [0.5])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spa_erm_trials_match_the_loop(seed):
    cfg = ExperimentConfig("spa_erm", [1, 7, 60], trials=4, seed=seed,
                           params={"values": [0.0, 0.2, 0.2, 0.55, 0.9, 1.0, 1.0 - 1e-10, -0.3]})
    fam = learn._SpaErmFamily(cfg)
    for n in cfg.n_schedule:
        for t in range(cfg.trials):
            assert fam.trial(n, t) == ref.spa_erm_trial(fam, n, t)


@pytest.mark.parametrize("seed,schedule", [(1, [10, 100, 1000]), (7, [3, 40]), (123, [250])])
def test_learn_run_csv_is_byte_identical(tmp_path, monkeypatch, seed, schedule):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "spa_erm", "n_schedule": schedule, "trials": 5, "seed": seed}))
    out = tmp_path / "new.csv"
    assert dispatch(["learn", "run", "--config", str(cfg), "--out", str(out)]) == 0
    monkeypatch.setattr(learn._SpaErmFamily, "trial", ref.spa_erm_trial)
    old = tmp_path / "old.csv"
    assert dispatch(["learn", "run", "--config", str(cfg), "--out", str(old)]) == 0
    assert out.read_bytes() == old.read_bytes()
    assert rows_to_csv(run_experiment(ExperimentConfig.from_json(cfg.read_text()))) == old.read_text()
