import json
import math

import numpy as np
import pytest

from algotune.bounds import finite_class_bound, spa_estimation_bound
from algotune.greedy import KnapsackInstance, knapsack_breakpoints
from algotune.learn import _FAMILIES as FAMILIES
from algotune.learn import (
    ExperimentConfig,
    _trial_rng,
    erm,
    rows_to_csv,
    run_experiment,
    synthetic_spa_values,
)
from algotune.mechanisms import anonymous_reserve_duals, build_nam_distribution
from algotune.piecewise import PiecewiseFunction1D
import overfit_oracle
import revenue_oracle

rng = np.random.default_rng(314)


def test_erm_single_constant_dual():
    fn = PiecewiseFunction1D.constant(0, 1, 0.4)
    assert erm([fn]) == (0.0, 0.4)


def test_erm_opposing_steps_leftmost():
    f = PiecewiseFunction1D(0, 1, [0.5], [(0, 1.0, None), (0, 0.0, None)])
    g = PiecewiseFunction1D(0, 1, [0.5], [(0, 0.0, None), (0, 1.0, None)])
    rho, val = erm([f, g])
    assert rho == 0.0 and val == pytest.approx(0.5)


def test_erm_matches_grid_search_on_knapsack_duals():
    for _ in range(10):
        n = int(rng.integers(2, 7))
        inst = KnapsackInstance(
            tuple(float(v) for v in rng.uniform(1, 10, size=n)),
            tuple(float(s) for s in rng.uniform(1, 10, size=n)),
            float(rng.uniform(5, 15)),
        )
        duals = [knapsack_breakpoints(inst, 3.0)]
        rho_hat, val = erm(duals)
        grid = np.linspace(0, 3, 10_001)
        grid_best = max(duals[0].value(float(r)) for r in grid)
        assert val >= grid_best - 1e-9


def test_estimation_error_full_support_is_zero():
    # a sample holding every profile once trains on the expectation itself
    values = [0.3, 0.9, 0.5]
    assert overfit_oracle.spa_overfit_error(values, [2, 0, 1], 0.75) == pytest.approx(0.0, abs=1e-15)
    a, b = np.array([[0.4, -0.1], [0.5, -0.3]]), np.array([[-0.2, 0.1], [0.0, 0.15]])
    assert overfit_oracle.nam_overfit_error(a, b, [1, 0]) == pytest.approx(0.0, abs=1e-15)


def test_estimation_error_of_overfit_reserves_positive_gap():
    # the overfit construction through the mechanisms: sample the two-cluster
    # values, fit reserves, measure the train/expectation gap
    w = list(np.linspace(0.25, 0.5, 12)) + list(np.linspace(0.75, 1.0, 10))
    idx = np.random.default_rng(0).integers(0, len(w), size=6)
    err = overfit_oracle.spa_overfit_error(w, idx, 0.75)
    assert err > 0.01
    # agrees with the closed form the experiment family uses internally
    seen = set(idx.tolist())
    expected = (
        sum(w[i] for i in seen)
        + sum(0.75 for i in range(len(w)) if i not in seen and w[i] >= 0.75)
    ) / len(w)
    avg = sum(w[i] for i in idx) / len(idx)
    assert err == pytest.approx(abs(avg - expected), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
def test_spa_overfit_trial_matches_the_brute_force_oracle(n):
    values = [0.3, 0.9, 0.5, 0.75, 0.2, 0.8, 0.6]  # 0.75 ties the fallback
    cfg = ExperimentConfig("spa_overfit", [n], seed=7, params={"values": values, "fallback": 0.75})
    fam = FAMILIES["spa_overfit"](cfg)
    for t in range(6):
        idx = _trial_rng(7, t, n).integers(0, len(values), size=n)
        want = overfit_oracle.spa_overfit_error(values, idx, 0.75)
        assert fam.trial(n, t) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
def test_nam_overfit_trial_matches_the_brute_force_oracle(n):
    pairs = [(0.4, -0.1), (0.5, -0.3), (0.35, 0.0), (-0.2, 0.1), (0.0, 0.15), (-0.1, 0.05)]
    cfg = ExperimentConfig("nam_overfit", [n], seed=7, params={"pairs": pairs, "n_profiles": 6})
    fam = FAMILIES["nam_overfit"](cfg)
    a, b = build_nam_distribution(pairs, n_profiles=6, rng=np.random.default_rng([7, 101]))
    for t in range(6):
        idx = _trial_rng(7, t, n).integers(0, 6, size=n)
        assert fam.trial(n, t) == pytest.approx(overfit_oracle.nam_overfit_error(a, b, idx), abs=1e-12)


def test_synthetic_values_band_counts():
    w = synthetic_spa_values()
    assert len(w) == 10_612
    assert ((w >= 0.25) & (w <= 0.5)).sum() == 5334
    assert ((w >= 0.75) & (w <= 1.0)).sum() == 5278


def best_anonymous_reserve(w):
    """ERM over the single-bidder revenue duals: each value bids against one bid of 0."""
    return erm(anonymous_reserve_duals(w, np.zeros_like(w)))


def test_optimal_revenues_separate():
    w = synthetic_spa_values()
    r, anon = best_anonymous_reserve(w)
    assert w.mean() > anon  # per-agent reserves at each agent's value collect the mean
    # the best anonymous reserve sits at the bottom of the high band
    assert r == 0.75


def seeded_value_sets():
    """Value sets in [0, 1]: continuous draws, grids with duplicates, one value, all equal."""
    gen = np.random.default_rng(2718)
    for n_low, n_high in [(5334, 5278), (10, 7), (1200, 1100), (3, 1)]:
        yield synthetic_spa_values(n_low, n_high)
    yield np.array([0.4])
    yield np.array([0.0])
    # exact revenue ties that the running sums of the average round apart
    yield np.array([0.125, 0.125, 0.25, 0.25, 0.75])  # 0.25 and 0.75 both earn 0.15
    yield np.array([0.0] * 4 + [0.25] * 3 + [0.375] * 3 + [0.5, 0.75] + [1.0] * 3)
    for t in range(400):
        n = int(gen.integers(1, 60))
        kind = t % 4
        if kind == 0:
            yield gen.uniform(0.0, 1.0, n)
        elif kind == 1:
            yield gen.choice(np.linspace(0.0, 1.0, 9), n)  # duplicates, exact revenue ties
        elif kind == 2:
            yield np.repeat(gen.uniform(0.0, 1.0, 3), gen.integers(1, 6, 3))
        else:
            yield np.full(n, float(gen.uniform(0.0, 1.0)))


def test_erm_reserve_matches_support_enumeration():
    ties = 0
    for w in seeded_value_sets():
        r, rev = best_anonymous_reserve(w)
        want_r, want_rev = revenue_oracle.optimal_anonymous_revenue(w)
        tol = 4 * math.ulp(want_rev)
        assert abs(rev - want_rev) <= tol, (w, r, rev, want_rev)
        # exact revenue ties go to the leftmost maximizer, as in the oracle
        assert r == want_r, (w, r, want_r)
        # support values whose revenue r * P(value >= r) is within 4 ulps of the best
        ties += want_rev > 0.0 and sum(abs(v * np.mean(w >= v) - want_rev) <= tol for v in set(w)) > 1
    assert ties >= 2


def test_run_experiment_spa_overfit_columns():
    cfg = ExperimentConfig("spa_overfit", [500, 2000], trials=5, seed=3)
    rows = run_experiment(cfg)
    assert [r.n for r in rows] == [500, 2000]
    for r in rows:
        assert r.bound == pytest.approx(spa_estimation_bound(r.n, 0.01))
        assert r.max_error is not None and r.max_error >= r.mean_error - 1e-12
    assert rows[0].bound > rows[1].bound


def test_run_experiment_nam_bound_column():
    cfg = ExperimentConfig(
        "nam_overfit", [100, 300], trials=4, seed=5, params={"n_profiles": 50}
    )
    rows = run_experiment(cfg)
    for r in rows:
        assert r.bound == pytest.approx(finite_class_bound(100, r.n, 0.01))
    assert rows[0].bound > rows[1].bound


def test_config_rejects_empty_schedule():
    with pytest.raises(ValueError, match="n_schedule"):
        ExperimentConfig("spa_erm", [])
    with pytest.raises(ValueError, match="n_schedule"):
        ExperimentConfig.from_json('{"family": "spa_erm", "n_schedule": []}')


def test_run_experiment_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        run_experiment(ExperimentConfig("nope", [10]))


def test_spa_erm_error_within_bound():
    cfg = ExperimentConfig(
        "spa_erm",
        [200, 400],
        trials=20,
        seed=11,
        params={"n_low": 600, "n_high": 500},
    )
    rows = run_experiment(cfg)
    for r in rows:
        assert r.max_error is None
        assert r.mean_error <= spa_estimation_bound(r.n, 0.01)


def test_spa_overfit_mean_error_decreases():
    cfg = ExperimentConfig("spa_overfit", [400, 4000], trials=100, seed=1)
    rows = run_experiment(cfg)
    assert rows[1].mean_error < rows[0].mean_error


def test_determinism_across_runs_and_threads():
    # a "threads" key in a JSON config is tolerated and changes nothing
    base = dict(family="nam_overfit", n_schedule=[50, 150], trials=8, seed=42,
                params={"n_profiles": 40})

    def rows(threads):
        cfg = ExperimentConfig.from_json(json.dumps(dict(base, threads=threads)))
        return rows_to_csv(run_experiment(cfg))

    rows1 = rows(1)
    assert rows1 == rows(8)
    assert rows1 == rows(1)


def test_csv_headers():
    cfg = ExperimentConfig("spa_erm", [100], trials=2, seed=0,
                           params={"n_low": 60, "n_high": 50})
    csv_plain = rows_to_csv(run_experiment(cfg))
    assert csv_plain.splitlines()[0] == "N,mean_error,std_error,bound"
    cfg2 = ExperimentConfig("spa_overfit", [100], trials=2, seed=0,
                            params={"n_low": 60, "n_high": 50})
    csv_adv = rows_to_csv(run_experiment(cfg2))
    assert csv_adv.splitlines()[0] == "N,mean_error,std_error,max_error,bound"


def test_config_json_round_trip():
    text = '{"family": "spa_erm", "n_schedule": [10, 20], "trials": 3, "seed": 9}'
    cfg = ExperimentConfig.from_json(text)
    assert cfg.family == "spa_erm"
    assert cfg.n_schedule == [10, 20]
    assert cfg.trials == 3 and cfg.seed == 9 and cfg.delta == 0.01
