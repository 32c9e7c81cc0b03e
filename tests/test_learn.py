import json
import math

import numpy as np
import pytest

from algotune.bounds import finite_class_bound, spa_estimation_bound
from algotune.greedy import KnapsackInstance, knapsack_breakpoints
from algotune.learn import (
    ExperimentConfig,
    erm,
    estimation_error,
    optimal_anonymous_revenue,
    optimal_nonanonymous_revenue,
    rows_to_csv,
    run_experiment,
    synthetic_spa_values,
)
from algotune.mechanisms import FiniteDistribution
from algotune.piecewise import PiecewiseFunction1D, average

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
    dist = FiniteDistribution(["a", "b"], np.array([0.5, 0.5]))
    util = lambda p, x: 1.0 if x == "a" else 0.0
    assert estimation_error(0.0, ["a", "b"], dist, util) == pytest.approx(0.0)
    point = FiniteDistribution(["a"], np.array([1.0]))
    assert estimation_error(0.0, ["a", "a"], point, util) == pytest.approx(0.0)


def test_estimation_error_of_overfit_reserves_positive_gap():
    # the overfit construction through the public path: build the two-cluster
    # distribution, sample, fit reserves, measure the train/expectation gap
    from algotune.mechanisms import build_spa_distribution, overfit_reserves, spa_revenue

    w = list(np.linspace(0.25, 0.5, 12)) + list(np.linspace(0.75, 1.0, 10))
    dist = build_spa_distribution(w, threshold=10)
    idx = dist.sample_indices(np.random.default_rng(0), 6)
    sample = [dist.support[i] for i in idx]
    reserves = overfit_reserves(sample, w)
    util = lambda param, prof: spa_revenue(prof.to_bids(), list(param))
    err = estimation_error(reserves, sample, dist, util)
    assert err > 0.01
    # agrees with the closed form the experiment family uses internally
    seen = {p.agent for p in sample}
    expected = (
        sum(w[i] for i in seen)
        + sum(0.75 for i in range(len(w)) if i not in seen and w[i] >= 0.75)
    ) / len(w)
    avg = sum(w[p.agent] for p in sample) / len(sample)
    assert err == pytest.approx(abs(avg - expected), abs=1e-12)


def test_synthetic_values_band_counts():
    w = synthetic_spa_values()
    assert len(w) == 10_612
    assert ((w >= 0.25) & (w <= 0.5)).sum() == 5334
    assert ((w >= 0.75) & (w <= 1.0)).sum() == 5278


def test_optimal_revenues_separate():
    w = synthetic_spa_values()
    _, anon = optimal_anonymous_revenue(w)
    nonanon = optimal_nonanonymous_revenue(w)
    assert nonanon > anon
    # the best anonymous reserve sits at the bottom of the high band
    r, _ = optimal_anonymous_revenue(w)
    assert r == pytest.approx(0.75)


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
