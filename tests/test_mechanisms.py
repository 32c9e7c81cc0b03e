import math

import numpy as np
import pytest

from algotune.bounds import verify_shattering
from algotune.mechanisms import (
    FiniteDistribution,
    NamParams,
    SingleBidProfile,
    ValuationProfile,
    anonymous_reserve_dual,
    build_nam_distribution,
    build_spa_distribution,
    expected_utility,
    ingest_jester,
    nam_agent_utility,
    nam_outcome,
    nam_overfit_params,
    nam_payments,
    nam_shatter_instances,
    nam_welfare,
    overfit_reserves,
    spa_revenue,
)
from algotune.piecewise import count_oscillations

rng = np.random.default_rng(99)


def random_profile(n, m):
    return ValuationProfile(rng.uniform(0, 1, size=(n, m)))


def random_params(n):
    w = rng.uniform(0, 2, size=n)
    w[rng.integers(0, n)] = 0.0
    return NamParams(tuple(float(x) for x in w))


def test_outcome_all_zero_ties_to_first():
    v = ValuationProfile(np.zeros((3, 4)))
    assert nam_outcome(v, NamParams((1.0, 1.0, 0.0))) == 0


def test_outcome_scale_invariant():
    for _ in range(50):
        v = random_profile(4, 3)
        p = random_params(4)
        lam = float(rng.uniform(0.1, 10))
        scaled = NamParams(tuple(lam * w for w in p.weights))
        assert nam_outcome(v, p) == nam_outcome(v, scaled)


def test_payments_two_agents_all_zero_cross_terms():
    v = ValuationProfile([[1.0, 0.0], [0.5, 0.2]])
    pay = nam_payments(v, NamParams((1.0, 0.0)))
    assert pay == [0.0, 0.0]


def test_payments_worked_example():
    v = ValuationProfile([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    p = NamParams((1.0, 1.0, 0.0))
    assert nam_outcome(v, p) == 0
    pay = nam_payments(v, p)
    assert pay[0] == pytest.approx(-2.0)
    assert pay[1] == pytest.approx(0.0)
    assert pay[2] == pytest.approx(2.0)
    assert sum(pay) == 0.0


def test_budget_balance_random():
    for _ in range(1000):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        v = random_profile(n, m)
        pay = nam_payments(v, random_params(n))
        assert abs(math.fsum(pay)) <= 1e-12


def test_incentive_compatibility_random_misreports():
    for _ in range(1000):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        v = random_profile(n, m)
        p = random_params(n)
        weighted = [i for i, w in enumerate(p.weights) if w > 0]
        if not weighted:
            continue
        i = int(rng.choice(weighted))
        truthful = nam_agent_utility(v.matrix[i], v, p, i)
        lie = v.matrix.copy()
        lie[i] = rng.uniform(0, 1, size=m)
        misreport = nam_agent_utility(v.matrix[i], ValuationProfile(lie), p, i)
        assert truthful >= misreport - 1e-9


def test_welfare_matches_outcome_column():
    v = ValuationProfile([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    p = NamParams((1.0, 1.0, 0.0))
    assert nam_welfare(v, p) == pytest.approx(3.0)
    assert nam_welfare(ValuationProfile(np.zeros((2, 2))), NamParams((1.0, 0.0))) == 0.0


def test_shatter_instances_n6_matrices():
    profiles, params, witnesses = nam_shatter_instances(6, 0.25)
    assert len(profiles) == 3 and len(params) == 8 and witnesses == [0.5] * 3
    alt1 = np.array([p.matrix[:, 0] for p in profiles])
    alt2 = np.array([p.matrix[:, 1] for p in profiles])
    assert np.array_equal(alt1, np.hstack([np.eye(3), np.zeros((3, 3))]))
    assert np.array_equal(alt2, np.hstack([np.zeros((3, 3)), 0.25 * np.eye(3)]))


def test_shatter_instances_welfares_and_shattering():
    for n in (2, 4, 6, 8):
        profiles, params, witnesses = nam_shatter_instances(n, 0.25)
        welfares = {
            nam_welfare(prof, p) for prof in profiles for p in params
        }
        assert welfares == {0.25, 1.0}
        duals = [
            (lambda p, prof=prof: nam_welfare(prof, p)) for prof in profiles
        ]
        cert = verify_shattering(duals, witnesses, params)
        assert cert.shattered


def test_shatter_instances_validation():
    with pytest.raises(ValueError):
        nam_shatter_instances(5, 0.25)
    with pytest.raises(ValueError):
        nam_shatter_instances(4, 0.75)


def test_spa_revenue_examples():
    assert spa_revenue([0.8, 0.5], 0.6) == pytest.approx(0.6)
    assert spa_revenue([0.8, 0.5], 0.9) == 0.0
    assert spa_revenue([0.8, 0.5], 0.0) == pytest.approx(0.5)
    # non-anonymous: winner's own reserve is what matters
    assert spa_revenue([0.8, 0.5], [0.7, 0.1]) == pytest.approx(0.7)
    assert spa_revenue([0.8, 0.5], [0.9, 0.1]) == 0.0


def test_spa_closed_form_random():
    for _ in range(500):
        bids = rng.uniform(0, 1, size=5)
        r = float(rng.uniform(0, 1))
        v = np.sort(bids)[::-1]
        want = max(v[1], r) if v[0] >= r else 0.0
        assert spa_revenue(list(bids), r) == pytest.approx(want)


def test_anonymous_dual_structure():
    fn = anonymous_reserve_dual([0.8, 0.5])
    assert fn.breakpoints == [pytest.approx(0.5), pytest.approx(0.8)]
    assert fn.pieces[0][:2] == (0.0, 0.5)
    assert fn.pieces[1][:2] == (1.0, 0.0)
    assert fn.pieces[2][:2] == (0.0, 0.0)


def test_anonymous_dual_equal_top_bids():
    fn = anonymous_reserve_dual([0.6, 0.6, 0.1])
    assert fn.value(0.3) == pytest.approx(0.6)
    assert fn.value(0.7) == 0.0


def test_anonymous_dual_oscillation_cap():
    for _ in range(1000):
        bids = [float(b) for b in rng.uniform(0, 1, size=5)]
        fn = anonymous_reserve_dual(bids)
        for z in rng.uniform(0, 1, size=20):
            assert count_oscillations(fn, float(z)) <= 2


def test_overfit_reserves_rules():
    values = [0.3, 0.9, 0.4]
    sample = [SingleBidProfile(1, 0.9, 3)]
    got = overfit_reserves(sample, values)
    assert got.tolist() == [0.75, 0.9, 0.75]
    assert overfit_reserves([], values).tolist() == [0.75] * 3


def test_nam_overfit_params_rules():
    p = nam_overfit_params({0, 2}, 3)
    assert p.weights == (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    p = nam_overfit_params(set(), 3)
    assert p.weights == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    p = nam_overfit_params({0, 1, 2}, 3)
    assert p.weights == (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


def test_ingest_jester_normalizations():
    csv = "2,10,99\n2,-10,5\n"
    unit = ingest_jester(csv, "to_unit", has_count_column=True)
    cols = unit.per_joke()
    assert cols[0] == [pytest.approx(1.0), pytest.approx(0.0)]
    assert cols[1] == [pytest.approx(0.75)]
    centered = ingest_jester(csv, "to_centered", has_count_column=True)
    assert centered.per_joke()[0] == [pytest.approx(0.5), pytest.approx(-0.5)]


def test_ingest_jester_rejects_out_of_range():
    with pytest.raises(ValueError, match="row 2, column 1"):
        ingest_jester("5,3\n12,0\n", "to_unit", has_count_column=False)


def test_ingest_jester_count_column_autodetect():
    table = ingest_jester("37,10,-10\n99,0,5\n", "to_unit")
    assert table.matrix.shape == (2, 2)


def test_ingest_jester_reads_text_not_paths():
    # a file name is CSV text with one non-numeric row: a header and no data
    with pytest.raises(ValueError, match="no data rows"):
        ingest_jester("ratings.csv", "to_unit")


def test_ingest_jester_header_without_data():
    with pytest.raises(ValueError, match="no data rows"):
        ingest_jester("count,joke1,joke2\n", "to_unit")


def test_joke_pair_alignment():
    table = ingest_jester("10,99\n-10,5\n0,0\n", "to_centered", has_count_column=False)
    pairs = table.joke_pair(0, 1)
    assert pairs == [(-0.5, 0.25), (0.0, 0.0)]


def test_build_spa_distribution():
    w = [0.3] * 6 + [0.9] * 5
    dist = build_spa_distribution(w, threshold=5)
    assert len(dist.support) == 11
    assert dist.probabilities.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="qualify"):
        build_spa_distribution(w, threshold=6)


def test_spa_distribution_expected_revenue_identity():
    w = [0.3, 0.9]
    dist = build_spa_distribution(w, threshold=1)
    for reserve in (0.2, 0.5, 0.95):
        got = expected_utility(dist, lambda prof: spa_revenue(prof.to_bids(), reserve))
        want = sum(reserve * (wi >= reserve) for wi in w) / len(w)
        assert got == pytest.approx(want)


def test_build_nam_distribution():
    pairs = [(0.4, -0.1)] * 3 + [(-0.2, 0.1)] * 4
    dist = build_nam_distribution(pairs, n_profiles=5, rng=np.random.default_rng(1))
    assert len(dist.support) == 5
    for prof in dist.support:
        dense = prof.to_profile()
        nonzero = np.flatnonzero(np.abs(dense.matrix).sum(axis=1))
        assert len(nonzero) == 2
        assert list(nonzero) == [prof.index, 5 + prof.index]
    with pytest.raises(ValueError, match="empty"):
        build_nam_distribution([(0.4, -0.1)], n_profiles=2)


def test_two_bidder_welfare_matches_dense():
    pairs = [(0.4, -0.1)] * 2 + [(-0.2, 0.1)] * 2
    dist = build_nam_distribution(pairs, n_profiles=3, rng=np.random.default_rng(2))
    for prof in dist.support:
        dense = prof.to_profile()
        p_seen = nam_overfit_params({prof.index}, 3)
        assert prof.welfare(prof.a) == pytest.approx(nam_welfare(dense, p_seen))
        p_unseen = nam_overfit_params(set(range(3)) - {prof.index}, 3)
        assert prof.welfare(prof.b) == pytest.approx(nam_welfare(dense, p_unseen))


def test_expected_utility_point_mass_and_linearity():
    d1 = FiniteDistribution([1.0], np.array([1.0]))
    assert expected_utility(d1, lambda x: 3 * x) == 3.0
    d2 = FiniteDistribution(["a", "b"], np.array([0.5, 0.5]))
    assert expected_utility(d2, lambda x: 1.0 if x == "b" else 0.0) == 0.5
