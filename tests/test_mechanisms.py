import math

import numpy as np
import pytest

from algotune.bounds import verify_shattering
from algotune.learn import ExperimentConfig, spa_expected_revenue_anonymous
from algotune.learn import _FAMILIES as FAMILIES
from algotune.mechanisms import (
    NamParams,
    ValuationProfile,
    anonymous_reserve_dual,
    build_nam_distribution,
    nam_agent_utility,
    nam_outcome,
    nam_payments,
    nam_shatter_instances,
    nam_welfare,
    spa_revenue,
)
from algotune.piecewise import count_oscillations
from overfit_oracle import nam_overfit_params, nam_profiles, overfit_reserves, spa_profiles

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
    # the oracle's construction: seen agents pay their own value, the rest face the fallback
    values = [0.3, 0.9, 0.4]
    assert overfit_reserves(values, {1}, 0.75) == [0.75, 0.9, 0.75]
    assert overfit_reserves(values, set(), 0.75) == [0.75] * 3


def test_nam_overfit_params_rules():
    p = nam_overfit_params({0, 2}, 3)
    assert p.weights == (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    p = nam_overfit_params(set(), 3)
    assert p.weights == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    p = nam_overfit_params({0, 1, 2}, 3)
    assert p.weights == (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


def test_spa_distribution_expected_revenue_identity():
    # the exact expectation of spa_erm is the mean of spa_revenue over one-hot profiles
    w = np.array([0.3, 0.9, 0.5, 0.75, 0.6])
    for reserve in (0.0, 0.2, 0.5, 0.6, 0.75, 0.95):
        want = math.fsum(spa_revenue(bids, reserve) for bids in spa_profiles(w)) / len(w)
        assert spa_expected_revenue_anonymous(w, reserve) == pytest.approx(want, abs=1e-12)


def test_build_nam_distribution():
    g1 = [(0.4, -0.1), (0.5, -0.3), (0.35, 0.0)]
    g2 = [(-0.2, 0.1), (0.0, 0.15)]
    pairs = g1[:2] + g2 + [g1[2], (0.1, 0.1), (0.0, 0.0)]  # the last two are in neither group
    a, b = build_nam_distribution(pairs, n_profiles=7, rng=np.random.default_rng(1))
    assert a.shape == b.shape == (7, 2)
    # one draw from group 1, then one from group 2, per profile
    ref = np.random.default_rng(1)
    for i in range(7):
        assert tuple(a[i]) == g1[ref.integers(len(g1))]
        assert tuple(b[i]) == g2[ref.integers(len(g2))]
    with pytest.raises(ValueError, match="empty"):
        build_nam_distribution([(0.4, -0.1)], n_profiles=2)


def test_empty_distributions_rejected():
    with pytest.raises(ValueError, match="n_profiles must be >= 1"):
        build_nam_distribution([(0.4, -0.1), (-0.2, 0.1)], n_profiles=0)


def test_two_bidder_welfare_matches_dense():
    # the nam_overfit family's welfare arrays against nam_welfare on dense profiles
    pairs = [(0.4, -0.1), (0.5, -0.3), (-0.2, 0.1), (-0.1, 0.05)]
    cfg = ExperimentConfig("nam_overfit", [1], seed=2, params={"pairs": pairs, "n_profiles": 4})
    fam = FAMILIES["nam_overfit"](cfg)
    a, b = build_nam_distribution(pairs, n_profiles=4, rng=np.random.default_rng([2, 101]))
    for i, dense in enumerate(nam_profiles(a, b)):
        assert fam.w_seen[i] == nam_welfare(dense, nam_overfit_params({i}, 4))
        assert fam.w_unseen[i] == nam_welfare(dense, nam_overfit_params(set(range(4)) - {i}, 4))
