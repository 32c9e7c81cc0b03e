import math

import numpy as np
import pytest

from algotune.bounds import (
    DecompositionSpec,
    exp_sum_roots,
    finite_class_bound,
    generalization_bound,
    log_inequality_bound,
    pdim_from_counting,
    pdim_from_oscillations,
    spa_estimation_bound,
    verify_shattering,
)
import pdim_reference


def brute_counting(vc, pd, k, n_max=200):
    best = 0
    for n in range(1, n_max):
        if n * math.log(2) <= vc * (1 + math.log(k) + math.log(n)) + pd * (1 + math.log(n)):
            best = n
    return best


def test_pdim_counting_examples():
    assert pdim_from_counting(DecompositionSpec(1, 0, 1)) == 3
    assert pdim_from_counting(DecompositionSpec(0, 1, 1)) == 3
    assert pdim_from_counting(DecompositionSpec(0, 0, 1)) == 0


def test_pdim_counting_monotone_in_vc():
    assert pdim_from_counting(DecompositionSpec(2, 1, 10)) >= pdim_from_counting(
        DecompositionSpec(1, 1, 10)
    )


def test_pdim_counting_matches_direct_enumeration():
    for vc in (0, 1, 2, 5):
        for pd in (0, 1, 3):
            for k in (1, 2, 100, 10**6):
                if vc == 0 and pd == 0:
                    continue
                assert pdim_from_counting(DecompositionSpec(vc, pd, k)) == brute_counting(
                    vc, pd, k
                )


def test_pdim_oscillations_examples():
    assert pdim_from_oscillations(1) == 1
    assert pdim_from_oscillations(2) == 2
    assert pdim_from_oscillations(100) == 9


def test_pdim_oscillations_matches_direct_enumeration():
    for B in (1, 2, 3, 7, 100, 1000, 10**6):
        best = max(n for n in range(1, 64) if 2**n <= B * n + 1)
        assert pdim_from_oscillations(B) == best


def test_pdim_counting_equals_the_scan():
    for vc in range(40):
        for pd in range(12):
            for k in (1, 2, 3, 7, 100):
                assert pdim_from_counting(DecompositionSpec(vc, pd, k)) == \
                    pdim_reference.pdim_from_counting(vc, pd, k), (vc, pd, k)


def test_pdim_oscillations_equals_the_scan():
    for B in range(1, 5000):
        assert pdim_from_oscillations(B) == pdim_reference.pdim_from_oscillations(B), B


def test_bounds_at_a_subnormal_delta():
    # 1/delta overflows to inf at this delta; the bounds take -ln(delta) instead
    delta = 1e-320
    neg_log = -math.log(delta)
    assert generalization_bound(2.0, 3, 10, delta) == pytest.approx(
        2.0 * math.sqrt((3 + neg_log) / 10), rel=1e-15)
    assert spa_estimation_bound(10, delta) == pytest.approx(
        math.sqrt(0.4 * math.log(math.e * 10)) + math.sqrt(neg_log / 20), rel=1e-15)
    assert finite_class_bound(3, 10, delta) == pytest.approx(
        math.sqrt((math.log(6.0) + neg_log) / 20), rel=1e-15)


def test_log_inequality_examples():
    assert log_inequality_bound(1, 1) == pytest.approx(4 * math.log(2) + 2)
    assert log_inequality_bound(2, 0.5) == pytest.approx(8 * math.log(4) + 1)
    assert log_inequality_bound(1, 1e-9) == pytest.approx(4 * math.log(2), abs=1e-8)
    with pytest.raises(ValueError):
        log_inequality_bound(0.5, 1)


def test_generalization_bound_examples():
    got = generalization_bound(1.0, 4, 400, math.exp(-1), 1.0)
    assert got == pytest.approx(math.sqrt(5 / 400))
    b1 = generalization_bound(2.0, 3, 100, 0.05)
    b4 = generalization_bound(2.0, 3, 400, 0.05)
    assert b4 == pytest.approx(b1 / 2)
    assert generalization_bound(3.0, 0, 1, math.exp(-1), 1.0) == pytest.approx(3.0)


def test_spa_bound_examples():
    assert spa_estimation_bound(1, 0.01) == pytest.approx(
        2.0 + math.sqrt(math.log(100) / 2), abs=1e-12
    )
    want = math.sqrt(4 / 10000 * math.log(math.e * 10000)) + math.sqrt(
        math.log(100) / 20000
    )
    assert spa_estimation_bound(10000, 0.01) == pytest.approx(want, abs=1e-15)
    vals = [spa_estimation_bound(n, 0.01) for n in range(1, 2000, 37)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_finite_class_bound_examples():
    got = finite_class_bound(1000, 100, 0.01)
    assert got == pytest.approx(math.sqrt(math.log(200000) / 200), abs=1e-12)
    # at delta = 0.01 this is exactly the ln(200 n) form
    for n in (1, 7, 1000):
        assert finite_class_bound(n, 50, 0.01) == pytest.approx(
            math.sqrt(math.log(200 * n) / 100), abs=1e-12
        )
    assert finite_class_bound(1, 25, 0.1) == pytest.approx(
        math.sqrt(math.log(20) / 50), abs=1e-12
    )


def test_bounds_monotonicity():
    assert finite_class_bound(10, 100, 0.01) <= finite_class_bound(20, 100, 0.01)
    assert finite_class_bound(10, 200, 0.01) <= finite_class_bound(10, 100, 0.01)
    assert generalization_bound(1, 5, 100, 0.01) >= generalization_bound(1, 2, 100, 0.01)


def test_exp_sum_roots_simple_crossing():
    roots = exp_sum_roots([(1.0, 2.0), (-1.0, 4.0)], -5, 5, 1e-9)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.0, abs=1e-8)


def test_exp_sum_roots_positive_sum_has_none():
    assert exp_sum_roots([(3.0, 2.0)], -5, 5, 1e-9) == []


def test_exp_sum_roots_shifted_crossing():
    roots = exp_sum_roots([(2.0, 2.0), (-1.0, 1.0)], -5, 5, 1e-9)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-8)


def test_exp_sum_roots_degenerate_zero_input():
    assert exp_sum_roots([(0.0, 2.0), (0.0, 3.0)], 0, 1, 1e-6) == []


def test_exp_sum_roots_count_capped_by_terms():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = int(rng.integers(1, 6))
        terms = [
            (float(a), float(b))
            for a, b in zip(rng.normal(size=t), rng.uniform(0.2, 5.0, size=t))
        ]
        roots = exp_sum_roots(terms, -4.0, 4.0, 1e-7)
        assert len(roots) <= t


def test_verify_shattering_single_instance():
    cert = verify_shattering([lambda r: r], [0.5], [0.0, 1.0])
    assert cert.shattered
    assert cert.achieved_patterns == {(0,), (1,)}
    assert cert.to_dict() == {
        "n": 1,
        "witnesses": [0.5],
        "shattered": True,
        "patterns_found": 2,
    }


def test_verify_shattering_identical_candidates_fail():
    cert = verify_shattering([lambda r: r], [0.5], [0.7, 0.7])
    assert not cert.shattered
    assert len(cert.achieved_patterns) == 1


def test_verify_shattering_names_the_first_missing_pattern():
    # two copies of one dual never split: only 00 and 11 are realized
    cert = verify_shattering([lambda r: r, lambda r: r], [0.5, 0.5], [0.0, 0.25, 0.75, 1.0])
    assert cert.achieved_patterns == {(0, 0), (1, 1)}
    assert cert.first_missing() == (0, 1)
    shattered = verify_shattering([lambda r: r], [0.5], [0.0, 1.0])
    assert shattered.first_missing() is None


def test_verify_shattering_caps_instances():
    fns = [lambda r: r] * 25
    with pytest.raises(ValueError, match="too large"):
        verify_shattering(fns, [0.5] * 25, [0.0])


def test_verify_shattering_patterns_are_bit_vectors():
    fns = [lambda r, i=i: math.sin(r * i) for i in range(1, 4)]
    cert = verify_shattering(fns, [0.0, 0.1, -0.2], list(np.linspace(0, 6, 40)))
    for pat in cert.achieved_patterns:
        assert len(pat) == 3 and set(pat) <= {0, 1}
