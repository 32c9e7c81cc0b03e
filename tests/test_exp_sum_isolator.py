"""The certified ``bounds.exp_sum_roots`` on sums with known roots, and against
the frozen grid scan in ``exp_sum_reference``: every root it found is still
found, and t distinct bases never give more than t - 1 roots."""

import math

import numpy as np
import pytest

from algotune.bounds import exp_sum_roots
from exp_sum_reference import exp_sum_roots as scan_roots

TOL = 1e-9


def product_of_factors(factors):
    """Terms of prod_k (b_k^-x - b_k^-r_k), whose roots are exactly the r_k.

    Integer bases multiply exactly, so equal products land on one base.
    """
    terms = {1.0: 1.0}
    for b, r in factors:
        nxt = {}
        for base, a in terms.items():
            nxt[base * b] = nxt.get(base * b, 0.0) + a
            nxt[base] = nxt.get(base, 0.0) - a * b ** -r
        terms = nxt
    return [(a, base) for base, a in terms.items()]


def known_root_corpus():
    """Seeded products of 1-4 factors, bases 2, 3 and 5, roots at least 0.15
    apart, plus pairs of roots 1e-6 apart and triples 1e-3 apart (the middle
    root between two critical points); with how close each root must be."""
    rng = np.random.default_rng(31)
    for _ in range(150):
        k = int(rng.integers(1, 5))
        roots = sorted(float(r) for r in rng.uniform(-0.5, 1.5, size=k))
        if any(b - a < 0.15 for a, b in zip(roots, roots[1:])):
            continue
        bases = [float(b) for b in rng.choice([2, 3, 5], size=k)]
        yield list(zip(bases, roots)), -1.0, 2.0, TOL
    for _ in range(40):
        # |h'| is about 1e-7 at such roots, so rounding the coefficients
        # alone moves them by up to ~1e-9: the count is the point here
        r = float(rng.uniform(0.0, 1.0))
        b1, b2 = (float(b) for b in rng.choice([2, 3, 5], size=2))
        yield [(b1, r), (b2, r + 1e-6)], -0.5, 1.5, 1e-8
    for _ in range(20):
        r = float(rng.uniform(0.0, 1.0))
        bases = [float(b) for b in rng.choice([2, 3, 5], size=3)]
        yield list(zip(bases, (r, r + 1e-3, r + 2e-3))), -0.5, 1.5, 1e-8


def test_known_roots_are_all_found():
    close = 0
    for factors, lo, hi, within in known_root_corpus():
        roots = exp_sum_roots(product_of_factors(factors), lo, hi, TOL)
        want = sorted(r for _, r in factors)
        assert len(roots) == len(want), (factors, roots)
        for got, r in zip(roots, want):
            assert abs(got - r) <= within, (factors, roots)
        close += any(b - a < 1e-2 for a, b in zip(want, want[1:]))
    assert close == 60


def test_near_tangential_pair_is_found():
    # 1 - 2u + (1 - eps) u^2 with u = 2^-x: roots at u = (1 +- sqrt(eps)) / (1 - eps)
    eps = 1e-6
    terms = [(1, 1), (-2, 2), (1 - eps, 4)]
    want = [-math.log2((1 + s * math.sqrt(eps)) / (1 - eps)) for s in (1, -1)]
    roots = exp_sum_roots(terms, -1, 1.3, TOL)
    assert len(roots) == 2
    assert roots == pytest.approx(want, abs=TOL)
    assert roots[0] == pytest.approx(-1.443e-3, abs=1e-6)
    assert roots[1] == pytest.approx(1.443e-3, abs=2e-6)
    assert scan_roots(terms, -1, 1.3, TOL) == []  # the grid scan steps over both


def test_sum_cancelling_per_base_has_no_roots():
    # a tie: the coefficients of each base sum to exactly zero
    terms = [(0.7, 2.0), (-1.3, 3.0), (0.25, 5.0), (-0.7, 2.0), (1.3, 3.0), (-0.25, 5.0)]
    assert exp_sum_roots(terms, 0.0, 3.0, TOL) == []
    assert exp_sum_roots(terms[:2] + [(-0.7, 2.0), (1.3, 3.0)], -2.0, 2.0, TOL) == []


def test_every_scan_root_is_found_and_the_count_is_bounded():
    rng = np.random.default_rng(20)
    found = 0
    for _ in range(2000):
        t = int(rng.integers(1, 7))
        bases = rng.uniform(0.2, 5.0, size=t)
        if t > 1 and rng.random() < 0.3:
            bases[1] = bases[0]
        terms = [(float(a), float(b)) for a, b in zip(rng.normal(size=t), bases)]
        roots = exp_sum_roots(terms, -4.0, 4.0, TOL)
        assert roots == sorted(roots)
        assert len(roots) <= len(set(bases.tolist())) - 1
        for r in scan_roots(terms, -4.0, 4.0, TOL):
            assert min(abs(r - x) for x in roots) <= 10 * TOL, (terms, roots)
        found += len(roots)
    assert found > 500


def test_root_at_the_left_end_for_large_rho():
    assert exp_sum_roots([(1.0, 0.5), (-1.0, 2.0)], 0, 2000, TOL) == [0.0]


def test_overflow_raises_instead_of_clamping():
    with pytest.raises(ValueError, match="overflows"):
        exp_sum_roots([(1.0, 0.5), (-1.0, 2.0)], -2000, 1, TOL)
