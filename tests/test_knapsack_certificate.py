"""The fit-decision knapsack certificate against the frozen all-pairs one in
``knapsack_reference``, and the exact fit test against a ``Fraction`` packing."""

from fractions import Fraction

import numpy as np
import pytest

import algotune.greedy as greedy
from algotune.greedy import KnapsackInstance, knapsack_breakpoints, knapsack_greedy
import knapsack_reference as ref


def bench_corpus(seed, count, off_grid):
    """n 40-80 items with 3-decimal values and sizes in [1, 10], capacity a third
    of the sizes: rounded to 3 decimals, or off that grid by 0.0005 so that no
    subset of sizes fills it to within float rounding."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(40, 81))
        values = tuple(round(float(x), 3) for x in rng.uniform(1, 10, n))
        sizes = tuple(round(float(x), 3) for x in rng.uniform(1, 10, n))
        yield KnapsackInstance(values, sizes, round(sum(sizes) / 3, 3) + 0.0005 * off_grid)


def merge_ulps(fn, tol=1e-12):
    """Breakpoints and piece values of ``fn`` once neighbours within ``tol`` are merged."""
    bps, values = [], [fn.pieces[0][1]]
    for b, (_, c, _) in zip(fn.breakpoints, fn.pieces[1:]):
        if abs(c - values[-1]) > tol:
            bps.append(b)
            values.append(c)
    return bps, values


def fraction_packing(inst, rho):
    """Greedy by density with exact rational fit tests and a correctly rounded total."""
    v, s = inst.values, inst.sizes
    order = sorted(range(inst.n), key=lambda i: -v[i] / s[i] ** rho)
    room, chosen = Fraction(inst.capacity), set()
    for i in order:
        if Fraction(s[i]) <= room:
            chosen.add(i)
            room -= Fraction(s[i])
    return chosen, float(sum(Fraction(v[i]) for i in chosen))


def fraction_greedy(inst, rho):
    sv, tv = fraction_packing(inst, 0.0)
    sd, td = fraction_packing(inst, rho)
    return (sd, td) if td > tv else (sv, tv)


@pytest.fixture
def runs(monkeypatch):
    """The rho of every greedy packing run, counted by wrapping ``_density_packing``."""
    seen = []
    packing = greedy._density_packing

    def counted(*args):
        seen.append(args[1])
        return packing(*args)

    monkeypatch.setattr(greedy, "_density_packing", counted)
    return seen


def test_breakpoints_are_the_frozen_ones_without_rounding_splits(runs):
    # the frozen float fit test and the exact one agree on these capacities
    for k, inst in enumerate(bench_corpus(seed=41, count=8, off_grid=True)):
        runs.clear()
        fn = knapsack_breakpoints(inst, 5.0)
        assert len(runs) <= 2 * len(fn.pieces) + 1, (k, len(runs), len(fn.pieces))
        want_bps, want_values = merge_ulps(ref.knapsack_breakpoints(inst, 5.0))
        assert fn.breakpoints == want_bps, k
        got = [c for _, c, _ in fn.pieces]
        assert len(got) == len(want_values)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, want_values)), k


def test_on_exact_fits_only_the_frozen_float_fit_test_differs(runs):
    # a subset can fill a 3-decimal capacity exactly in decimals; its float sum
    # then lands an ulp either side, and the frozen packing follows that ulp
    differ = 0
    for k, inst in enumerate(bench_corpus(seed=41, count=8, off_grid=False)):
        runs.clear()
        fn = knapsack_breakpoints(inst, 5.0)
        assert len(runs) <= 2 * len(fn.pieces) + 1, (k, len(runs), len(fn.pieces))
        want = ref.knapsack_breakpoints(inst, 5.0)
        cuts = [0.0, *sorted(set(fn.breakpoints) | set(want.breakpoints)), 5.0]
        for rho in (0.5 * (a + b) for a, b in zip(cuts, cuts[1:])):
            if abs(fn.value(rho) - want.value(rho)) > 1e-12:
                differ += 1
                assert ref.knapsack_greedy(inst, rho)[0] != fraction_greedy(inst, rho)[0], (k, rho)
                assert fn.value(rho) == fraction_greedy(inst, rho)[1], (k, rho)
    assert differ > 0


def planted(seed, count):
    """Tie-heavy instances: integer sizes, identical items, subsets that fill the
    capacity exactly, decimal sizes whose float running sums round across it,
    and sizes from 1e-100 to 1e100 (sums past int64)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 11))
        kind = k % 5
        values = [float(x) for x in rng.integers(1, 6, n)]
        if kind == 0:
            sizes = [float(x) for x in rng.integers(1, 5, n)]
            capacity = float(rng.integers(1, 11))
        elif kind == 1:
            pool = [(float(rng.integers(1, 6)), float(rng.integers(1, 4))) for _ in range(2)]
            values, sizes = map(list, zip(*(pool[int(rng.integers(2))] for _ in range(n))))
            capacity = float(rng.integers(1, 8))
        elif kind == 2:
            sizes = [float(x) / 8 for x in rng.integers(1, 17, n)]
            capacity = sum(s for s in sizes if rng.random() < 0.5) or sizes[0]
        elif kind == 3:
            sizes = [round(0.1 * float(x), 1) for x in rng.integers(1, 6, n)]
            subset = [s for s in sizes if rng.random() < 0.6] or sizes[:1]
            # the float sum in one order, or the decimal sum: either can sit an ulp from the exact one
            capacity = sum(subset) if rng.random() < 0.5 else round(sum(subset), 1)
        else:
            sizes = [float(x) for x in 10.0 ** rng.integers(-100, 101, n)]
            capacity = float(np.median(sizes))
        yield KnapsackInstance(tuple(values), tuple(sizes), capacity)
    # ten sizes of 0.1 sum to 0.9999999999999999 in floats, but exceed 1.0 exactly
    yield KnapsackInstance((1.0,) * 10, (0.1,) * 10, 1.0)
    # 1.0 + 1e-16 rounds to 1.0: only one of the two fits
    yield KnapsackInstance((1.0, 2.0), (1e-16, 1.0), 1.0)


def at_crossing(inst, rho):
    """Whether two items of different sizes tie in density at rho, a point the
    dual assigns to the piece on its right whatever the greedy does there."""
    keys = {}
    for v, s in zip(inst.values, inst.sizes):
        keys.setdefault(-v / s**rho, set()).add(s)
    return any(len(sizes) > 1 for sizes in keys.values())


def test_packing_equals_the_fraction_reference():
    for inst in planted(seed=51, count=200):
        for rho in (0.0, 0.5, 1.0 - 2**-40, 1.0):
            chosen, total = knapsack_greedy(inst, rho)
            assert (chosen, total) == fraction_greedy(inst, rho), (inst, rho)
            assert sum(map(Fraction, (inst.sizes[i] for i in chosen))) <= Fraction(inst.capacity)


def test_planted_float_sums_pack_exactly():
    assert knapsack_greedy(KnapsackInstance((1.0,) * 10, (0.1,) * 10, 1.0), 1.0) == (set(range(9)), 9.0)
    assert knapsack_greedy(KnapsackInstance((1.0, 2.0), (1e-16, 1.0), 1.0), 0.0) == ({1}, 2.0)


def test_dual_equals_the_greedy_on_a_grid_and_beside_each_breakpoint():
    # At an exact crossing the dual gives the piece on the right, which the
    # greedy need not return: for values (5, 5, 4, 2), sizes (2, 1, 1, 2) and
    # capacity 2, the greedy returns 5 at rho = 0, where items 0 and 1 tie and
    # item 0 goes first, while the dual reports 9 on [0, 4].  Such points are
    # skipped; the all-pairs certificate had the same gap.
    checked = 0
    for inst in planted(seed=52, count=60):
        rho_max = 4.0 if 1e-50 < min(inst.sizes) and max(inst.sizes) < 1e50 else 1.0
        fn = knapsack_breakpoints(inst, rho_max)
        probes = [float(x) for x in np.linspace(0.0, rho_max, 801)]
        probes += [b + d for b in fn.breakpoints for d in (-1e-7, 1e-7)]
        for rho in probes:
            if 0.0 <= rho <= rho_max and not at_crossing(inst, rho):
                assert fn.value(rho) == knapsack_greedy(inst, rho)[1], (inst, rho)
                checked += 1
    assert checked > 40_000


@pytest.mark.parametrize("sizes", [(1e-100, 1.0, 3.0, 1e100), (1.0, 2.0, 3.0, 4.0)])
def test_huge_and_small_exact_sizes_share_one_code_path(sizes):
    inst = KnapsackInstance((4.0, 3.0, 2.0, 1.0), sizes, 3.0)
    fn = knapsack_breakpoints(inst, 1.0)
    for rho in np.linspace(0.0, 1.0, 201):
        if not at_crossing(inst, float(rho)):
            assert fn.value(float(rho)) == fraction_greedy(inst, float(rho))[1]
