"""Agglomeration on span tables against the frozen pairwise kernel in ``cluster_reference``.

Min and max merge exactly, so every tree and every C2 decomposition must equal
the reference's bit for bit, ties included.
"""

import numpy as np
import pytest

import cluster_reference as ref
from algotune import cluster
from algotune.cluster import ClusterInstance, Merge, agglomerate, c2_breakpoints, pair_counting_utility

INF = float("inf")
RHOS = {
    "C1": (-INF, -30.0, -1.5, 0.5, 2.0, 25.0, INF),
    "C2": (0.0, 0.35, 0.5, 0.9, 1.0),
    "C3": (-INF, -25.0, -2.0, 0.0, 1.0, 3.0, 30.0, INF),
}


def instances(seed, count, max_n):
    """Seeded point sets: float points, and integer-grid points (many ties, some zero distances)."""
    local = np.random.default_rng(seed)
    for case in range(count):
        n = int(local.integers(1, max_n + 1))
        if case % 2:
            pts = local.integers(0, 4, size=(n, 2)).astype(float)
        else:
            pts = local.uniform(0, 10, size=(n, 2))
        yield case, ClusterInstance.from_points(pts)


@pytest.mark.parametrize("family", sorted(RHOS))
def test_trees_equal_the_frozen_kernel(family):
    for case, inst in instances(1601, 40, 12):
        for rho in RHOS[family]:
            assert agglomerate(inst, family, rho) == ref.agglomerate(inst, family, rho), (case, rho)


def test_c2_decompositions_equal_the_frozen_kernel():
    local = np.random.default_rng(1602)
    for case, inst in instances(1603, 30, 9):
        truth = local.integers(0, 2, size=inst.n).tolist()
        k = int(local.integers(1, inst.n + 1))
        util = pair_counting_utility(inst, truth, k)
        got, want = c2_breakpoints(inst, util), ref.c2_breakpoints(inst, util)
        assert (got.breakpoints, got.pieces) == (want.breakpoints, want.pieces), case


def test_pairs_tied_at_inf_merge_smallest_ids_first():
    # every C1 value at rho = 1e-4 is at least 2 ** 10000 times a distance, past
    # the float range: the tie-break alone decides, though (2, 3) is the closest pair
    d = np.full((4, 4), 1e200)
    d[2, 3] = d[3, 2] = 1.0
    np.fill_diagonal(d, 0.0)
    inst = ClusterInstance(d)
    got, want = agglomerate(inst, "C1", 1e-4), ref.agglomerate(inst, "C1", 1e-4)
    assert got == want
    assert got.merges[0] == Merge((0,), (1,))


def test_zero_distance_pairs_merge_first_at_large_rho():
    # points 0, 5, 5: the pair at distance 0 had a NaN power mean and lost to (0, 1)
    inst = ClusterInstance.from_points([[0.0], [5.0], [5.0]])
    assert agglomerate(inst, "C3", 30.0).merges[0] == Merge((1,), (2,))


def test_c2_decomposition_gathers_no_pair_distances(monkeypatch):
    # two 15-point blobs: 34 runs, about 5 s when each run gathered every pair's
    # distances; one span table per run, where the certificate built a second
    local = np.random.default_rng(1)
    pts = np.vstack([local.normal(0, 1, (15, 2)), local.normal(4, 1, (15, 2))])
    inst = ClusterInstance.from_points(pts)
    calls = {"_pairwise": 0, "agglomerate": 0, "_SpanTables": 0}

    def counted(name):
        inner = getattr(cluster, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cluster, name, counted(name))
    c2_breakpoints(inst, pair_counting_utility(inst, [0] * 15 + [1] * 15, 2))
    assert calls == {"_pairwise": 0, "agglomerate": 34, "_SpanTables": 34}


def test_c2_trees_hold_where_their_interval_says():
    for case, inst in instances(1604, 30, 10):
        for rho in (0.0, 0.2, 0.5, 0.77, 1.0):
            tree = agglomerate(inst, "C2", rho)
            l, r = tree.interval
            assert l <= rho <= r, (case, rho)
            lo, hi = max(l, 0.0), min(r, 1.0)
            for x in np.linspace(lo, hi, 11)[1:-1].tolist():  # ends may tie
                assert agglomerate(inst, "C2", x) == tree, (case, rho, x)


def test_only_c2_trees_carry_an_interval():
    inst = ClusterInstance.from_points([[0.0], [1.0], [3.0]])
    assert agglomerate(inst, "C2", 0.5).interval == (-INF, INF)
    assert agglomerate(inst, "C1", 2.0).interval is None
    assert agglomerate(inst, "C3", 2.0).interval is None
