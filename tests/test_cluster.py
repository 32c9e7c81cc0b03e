import itertools
import math

import numpy as np
import pytest

from algotune.cluster import (
    ClusterInstance,
    agglomerate,
    c2_breakpoints,
    merge_value,
    pair_counting_utility,
    prune_tree,
)

rng = np.random.default_rng(8)

INF = float("inf")


def random_instance(n):
    pts = rng.uniform(0, 10, size=(n, 2))
    return ClusterInstance.from_points(pts)


def linkage_oracle(inst, kind):
    """Direct single/complete linkage with the same lexicographic tie-break."""
    clusters = [(i,) for i in range(inst.n)]
    merges = []
    while len(clusters) > 1:
        best_key, best = None, None
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                a, b = clusters[x], clusters[y]
                if a[0] > b[0]:
                    a, b = b, a
                vals = [inst.d[i][j] for i in a for j in b]
                val = min(vals) if kind == "single" else max(vals)
                key = (val, a[0], b[0])
                if best_key is None or key < best_key:
                    best_key, best = key, (x, y, a, b)
        x, y, a, b = best
        merges.append((a, b))
        merged = tuple(sorted(a + b))
        clusters = [c for i, c in enumerate(clusters) if i not in (x, y)]
        clusters.append(merged)
    return tuple(merges)


def all_prunings(tree, node, k):
    children = {}
    for m in tree.merges:
        children[tuple(sorted(m.left + m.right))] = (m.left, m.right)
    def rec(nd, j):
        if j == 1:
            return [[nd]]
        if nd not in children:
            return []
        left, right = children[nd]
        out = []
        for jl in range(1, j):
            for ls in rec(left, jl):
                for rs in rec(right, j - jl):
                    out.append(ls + rs)
        return out
    return rec(node, k)


def test_merge_value_c2_endpoints():
    inst = random_instance(6)
    a, b = (0, 2), (1, 4, 5)
    vals = [inst.d[i][j] for i in a for j in b]
    assert merge_value("C2", 1.0, a, b, inst) == pytest.approx(min(vals))
    assert merge_value("C2", 0.0, a, b, inst) == pytest.approx(max(vals))
    assert merge_value("C2", 0.3, a, b, inst) == pytest.approx(
        0.3 * min(vals) + 0.7 * max(vals)
    )


def test_merge_value_c3_special_cases():
    inst = random_instance(5)
    a, b = (0, 1), (2, 3)
    vals = np.array([inst.d[i][j] for i in a for j in b])
    assert merge_value("C3", 1.0, a, b, inst) == pytest.approx(vals.mean())
    assert merge_value("C3", INF, a, b, inst) == pytest.approx(vals.max())
    assert merge_value("C3", -INF, a, b, inst) == pytest.approx(vals.min())
    assert merge_value("C3", 0.0, a, b, inst) == pytest.approx(
        float(np.exp(np.log(vals).mean()))
    )


def test_merge_value_c1_limits_and_logspace():
    inst = random_instance(5)
    a, b = (0,), (1, 2)
    vals = [inst.d[i][j] for i in a for j in b]
    assert merge_value("C1", 50.0, a, b, inst) == pytest.approx(max(vals), rel=1e-9)
    assert merge_value("C1", -50.0, a, b, inst) == pytest.approx(min(vals), rel=1e-9)
    assert merge_value("C1", INF, a, b, inst) == pytest.approx(max(vals))
    with pytest.raises(ValueError):
        merge_value("C1", 0.0, a, b, inst)


def test_merge_value_c3_monotone_in_rho():
    inst = random_instance(6)
    a, b = (0, 3), (1, 2, 5)
    rhos = [-8.0, -2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 9.0]
    vals = [merge_value("C3", r, a, b, inst) for r in rhos]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_agglomerate_two_points():
    inst = ClusterInstance([[0.0, 1.0], [1.0, 0.0]])
    tree = agglomerate(inst, "C2", 0.5)
    assert tree.merge_sequence() == (((0,), (1,)),)


def test_agglomerate_collinear_first_merge():
    # points at 0, 1, 3 on a line: {0},{1} merge first for every rho
    d = [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
    inst = ClusterInstance(d)
    for rho in (0.0, 0.3, 1.0):
        tree = agglomerate(inst, "C2", rho)
        assert tree.merge_sequence()[0] == ((0,), (1,))


def test_c2_extremes_match_linkage_oracles():
    for _ in range(20):
        inst = random_instance(int(rng.integers(2, 9)))
        assert agglomerate(inst, "C2", 1.0).merge_sequence() == linkage_oracle(
            inst, "single"
        )
        assert agglomerate(inst, "C2", 0.0).merge_sequence() == linkage_oracle(
            inst, "complete"
        )


def test_agglomerate_deterministic():
    inst = random_instance(7)
    t1 = agglomerate(inst, "C3", 2.0)
    t2 = agglomerate(inst, "C3", 2.0)
    assert t1 == t2


def test_prune_extremes():
    inst = random_instance(6)
    tree = agglomerate(inst, "C2", 0.5)
    singletons, cost = prune_tree(tree, 6, inst)
    assert cost == 0.0
    assert sorted(c[0] for c in singletons) == list(range(6))
    root, _ = prune_tree(tree, 1, inst)
    assert root == [tuple(range(6))]


def test_prune_matches_bruteforce():
    for _ in range(15):
        n = int(rng.integers(2, 9))
        inst = random_instance(n)
        tree = agglomerate(inst, "C2", 0.4)
        for k in range(1, n + 1):
            _, cost = prune_tree(tree, k, inst)
            prunings = all_prunings(tree, tuple(range(n)), k)
            want = min(
                sum(
                    min(sum(inst.d[i][j] for i in c) for j in c) for c in pruning
                )
                for pruning in prunings
            )
            assert cost == pytest.approx(want, abs=1e-9)


def test_prune_rejects_bad_k():
    inst = random_instance(4)
    tree = agglomerate(inst, "C2", 0.5)
    with pytest.raises(ValueError):
        prune_tree(tree, 0, inst)
    with pytest.raises(ValueError):
        prune_tree(tree, 5, inst)


def test_c2_breakpoints_equal_distances_single_piece():
    n = 5
    d = np.ones((n, n)) - np.eye(n)
    inst = ClusterInstance(d)
    fn = c2_breakpoints(inst, lambda tree: 1.0)
    assert fn.breakpoints == []


def test_c2_breakpoints_match_direct_runs():
    for _ in range(5):
        n = int(rng.integers(3, 8))
        inst = random_instance(n)
        truth = [int(x) for x in rng.integers(0, 2, size=n)]
        k = 2 if n >= 2 else 1
        util = pair_counting_utility(inst, truth, k)
        fn = c2_breakpoints(inst, util)
        assert len(fn.pieces) <= n**8 + 1
        for rho in rng.uniform(0, 1, size=100):
            rho = float(rho)
            want = util(agglomerate(inst, "C2", rho))
            assert fn.value(rho) == pytest.approx(want, abs=1e-9)


def test_c2_breakpoints_exact_at_the_switch():
    # two unit-variance blobs 2 apart; both sides of every breakpoint, 1e-11
    # away, must match a direct run (a bisection cut-off would miss the switch)
    blob_rng = np.random.default_rng(5)
    pieces = 0
    for trial in range(24):
        n = 5 + trial % 3
        truth = [0] * (n // 2) + [1] * (n - n // 2)
        pts = np.column_stack(
            [blob_rng.normal(2.0 * np.array(truth), 1.0), blob_rng.normal(0.0, 1.0, n)]
        )
        inst = ClusterInstance.from_points(np.round(pts, 6))
        util = pair_counting_utility(inst, truth, 2)
        fn = c2_breakpoints(inst, util)
        pieces += len(fn.pieces)
        for b in fn.breakpoints:
            for x in (b - 1e-11, b + 1e-11):
                assert fn.value(x) == util(agglomerate(inst, "C2", x)), (trial, b, x)
    assert pieces > 24


def test_pair_counting_utility_bounds():
    inst = random_instance(6)
    truth = [0, 0, 0, 1, 1, 1]
    util = pair_counting_utility(inst, truth, 2)
    tree = agglomerate(inst, "C2", 0.5)
    assert 0.0 <= util(tree) <= 1.0


def test_instance_validation_and_csv():
    with pytest.raises(ValueError, match="diagonal"):
        ClusterInstance([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        ClusterInstance([[0.0, 1.0], [2.0, 0.0]])
    inst = ClusterInstance.from_csv("0,1\n1,0\n")
    assert inst.n == 2
    pts = ClusterInstance.from_csv("0,0\n3,4\n", euclidean=True)
    assert pts.d[0][1] == pytest.approx(5.0)
