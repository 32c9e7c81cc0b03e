import itertools
import math

import numpy as np
import pytest

from algotune.greedy import (
    KnapsackInstance,
    WeightedGraph,
    knapsack_breakpoints,
    knapsack_greedy,
    mwis_breakpoints,
    mwis_greedy,
)

rng = np.random.default_rng(2024)


def random_knapsack(n):
    values = tuple(float(v) for v in rng.uniform(0.5, 10, size=n))
    sizes = tuple(float(s) for s in rng.uniform(0.5, 10, size=n))
    return KnapsackInstance(values, sizes, float(rng.uniform(5, 20)))


def knapsack_optimum(inst):
    best = 0.0
    for mask in itertools.product((0, 1), repeat=inst.n):
        size = sum(s for s, b in zip(inst.sizes, mask) if b)
        if size <= inst.capacity:
            best = max(best, sum(v for v, b in zip(inst.values, mask) if b))
    return best


def random_graph(n, p=0.4):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < p
    ]
    weights = [float(w) for w in rng.uniform(0.5, 5, size=n)]
    return WeightedGraph.from_edges(n, edges, weights)


def test_knapsack_single_item():
    inst = KnapsackInstance((5.0,), (3.0,), 4.0)
    items, total = knapsack_greedy(inst, 1.0)
    assert items == {0} and total == 5.0


def test_knapsack_worked_example():
    inst = KnapsackInstance((10.0, 6.0, 5.0), (10.0, 4.0, 5.0), 10.0)
    items, total = knapsack_greedy(inst, 1.0)
    assert total == pytest.approx(11.0)
    assert items == {1, 2}


def test_knapsack_rho_zero_orders_coincide():
    for _ in range(20):
        inst = random_knapsack(6)
        by_value = sorted(range(inst.n), key=lambda i: (-inst.values[i], i))
        chosen, total = knapsack_greedy(inst, 0.0)
        packed, ptotal = set(), 0.0
        used = 0.0
        for i in by_value:
            if used + inst.sizes[i] <= inst.capacity:
                packed.add(i)
                used += inst.sizes[i]
                ptotal += inst.values[i]
        assert total == pytest.approx(ptotal)


def test_knapsack_feasibility():
    for _ in range(50):
        inst = random_knapsack(int(rng.integers(1, 10)))
        items, _ = knapsack_greedy(inst, float(rng.uniform(0, 3)))
        assert sum(inst.sizes[i] for i in items) <= inst.capacity + 1e-12


def test_knapsack_two_approximation_at_rho_one():
    for _ in range(60):
        inst = random_knapsack(int(rng.integers(1, 13)))
        _, total = knapsack_greedy(inst, 1.0)
        assert total >= 0.5 * knapsack_optimum(inst) - 1e-9


def test_knapsack_breakpoints_identical_items():
    inst = KnapsackInstance((2.0, 2.0), (3.0, 3.0), 4.0)
    fn = knapsack_breakpoints(inst, 5.0)
    assert fn.breakpoints == []


def test_knapsack_breakpoints_negative_swap_excluded():
    # values (4,2) sizes (2,4): rank swap solves at rho = -1, outside [0, max]
    inst = KnapsackInstance((4.0, 2.0), (2.0, 4.0), 5.0)
    fn = knapsack_breakpoints(inst, 5.0)
    assert fn.breakpoints == []


def test_knapsack_breakpoints_match_grid():
    for _ in range(25):
        inst = random_knapsack(int(rng.integers(2, 9)))
        fn = knapsack_breakpoints(inst, 4.0)
        assert len(fn.pieces) <= inst.n**2 + 1
        for rho in np.linspace(0.0, 4.0, 400):
            rho = float(rho)
            _, total = knapsack_greedy(inst, rho)
            assert fn.value(rho) == pytest.approx(total, abs=1e-9), rho


def test_mwis_empty_edges_takes_everything():
    g = WeightedGraph.from_edges(4, [], [1.0, 2.0, 3.0, 4.0])
    verts, total = mwis_greedy(g, 1.0)
    assert verts == {0, 1, 2, 3}
    assert total == pytest.approx(10.0)


def test_mwis_star_example():
    g = WeightedGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], [10.0, 1.0, 1.0, 1.0])
    verts, total = mwis_greedy(g, 1.0)
    assert verts == {0}
    assert total == pytest.approx(10.0)


def test_mwis_rho_zero_is_weight_greedy():
    g = random_graph(8)
    verts, _ = mwis_greedy(g, 0.0)
    order = sorted(range(g.n), key=lambda v: (-g.weights[v], v))
    expect = set()
    blocked = set()
    for v in order:
        if v not in blocked:
            expect.add(v)
            blocked |= g.adjacency[v] | {v}
    assert verts == expect


def test_mwis_outputs_independent():
    for _ in range(50):
        g = random_graph(int(rng.integers(2, 10)))
        verts, _ = mwis_greedy(g, float(rng.uniform(0, 3)))
        for u in verts:
            assert not (g.adjacency[u] & verts)


def test_mwis_uniform_weights_single_piece():
    g = WeightedGraph.from_edges(5, [(0, 1), (1, 2)], [1.0] * 5)
    fn = mwis_breakpoints(g, 4.0)
    assert fn.breakpoints == []


def test_mwis_path_swap_point():
    # path 0-1-2 with center weight 1.6: swap at ln(1.6)/ln(3/2)
    g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)], [1.0, 1.6, 1.0])
    fn = mwis_breakpoints(g, 4.0)
    want = math.log(1.6) / math.log(1.5)
    assert any(abs(b - want) < 1e-9 for b in fn.breakpoints)
    assert fn.value(want - 0.01) == pytest.approx(1.6)
    assert fn.value(want + 0.01) == pytest.approx(2.0)


def test_mwis_breakpoints_match_grid():
    for _ in range(15):
        g = random_graph(int(rng.integers(2, 9)))
        fn = mwis_breakpoints(g, 4.0)
        for rho in np.linspace(0.0, 4.0, 300):
            rho = float(rho)
            _, total = mwis_greedy(g, rho)
            assert fn.value(rho) == pytest.approx(total, abs=1e-9)


def test_mwis_breakpoints_large_graphs_match_grid():
    for n in (31, 60):
        g = random_graph(n, p=0.15)
        fn = mwis_breakpoints(g, 2.0)
        for rho in np.linspace(0.0, 2.0, 1001):
            rho = float(rho)
            assert fn.value(rho) == mwis_greedy(g, rho)[1], (n, rho)


def test_graph_text_parsing():
    g = WeightedGraph.from_text("0 1\n1 2\nw 0 2.5\nw 1 1.0\nw 2 3.0\n")
    assert g.n == 3
    assert g.adjacency[1] == {0, 2}
    assert g.weights == (2.5, 1.0, 3.0)


def test_from_edges_rejects_ids_outside_the_vertex_range():
    for edge in [(0, -1), (-2, 1), (0, 3), (3, 1)]:
        with pytest.raises(ValueError, match=r"has a vertex outside \[0, 3\)"):
            WeightedGraph.from_edges(3, [edge], [1.0] * 3)


def test_knapsack_csv_parsing():
    inst = KnapsackInstance.from_csv("# value,size\n10,10\n6,4\n5,5\n", 10.0)
    assert inst.values == (10.0, 6.0, 5.0)
    assert inst.capacity == 10.0
