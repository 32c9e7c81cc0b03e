"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all)
and enforces its stated runtime budget.  Tolerances are pinned here, not
configurable.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from algotune import bounds, cluster, greedy, learn, mechanisms, rnafold, seqalign, tad
from algotune.cli import dispatch
from algotune.piecewise import Line1D, count_oscillations, upper_envelope
from alignment_oracle import enumerate_alignments, pairwise_features
from fold_reference import fold_objective


class criterion:
    """Context manager printing one PASS/FAIL line and checking the budget."""

    def __init__(self, ident, label, budget_s):
        self.ident = ident
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.ident:>2} {self.label}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"budget {self.budget}s exceeded: {elapsed:.2f}s"
        return False


def test_01_oscillation_bound(capsys):
    with criterion(1, "oscillation-bound", 1.0):
        assert dispatch(["bounds", "oscillation", "--B", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert bounds.pdim_from_oscillations(1) == 1
        assert bounds.pdim_from_oscillations(100) == 9


def test_02_spa_dual_oscillations():
    with criterion(2, "spa-dual-oscillations", 5.0):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            bids = [float(b) for b in rng.uniform(0, 1, size=5)]
            fn = mechanisms.anonymous_reserve_dual(bids)
            for z in rng.uniform(0, 1, size=20):
                assert count_oscillations(fn, float(z)) <= 2


def test_03_spa_bound_curve_and_revenue_separation():
    with criterion(3, "spa-bound-curve", 30.0):
        prev = None
        for n in range(2000, 12001, 500):
            got = bounds.spa_estimation_bound(n, 0.01)
            want = math.sqrt(4.0 / n * math.log(math.e * n)) + math.sqrt(
                math.log(100.0) / (2.0 * n)
            )
            assert abs(got - want) <= 1e-12
            if prev is not None:
                assert got < prev
            prev = got
        w = learn.synthetic_spa_values()
        assert len(w) == 10_612
        _, anon = learn.erm(mechanisms.anonymous_reserve_duals(w, np.zeros_like(w)))
        assert w.mean() > anon  # per-agent reserves at each agent's value collect the mean


def test_04_overfitting_separation():
    with criterion(4, "overfitting-separation", 300.0):
        cfg = learn.ExperimentConfig("spa_overfit", [2000, 12000], trials=100, seed=0)
        rows = learn.run_experiment(cfg)
        err_2k, err_12k = rows[0].mean_error, rows[1].mean_error
        assert err_2k > bounds.spa_estimation_bound(2000, 0.01)
        assert err_12k <= 0.5 * err_2k


def test_05_nam_construction():
    with criterion(5, "nam-shattering-construction", 1.0):
        profiles, params, witnesses = mechanisms.nam_shatter_instances(6, 0.25)
        alt1 = np.array([p.matrix[:, 0] for p in profiles])
        alt2 = np.array([p.matrix[:, 1] for p in profiles])
        assert np.array_equal(alt1, np.hstack([np.eye(3), np.zeros((3, 3))]))
        assert np.array_equal(alt2, np.hstack([np.zeros((3, 3)), 0.25 * np.eye(3)]))
        welfares = {
            mechanisms.nam_welfare(prof, p) for prof in profiles for p in params
        }
        assert welfares == {0.25, 1.0}
        duals = [
            (lambda p, prof=prof: mechanisms.nam_welfare(prof, p)) for prof in profiles
        ]
        cert = bounds.verify_shattering(duals, witnesses, params)
        assert cert.shattered and len(cert.achieved_patterns) == 8


def test_06_nam_budget_balance_and_ic():
    with criterion(6, "nam-budget-balance-ic", 10.0):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            v = mechanisms.ValuationProfile(rng.uniform(0, 1, size=(n, m)))
            w = rng.uniform(0, 2, size=n)
            w[rng.integers(0, n)] = 0.0
            p = mechanisms.NamParams(tuple(float(x) for x in w))
            assert abs(math.fsum(mechanisms.nam_payments(v, p))) <= 1e-12
            weighted = [i for i, wi in enumerate(p.weights) if wi > 0]
            if not weighted:
                continue
            i = int(rng.choice(weighted))
            truthful = mechanisms.nam_agent_utility(v.matrix[i], v, p, i)
            lie = v.matrix.copy()
            lie[i] = rng.uniform(0, 1, size=m)
            misreport = mechanisms.nam_agent_utility(
                v.matrix[i], mechanisms.ValuationProfile(lie), p, i
            )
            assert truthful >= misreport - 1e-9


def test_07_sequence_lower_bound(capsys):
    with criterion(7, "sequence-lower-bound", 30.0):
        assert dispatch(["align", "lb-verify", "--n", "128"]) == 0
        out = capsys.readouterr().out
        assert "k=7" in out and "N=3" in out and "longest=42" in out
        assert "shattered=true" in out

        # k = 3 sub-construction reproduces the oscillating utility pattern
        pairs, refs, _ = seqalign.gen_lb_sequences(32)
        fn = seqalign.utility_breakpoints(pairs[0][0], pairs[0][1], refs[0], 1.0)
        assert [p[1] for p in fn.pieces] == [
            pytest.approx(v) for v in (4 / 6, 5 / 6, 4 / 6, 5 / 6)
        ]
        assert fn.breakpoints == [pytest.approx(x) for x in (1 / 6, 1 / 4, 1 / 2)]

        cert, _, _, _ = seqalign.lb_verify(128)
        assert cert.witnesses == [0.75] * 3
        assert cert.shattered


def test_08_alignment_oracles():
    with criterion(8, "alignment-oracles", 60.0):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            s1 = seqalign.Sequence(rng.choice(list("ACG"), size=n1))
            s2 = seqalign.Sequence(rng.choice(list("ACG"), size=n2))
            p = seqalign.AffineParams(*(float(x) for x in rng.uniform(0, 1.5, size=3)))
            alns = enumerate_alignments(s1, s2)
            best = max(
                seqalign.objective(pairwise_features(a), p) for a in alns
            )
            _, _, obj = seqalign.affine_align(s1, s2, p)
            assert abs(obj - best) <= 1e-9

            fn = seqalign.indel_breakpoints(s1, s2, 1.5)
            lines = {}
            for a in alns:
                f = pairwise_features(a)
                key = (f.matches, f.indels)
                if key not in lines:
                    lines[key] = Line1D(-float(f.indels), float(f.matches), len(lines))
            env = upper_envelope(list(lines.values()), 0.0, 1.5)
            for rho in rng.uniform(0, 1.5, size=25):
                assert abs(fn.value(float(rho)) - env.value(float(rho))) <= 1e-9


def enumerate_foldings(n):
    def rec(positions):
        if not positions:
            yield frozenset()
            return
        first, rest = positions[0], positions[1:]
        for f in rec(rest):
            yield f
        for idx, j in enumerate(rest):
            if j - first < rnafold.MIN_SEP:
                continue
            for fi in rec(rest[:idx]):
                for fo in rec(rest[idx + 1 :]):
                    yield fi | fo | {(first, j)}

    return [rnafold.Folding(f) for f in rec(list(range(1, n + 1)))]


def test_09_rna_folding_oracle():
    with criterion(9, "rna-folding-oracle", 120.0):
        rng = np.random.default_rng(9)
        keys = list(itertools.product("AUCG", repeat=4))
        for _ in range(100):
            n = int(rng.integers(1, 13))
            s = rnafold.RnaSequence(rng.choice(list("AUCG"), size=n))
            m = rnafold.StackScores(
                {k: float(v) for k, v in zip(keys, rng.uniform(-1, 2, size=len(keys)))}
            )
            rho = float(rng.uniform(0, 1))
            _, obj = rnafold.fold(s, rho, m)
            want = max(
                fold_objective(s, f, rho, m) for f in enumerate_foldings(n)
            )
            assert abs(obj - want) <= 1e-9

            env = rnafold.rho_breakpoints(s, m)
            assert len(env.pieces) <= n // 2 + 1
            for r in rng.uniform(0, 1, size=100):
                r = float(r)
                _, o = rnafold.fold(s, r, m)
                assert abs(env.value(r) - o) <= 1e-9


def test_10_tad_oracles():
    with criterion(10, "tad-oracles", 60.0):
        rng = np.random.default_rng(10)

        def naive_c(m):
            n, M = m.n, m.m
            block = lambda i, j: sum(
                M[p - 1][q - 1] for p in range(i, j + 1) for q in range(p + 1, j + 1)
            )
            return {
                (i, j): block(i, j)
                - sum(block(t, t + j - i) for t in range(1, n - (j - i) + 1))
                / (n - (j - i))
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            }

        for n in (3, 5, 8):
            a = rng.uniform(0, 3, size=(n, n))
            cm = tad.ContactMatrix((a + a.T) / 2 - np.diag(np.diag(a)))
            w = tad.precompute_cij(cm)
            assert w.c[1][n] == 0.0
            for (i, j), v in naive_c(cm).items():
                assert abs(w.c[i][j] - v) <= 1e-9

        const = tad.ContactMatrix(np.full((6, 6), 1.3) - 1.3 * np.eye(6))
        wc = tad.precompute_cij(const)
        assert all(
            wc.c[i][j] == 0.0 for i in range(1, 7) for j in range(i + 1, 7)
        )

        # brute-force optimality for n <= 8
        def all_sets(n):
            ivs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            out = [tad.TadSet()]
            def rec(start, acc):
                for i, j in ivs:
                    if i <= start:
                        continue
                    out.append(tad.TadSet(acc + [(i, j)]))
                    rec(j, acc + [(i, j)])
            rec(0, [])
            return out

        for _ in range(10):
            n = int(rng.integers(2, 9))
            c = np.zeros((n + 1, n + 1))
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    c[i][j] = rng.uniform(-1, 1)
            w = tad.TadWeights(c)
            rho = float(rng.uniform(0, 2))
            _, obj = tad.tad_optimize(w, rho)
            want = max(tad.tad_objective(w, t, rho) for t in all_sets(n))
            assert abs(obj - want) <= 1e-9

        # analytic two-singleton crossing within tol
        c = np.full((8, 8), -5.0)
        c[2][7] = 4.0
        c[1][3] = 1.0
        dec = tad.rho_decomposition(tad.TadWeights(c), 3.0, 1e-6)
        want = math.log(4.0) / math.log(5.0 / 2.0)
        assert any(abs(b - want) <= 1e-6 for b in dec.fn.breakpoints)


def test_11_greedy_oracles():
    with criterion(11, "greedy-oracles", 120.0):
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 4.0, 10_000)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            inst = greedy.KnapsackInstance(
                tuple(float(v) for v in rng.uniform(0.5, 10, size=n)),
                tuple(float(s) for s in rng.uniform(0.5, 10, size=n)),
                float(rng.uniform(5, 20)),
            )
            fn = greedy.knapsack_breakpoints(inst, 4.0)
            assert len(fn.pieces) <= n**2 + 1
            for rho in grid:
                rho = float(rho)
                assert abs(fn.value(rho) - greedy.knapsack_greedy(inst, rho)[1]) <= 1e-9
        for _ in range(25):
            n = int(rng.integers(2, 9))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.uniform() < 0.4
            ]
            g = greedy.WeightedGraph.from_edges(
                n, edges, [float(x) for x in rng.uniform(0.5, 5, size=n)]
            )
            fn = greedy.mwis_breakpoints(g, 4.0)
            assert len(fn.pieces) <= n**4 + 1
            for rho in grid:
                rho = float(rho)
                assert abs(fn.value(rho) - greedy.mwis_greedy(g, rho)[1]) <= 1e-9

        for _ in range(30):
            n = int(rng.integers(1, 13))
            inst = greedy.KnapsackInstance(
                tuple(float(v) for v in rng.uniform(0.5, 10, size=n)),
                tuple(float(s) for s in rng.uniform(0.5, 10, size=n)),
                float(rng.uniform(5, 20)),
            )
            _, total = greedy.knapsack_greedy(inst, 1.0)
            best = 0.0
            for mask in itertools.product((0, 1), repeat=n):
                if sum(s for s, b in zip(inst.sizes, mask) if b) <= inst.capacity:
                    best = max(best, sum(v for v, b in zip(inst.values, mask) if b))
            assert total >= 0.5 * best - 1e-9


def test_12_clustering():
    with criterion(12, "clustering", 60.0):
        rng = np.random.default_rng(12)

        def linkage_oracle(inst, kind):
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

        for _ in range(20):
            n = int(rng.integers(2, 9))
            inst = cluster.ClusterInstance.from_points(rng.uniform(0, 10, size=(n, 2)))
            assert cluster.agglomerate(inst, "C2", 1.0).merge_sequence() == linkage_oracle(
                inst, "single"
            )
            assert cluster.agglomerate(inst, "C2", 0.0).merge_sequence() == linkage_oracle(
                inst, "complete"
            )

        for _ in range(3):
            n = int(rng.integers(3, 8))
            inst = cluster.ClusterInstance.from_points(rng.uniform(0, 10, size=(n, 2)))
            truth = [int(x) for x in rng.integers(0, 2, size=n)]
            util = cluster.pair_counting_utility(inst, truth, 2)
            fn = cluster.c2_breakpoints(inst, util)
            for rho in rng.uniform(0, 1, size=100):
                rho = float(rho)
                assert abs(
                    fn.value(rho) - util(cluster.agglomerate(inst, "C2", rho))
                ) <= 1e-9

        def all_prunings(tree, node, j, children):
            if j == 1:
                return [[node]]
            if node not in children:
                return []
            left, right = children[node]
            out = []
            for jl in range(1, j):
                for ls in all_prunings(tree, left, jl, children):
                    for rs in all_prunings(tree, right, j - jl, children):
                        out.append(ls + rs)
            return out

        for _ in range(10):
            n = int(rng.integers(2, 9))
            inst = cluster.ClusterInstance.from_points(rng.uniform(0, 10, size=(n, 2)))
            tree = cluster.agglomerate(inst, "C2", 0.5)
            children = {
                tuple(sorted(m.left + m.right)): (m.left, m.right) for m in tree.merges
            }
            for k in range(1, n + 1):
                _, cost = cluster.prune_tree(tree, k, inst)
                want = min(
                    sum(
                        min(sum(inst.d[i][j] for i in c) for j in c) for c in pruning
                    )
                    for pruning in all_prunings(tree, tuple(range(n)), k, children)
                )
                assert abs(cost - want) <= 1e-9


def test_13_determinism(tmp_path):
    with criterion(13, "learn-determinism", 120.0):
        cfg = {
            "family": "spa_overfit",
            "n_schedule": [500, 1500],
            "trials": 20,
            "seed": 12345,
            "params": {"n_low": 800, "n_high": 700},
        }
        outs = []
        for threads, tag in ((1, "a"), (1, "b"), (8, "c")):
            cfg["threads"] = threads
            cfg_path = tmp_path / f"cfg_{tag}.json"
            cfg_path.write_text(json.dumps(cfg))
            out_path = tmp_path / f"out_{tag}.csv"
            assert (
                dispatch(["learn", "run", "--config", str(cfg_path), "--out", str(out_path)])
                == 0
            )
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]
