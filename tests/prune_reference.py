"""Frozen recursive tree pruning: the test oracle for ``cluster.prune_tree``.

This is ``prune_tree`` as it was before the recursion became one loop over
the nodes: a nested ``solve`` that calls itself on both children before
combining their tables.  It is kept verbatim so the tests can require the same
clusters and cost bit for bit.  It is a reference only; nothing under
``src/`` imports it.
"""

from algotune.cluster import ClusterInstance, ClusterTree, _medoid_cost


def prune_tree(tree: ClusterTree, k: int, inst: ClusterInstance):
    """k-cluster pruning of the tree minimizing total medoid (k-median) cost.

    Returns ``(clusters, cost)``.  Ties resolve to the first optimum found in
    post-order.
    """
    if not 1 <= k <= tree.n:
        raise ValueError("k out of range")

    children: dict[tuple[int, ...], tuple] = {}
    for m in tree.merges:
        children[tuple(sorted(m.left + m.right))] = (m.left, m.right)
    root = tuple(range(tree.n))

    # table[node][j] = (cost, list of clusters) for the best j-pruning below node
    table: dict[tuple[int, ...], dict[int, tuple[float, list]]] = {}

    def solve(node):
        entry = {1: (_medoid_cost(inst, node), [node])}
        if node in children:
            left, right = children[node]
            solve(left)
            solve(right)
            max_j = min(k, len(node))
            for j in range(2, max_j + 1):
                best = None
                for jl in range(1, j):
                    jr = j - jl
                    if jl not in table[left] or jr not in table[right]:
                        continue
                    cand_cost = table[left][jl][0] + table[right][jr][0]
                    if best is None or cand_cost < best[0]:
                        best = (cand_cost, table[left][jl][1] + table[right][jr][1])
                if best is not None:
                    entry[j] = best
        table[node] = entry

    solve(root)
    if k not in table[root]:
        raise ValueError("tree cannot be pruned to k clusters")
    cost, clusters = table[root][k]
    return clusters, cost
