"""Seeded input generators with a planted truth.

Standard library only: nothing here imports algotune, so the inputs (and the
truths the checks score against) never depend on the code being measured.
Every generator takes a ``random.Random`` and returns text that is a pure
function of that generator's state, so one seed gives byte-identical files.
"""

from __future__ import annotations

import random

DNA = "ACGT"
RNA = "ACGU"
_WC = {"A": "U", "U": "A", "C": "G", "G": "C"}


def rng_for(seed: int, *stream) -> random.Random:
    """Independent stream per (seed, label...); string seeding is stable across runs."""
    return random.Random(":".join(str(x) for x in (seed,) + stream))


def spread(lo: float, hi: float, k: int, i: int) -> float:
    """The i-th of k evenly spaced values in [lo, hi] (sizes are stratified, not drawn)."""
    return lo if k == 1 else lo + (hi - lo) * i / (k - 1)


def fmt(x: float) -> str:
    return format(x, ".6f")


# -- sequences ------------------------------------------------------------------


def mutation_history(rng: random.Random, length: int, divergence: float, alphabet=DNA):
    """Evolve a random root into a descendant; return both rows of the true alignment.

    Per root position, with total probability ``divergence``: a substitution
    (half of events), a deletion in the descendant (a quarter), or an
    insertion before the position (a quarter).  Row 1 is the root with gaps at
    insertions, row 2 the descendant with gaps at deletions; no column is
    all gaps.
    """
    row1: list[str] = []
    row2: list[str] = []
    for _ in range(length):
        c = rng.choice(alphabet)
        u = rng.random()
        if u < divergence * 0.5:
            row1.append(c)
            row2.append(rng.choice([x for x in alphabet if x != c]))
        elif u < divergence * 0.75:
            row1.append(c)
            row2.append("-")
        elif u < divergence:
            row1 += ["-", c]
            row2 += [rng.choice(alphabet), c]
        else:
            row1.append(c)
            row2.append(c)
    return "".join(row1), "".join(row2)


def degap(row: str) -> str:
    return row.replace("-", "")


def fasta(records) -> str:
    return "".join(f">{rid}\n{body}\n" for rid, body in records)


def balanced_newick(labels) -> str:
    def build(lo, hi):
        if hi - lo == 1:
            return labels[lo]
        mid = (lo + hi) // 2
        return f"({build(lo, mid)},{build(mid, hi)})"

    return build(0, len(labels)) + ";\n"


def msa_family(rng: random.Random, n_seqs: int, length: int, divergence: float):
    """A star phylogeny: each leaf is an independent mutation history of one root."""
    root = "".join(rng.choice(RNA) for _ in range(length))
    leaves = []
    for _ in range(n_seqs):
        row2 = []
        for c in root:
            u = rng.random()
            if u < divergence * 0.5:
                row2.append(rng.choice([x for x in RNA if x != c]))
            elif u < divergence * 0.75:
                continue
            elif u < divergence:
                row2 += [rng.choice(RNA), c]
            else:
                row2.append(c)
        leaves.append("".join(row2) or root[0])
    return leaves


# -- RNA --------------------------------------------------------------------------


def stem_rna(rng: random.Random, n: int):
    """Random RNA of length n with one or two planted Watson-Crick hairpins.

    Returns ``(sequence, pairs)``; pairs are 1-based, nested within a hairpin
    and side by side across hairpins, so they form a valid pseudoknot-free
    folding.
    """
    seq = [rng.choice(RNA) for _ in range(n)]
    n_hairpins = 1 if n < 48 else 2
    width = n // n_hairpins
    pairs = []
    for h in range(n_hairpins):
        lo, hi = h * width, (h + 1) * width  # 0-based window [lo, hi)
        stem = rng.randint(4, max(4, (hi - lo - 5) // 2 - 1))
        loop = rng.randint(3, 6)
        span = 2 * stem + loop
        start = lo + rng.randint(0, max(0, hi - lo - span))
        end = start + span - 1
        for t in range(stem):
            i, j = start + t, end - t
            seq[j] = _WC[seq[i]]
            pairs.append((i + 1, j + 1))
    return "".join(seq), sorted(pairs)


# -- TAD ----------------------------------------------------------------------------


def tad_matrix(rng: random.Random, n: int):
    """Symmetric contact matrix with planted block-diagonal domains.

    Background U(0, 0.3); each domain block adds U(1, 2); the diagonal is 0.
    Returns ``(csv_text, domains)`` with 1-based inclusive domain intervals.
    """
    edges = [0]
    while n - edges[-1] > 10:
        edges.append(edges[-1] + rng.randint(4, 10))
    edges.append(n)
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.uniform(0.0, 0.3)
    domains = []
    for lo, hi in zip(edges, edges[1:]):
        boost = rng.uniform(1.0, 2.0)
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                m[i][j] += boost
                m[j][i] = m[i][j]
        domains.append((lo + 1, hi))
    text = "".join(",".join(fmt(x) for x in row) + "\n" for row in m)
    return text, domains


# -- combinatorial --------------------------------------------------------------------


def knapsack_items(rng: random.Random, n: int):
    """``value,size`` CSV and a capacity of about a third of the total size."""
    items = [(round(rng.uniform(1, 10), 3), round(rng.uniform(1, 10), 3)) for _ in range(n)]
    capacity = round(sum(s for _, s in items) / 3, 3)
    return "".join(f"{v},{s}\n" for v, s in items), capacity


def mwis_graph(rng: random.Random, n: int, p: float = 0.3):
    """Erdos-Renyi G(n, p) edge list plus a ``w v weight`` line per vertex."""
    lines = [f"{u} {v}\n" for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    lines += [f"w {v} {round(rng.uniform(1, 10), 3)}\n" for v in range(n)]
    return "".join(lines)


def two_blobs(rng: random.Random, n: int, gap: float = 2.0):
    """n planar points in two unit-variance blobs ``gap`` apart; returns (csv, labels)."""
    labels = [0] * (n // 2) + [1] * (n - n // 2)
    rows = []
    for lab in labels:
        rows.append(f"{fmt(rng.gauss(gap * lab, 1.0))},{fmt(rng.gauss(0.0, 1.0))}\n")
    return "".join(rows), labels
