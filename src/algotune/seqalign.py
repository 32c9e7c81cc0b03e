"""Affine-gap pairwise alignment and progressive multiple-sequence alignment.

The pairwise aligner maximizes

    matches - rho1 * mismatches - rho2 * indels - rho3 * gap_runs

with a three-state (Gotoh) dynamic program, swept one anti-diagonal at a
time with numpy over a leading batch axis: ``align_batch`` aligns B pairs,
each under its own penalties, in one sweep, padded to the batch's longest
lengths, and ``affine_align`` is a batch of one.  Padding is exact because a
cell reads only cells above and to its left, so padded cells never reach a
pair's own table.  The sweep keeps three score diagonals (O(B * (n + m))
floats) and a traceback of one uint8 per cell; a batch is cut into chunks
whose traceback fits a stated budget, from which ``MAX_LEN`` also follows
(see ``align_batch``).  Tie-breaking is fixed globally (diagonal, then gap
in the second row, then gap in the first row) so the output is a
deterministic function of the parameters; the sweep does the float
operations of the cell-by-cell recurrence, so scores and ties match it
exactly.  ``progressive_align`` aligns all guide-tree nodes of one height in
one batch.  On the one-dimensional
indel slice (rho1 = rho3 = 0) the optimal objective is the upper envelope of
one line per reachable alignment, and ``indel_breakpoints`` computes that
envelope exactly with ``piecewise.sweep_linear`` (Eisner–Severance ray
search), aligning the pair at every probe penalty of a sweep round in one
``align_batch`` call.

``gen_lb_sequences`` builds the sequence-pair family whose thresholded
utilities realize every sign pattern, the worst case for this family.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence as Seq

import numpy as np

from .piecewise import PiecewiseFunction1D, refine_constant, sweep_linear

GAP = "-"

NEG = float("-inf")

_GAPS = frozenset((GAP,))


class Sequence:
    """An ungapped sequence of symbols (arbitrary string tokens) with a label."""

    __slots__ = ("chars", "id")

    def __init__(self, chars: Iterable[str] | str, id: str = ""):
        toks = tuple(chars)
        if any(c == GAP for c in toks):
            raise ValueError(f"symbol {GAP!r} is reserved for gaps")
        self.chars = toks
        self.id = id

    def __len__(self):
        return len(self.chars)

    def __getitem__(self, i):
        return self.chars[i]

    def __iter__(self):
        return iter(self.chars)

    def __eq__(self, other):
        return isinstance(other, Sequence) and self.chars == other.chars

    def __hash__(self):
        return hash(self.chars)

    def __repr__(self):
        return f"Sequence({''.join(self.chars)!r}, id={self.id!r})"


def del_gaps(row: Seq[str]) -> tuple[str, ...]:
    return tuple(c for c in row if c != GAP)


class Alignment:
    """Rows of equal length over the gapped alphabet; no column is all gaps."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Seq[str]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("need at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows must have equal length")
        for j in range(width):
            if all(r[j] == GAP for r in rows):
                raise ValueError(f"column {j} is all gaps")
        self.rows = rows

    @property
    def n_columns(self):
        return len(self.rows[0])

    def sources(self) -> list[tuple[str, ...]]:
        return [del_gaps(r) for r in self.rows]

    def __eq__(self, other):
        return isinstance(other, Alignment) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Alignment(" + ", ".join("".join(r) for r in self.rows) + ")"


@dataclass(frozen=True)
class AlignmentFeatures:
    matches: int
    mismatches: int
    indels: int
    gaps: int  # maximal gap runs summed over rows; terminal runs count


@dataclass(frozen=True)
class AffineParams:
    """Penalties (mismatch, indel, gap-open); all nonnegative."""

    rho1: float = 0.0
    rho2: float = 0.0
    rho3: float = 0.0

    def __post_init__(self):
        for r in (self.rho1, self.rho2, self.rho3):
            if not math.isfinite(r) or r < 0:
                raise ValueError("penalties must be finite and nonnegative")


def pairwise_features(aln: Alignment) -> AlignmentFeatures:
    if len(aln.rows) != 2:
        raise ValueError("feature counts are defined for pairwise alignments")
    r1, r2 = aln.rows
    mt = ms = ind = 0
    for a, b in zip(r1, r2):
        if a == GAP or b == GAP:
            ind += 1
        elif a == b:
            mt += 1
        else:
            ms += 1
    gp = sum(sum(1 for k, g in groupby(row) if k == GAP) for row in aln.rows)
    return AlignmentFeatures(mt, ms, ind, gp)


def objective(feats: AlignmentFeatures, p: AffineParams) -> float:
    return feats.matches - p.rho1 * feats.mismatches - p.rho2 * feats.indels - p.rho3 * feats.gaps


# DP states: 0 = diagonal, 1 = gap in row 2 (consumes s1), 2 = gap in row 1.
_D, _P, _Q = 0, 1, 2

# The traceback keeps one uint8 per interior cell, so an n x m alignment
# holds n * m bytes of it; scores live on three anti-diagonals, O(n + m).
TRACEBACK_BUDGET = 100_000_000  # bytes
TRACEBACK_BYTES_PER_CELL = 1
MAX_LEN = math.isqrt(TRACEBACK_BUDGET // TRACEBACK_BYTES_PER_CELL)  # 10_000

# bit weights packing two "candidate below the max" flags per target state
_TRACE_BITS = np.array([1, 2, 4, 8, 16, 32], dtype=np.uint8)
_SUB_ROWS = 64  # diagonals per block of precomputed substitution scores


def affine_align(
    s1: Sequence, s2: Sequence, p: AffineParams
) -> tuple[Alignment, AlignmentFeatures, float]:
    """Optimal affine-gap alignment of two sequences: ``align_batch`` of one pair.

    Deterministic traceback: at equal score prefer the diagonal move, then a
    gap in row 2, then a gap in row 1, both for the final state and for every
    predecessor choice.

    Memory: three score diagonals (O(n + m) floats) and a traceback of
    ``TRACEBACK_BYTES_PER_CELL * n * m`` bytes.  ``MAX_LEN`` is the largest
    L with ``L * L * TRACEBACK_BYTES_PER_CELL <= TRACEBACK_BUDGET`` (10^8
    bytes), i.e. 10,000, so one pair always fits the budget; lengths are
    checked before anything is allocated.
    """
    return align_batch(((s1, s2),), (p,))[0]


def align_batch(
    pairs: Seq[tuple[Sequence, Sequence]], params: Seq[AffineParams]
) -> list[tuple[Alignment, AlignmentFeatures, float]]:
    """Optimal affine-gap alignments of many sequence pairs, one ``AffineParams`` per pair.

    Returns ``(alignment, features, objective)`` per pair, in input order,
    each equal to what ``affine_align`` gives the pair under its own
    parameters, bit for bit (same scores, same tie-breaks).  A pair may
    appear several times under different parameters: that is how a
    parameter sweep solves all its probe points in one call.  The penalties
    enter the sweep as per-pair columns, so one set shared by every pair
    costs what it did as a scalar.

    Every length is checked against ``MAX_LEN`` first; then the pairs are
    cut, in order, into chunks whose traceback ``TRACEBACK_BYTES_PER_CELL *
    B * N * M`` fits ``TRACEBACK_BUDGET`` (B pairs padded to the chunk's
    longest N and M; a pair too large on its own forms its own chunk), and
    each chunk is one ``_sweep``.  The chunks are planned before any table
    is allocated.
    """
    if len(params) != len(pairs):
        raise ValueError("need one AffineParams per pair")
    sizes = [(len(s1), len(s2)) for s1, s2 in pairs]
    for n, m in sizes:
        if n == 0 or m == 0:
            raise ValueError("sequences must be nonempty")
        if n > MAX_LEN or m > MAX_LEN:
            raise ValueError(f"sequence longer than configured max {MAX_LEN}")
    cells = TRACEBACK_BUDGET // TRACEBACK_BYTES_PER_CELL
    cuts = [0]
    top_n = top_m = 0
    for k, (n, m) in enumerate(sizes):
        top_n, top_m = max(top_n, n), max(top_m, m)
        if k > cuts[-1] and (k - cuts[-1] + 1) * top_n * top_m > cells:
            cuts.append(k)
            top_n, top_m = n, m
    cuts.append(len(sizes))
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        out += _sweep(pairs[lo:hi], params[lo:hi])
    return out


def _sweep(
    pairs: Seq[tuple[Sequence, Sequence]], params: Seq[AffineParams]
) -> list[tuple[Alignment, AlignmentFeatures, float]]:
    """One anti-diagonal Gotoh sweep over B pairs padded to a common N x M.

    The recurrences are swept by anti-diagonals: cell (i, j) reads only
    diagonals i + j - 1 and i + j - 2, so each diagonal of every pair is
    computed at once from a (target state x D/P/Q predecessor x pair x cell)
    candidate block, with exactly the float operations of the cell-by-cell
    recurrence (one max, then add the substitution score; predecessor minus
    the open or extend penalty, each pair its own).  Scores are therefore
    bit-identical to a row-by-row loop, and so are ties.  The predecessor is the first candidate
    equal to the block's max, which is the D > P > Q priority that ``argmax``
    would give; two comparisons with the max find it (numpy's ``argmax`` over
    a length-3 axis costs a call per cell).  The traceback stores, per target
    state, whether D and whether P fall below the max: 6 bits in one uint8
    per cell.

    Padding is exact: a cell reads only cells (i', j') with i' <= i and
    j' <= j, so the padded cells of a pair (i > n_k or j > m_k) never reach a
    cell of its own n_k x m_k table.  Each pair's final states are read on its
    own diagonal n_k + m_k as that diagonal is filled, and its traceback reads
    only its own cells.

    Memory: three score diagonals (O(B * (N + M)) floats), a block of
    substitution scores for the next ``_SUB_ROWS`` diagonals (O(B * N)
    floats), and a traceback of ``TRACEBACK_BYTES_PER_CELL * B * N * M``
    bytes, held diagonal by diagonal so that each diagonal of all pairs is
    one contiguous slice.
    """
    B = len(pairs)
    ns = [len(s1) for s1, _ in pairs]
    ms = [len(s2) for _, s2 in pairs]
    n, m = max(ns), max(ms)

    # per-pair penalty columns, shape (B, 1): the scalar operations, row by row
    rho1, rho2, rho3 = np.array([(p.rho1, p.rho2, p.rho3) for p in params]).T[:, :, None]
    open_pen = rho2 + rho3
    ext_pen = rho2
    # edge[k, e]: end gap of e + 1 letters for pair k, -(open + e * ext)
    edge = -(open_pen + np.arange(max(n, m)) * ext_pen)
    codes: dict[str, int] = {}
    a = np.full((B, n), -2)
    b = np.full((B, n + m + n), -1)
    for k, (s1, s2) in enumerate(pairs):
        a[k, :ns[k]] = [codes.setdefault(c, len(codes)) for c in s1.chars]
        b[k, n:n + ms[k]] = [codes.setdefault(c, len(codes)) for c in s2.chars]
    # facing[d - 2, k, i - 1] is the code of pair k's s2[d - i - 1], or -1 off the table
    facing = np.ndarray((n + m - 1, B, n), b.dtype, b, n * b.itemsize,
                        (b.itemsize, b.strides[0], -b.itemsize))
    # subtracted from the (D, P, Q) predecessors of P, then of Q
    pen = np.array([[open_pen, ext_pen, open_pen], [open_pen, open_pen, ext_pen]])

    # ring[d % 3, state, k, i] holds cell (i, d - i) of pair k; one spare
    # column lets the P and Q predecessors of a diagonal (offsets i - 1 and i)
    # be one window.
    ring = np.full((3, 3, B, n + 2), NEG)
    ring[0, _D, :, 0] = 0.0
    ring[1, _Q, :, 0] = ring[1, _P, :, 1] = edge[:, 0]
    s_slot, s_state, s_pair, s_cell = ring.strides
    window = np.ndarray((3, 2, 3, B, n + 1), ring.dtype, ring, 0,
                        (s_slot, s_cell, s_state, s_pair, s_cell))
    cand = np.empty((3, 3, B, n))  # target state, predecessor state, pair, cell
    ends: dict[int, list[int]] = {}
    for k in range(B):
        ends.setdefault(ns[k] + ms[k], []).append(k)
    finals: list = [None] * B  # per pair, its (D, P, Q) scores at cell (n_k, m_k)
    # interior cells (i, j >= 1), diagonal by diagonal; within one, pair by
    # pair, ascending i.  Pair k's cell (i, d - i) is trace[base[d] + k * widths[d] + i].
    trace = np.empty(B * n * m, dtype=np.uint8)
    base = [0, 0]
    widths = [0, 0]
    off = 0
    for d in range(2, n + m + 1):
        cur, last = d % 3, (d - 1) % 3
        if d == 3:  # the origin's slot moves on to cell (0, 3)
            ring[0, _D, :, 0] = NEG
        if d <= m:  # cell (0, d)
            ring[cur, _Q, :, 0] = edge[:, d - 1]
        if d <= n:  # cell (d, 0)
            ring[cur, _P, :, d] = edge[:, d - 1]
        if (d - 2) % _SUB_ROWS == 0:
            sub = np.where(facing[d - 2:d - 2 + _SUB_ROWS] == a, 1.0, -rho1)
            first = d
        lo, hi = max(1, d - m), min(n, d - 1)
        w = hi - lo + 1
        base.append(off - lo)
        widths.append(w)
        c = cand[..., :w]
        c[_D] = ring[(d - 2) % 3, :, :, lo - 1:hi]
        np.subtract(window[last, :, :, :, lo - 1:hi], pen, out=c[1:])
        best = ring[cur, :, :, lo:hi + 1]
        np.maximum.reduce(c, 1, out=best)
        below = c[:, :2] != best[:, None]
        np.matmul(_TRACE_BITS, below.reshape(6, B * w), out=trace[off:off + B * w])
        off += B * w
        best[_D] += sub[d - first, :, lo - 1:hi]
        for k in ends.get(d, ()):
            finals[k] = ring[cur, :, k, ns[k]].tolist()

    cells = memoryview(trace)
    out = []
    for k, ((s1, s2), p) in enumerate(zip(pairs, params)):
        here = base if k == 0 else [o + k * w for o, w in zip(base, widths)]
        state = finals[k].index(max(finals[k]))  # index() returns the first, i.e. D > P > Q
        aln = _trace_back(s1, s2, cells, here, state)
        feats = pairwise_features(aln)
        out.append((aln, feats, objective(feats, p)))
    return out


def _trace_back(s1: Sequence, s2: Sequence, cells, base: list[int], state: int) -> Alignment:
    """Follow the stored predecessor bits from cell (n, m) in ``state``."""
    r1, r2 = [], []
    i, j = len(s1), len(s2)
    while i > 0 and j > 0:
        bits = cells[base[i + j] + i] >> (2 * state)
        prev = _D if not bits & 1 else (_P if not bits & 2 else _Q)
        if state == _D:
            r1.append(s1[i - 1])
            r2.append(s2[j - 1])
            i -= 1
            j -= 1
        elif state == _P:
            r1.append(s1[i - 1])
            r2.append(GAP)
            i -= 1
        else:
            r1.append(GAP)
            r2.append(s2[j - 1])
            j -= 1
        state = prev
    # the first row and column are reached only through end gaps
    r1 += reversed(s1.chars[:i])
    r2 += [GAP] * i
    r1 += [GAP] * j
    r2 += reversed(s2.chars[:j])
    return Alignment((reversed(r1), reversed(r2)))


def enumerate_alignments(s1: Sequence, s2: Sequence) -> list[Alignment]:
    """All alignments of two short sequences (brute-force oracle, length <= 6)."""
    n, m = len(s1), len(s2)
    if n == 0 or m == 0:
        raise ValueError("sequences must be nonempty")
    if n > 6 or m > 6:
        raise ValueError("oracle scale only")

    out: list[Alignment] = []

    def rec(i, j, r1, r2):
        if i == n and j == m:
            out.append(Alignment((tuple(r1), tuple(r2))))
            return
        if i < n and j < m:
            r1.append(s1[i])
            r2.append(s2[j])
            rec(i + 1, j + 1, r1, r2)
            r1.pop()
            r2.pop()
        if i < n:
            r1.append(s1[i])
            r2.append(GAP)
            rec(i + 1, j, r1, r2)
            r1.pop()
            r2.pop()
        if j < m:
            r1.append(GAP)
            r2.append(s2[j])
            rec(i, j + 1, r1, r2)
            r1.pop()
            r2.pop()

    rec(0, 0, [], [])
    return out


def matched_pairs(aln: Alignment) -> set[tuple[int, int]]:
    """Letter-position pairs (1-based) aligned in the two rows."""
    if len(aln.rows) != 2:
        raise ValueError("pairwise alignments only")
    pairs = set()
    i = j = 0
    for a, b in zip(*aln.rows):
        if a != GAP:
            i += 1
        if b != GAP:
            j += 1
        if a != GAP and b != GAP:
            pairs.add((i, j))
    return pairs


def q_score(candidate: Alignment, reference: Alignment) -> float:
    """Fraction of the reference's aligned letter pairs reproduced by the candidate."""
    if candidate.sources() != reference.sources():
        raise ValueError("alignments are over different sequence pairs")
    ref = matched_pairs(reference)
    if not ref:
        return 1.0
    return len(matched_pairs(candidate) & ref) / len(ref)


def consensus(a: Alignment) -> Sequence:
    """Per-column most-frequent non-gap symbol; ties break lexicographically."""
    # max() keeps the first of equal counts, and the candidates come sorted
    return Sequence(
        (max(sorted(set(col) - _GAPS), key=col.count) for col in zip(*a.rows)),
        id="consensus",
    )


class GuideTree:
    """Binary tree whose leaves name the input sequences of a progressive MSA."""

    class Node:
        __slots__ = ("label", "left", "right")

        def __init__(self, label=None, left=None, right=None):
            self.label = label
            self.left = left
            self.right = right

        @property
        def is_leaf(self):
            return self.label is not None

    def __init__(self, root: "GuideTree.Node"):
        self.root = root
        # one pre-order walk, left first, that checks the structure before it
        # descends and collects the labels; a leaf's children are not walked
        labels, leaf_with_children, stack = [], False, [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                labels.append(node.label)
                leaf_with_children = leaf_with_children or bool(node.left or node.right)
            elif node.left is None or node.right is None:
                raise ValueError("internal nodes need exactly two children")
            else:
                stack += [node.right, node.left]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate leaf labels")
        if leaf_with_children:
            raise ValueError("leaf with children")

    def leaf_labels(self) -> list[str]:
        """Leaf labels left to right."""
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node.label)
            else:
                stack += [node.right, node.left]
        return out

    @classmethod
    def from_newick(cls, text: str) -> "GuideTree":
        """Parse a binary Newick subset with leaf labels only: ((a,b),(c,d));

        One loop, no recursion, so a tree of any depth parses: each pass reads
        the '(' that open new nodes and one leaf label, then closes every node
        that the leaf completes.
        """
        s = text.strip()
        if s.endswith(";"):
            s = s[:-1]
        pos = 0
        open_nodes: list[list] = []  # children read so far, one list per unclosed '('
        while True:
            while pos < len(s) and s[pos] == "(":
                pos += 1
                open_nodes.append([])
            start = pos
            while pos < len(s) and s[pos] not in "(),;":
                pos += 1
            label = s[start:pos].strip()
            if not label:
                raise ValueError("empty leaf label in newick input")
            node = cls.Node(label=label)
            while open_nodes:
                kids = open_nodes[-1]
                kids.append(node)
                if len(kids) == 1:  # a left child: its right sibling follows the ','
                    if pos >= len(s) or s[pos] != ",":
                        raise ValueError("expected ',' in newick input")
                    pos += 1
                    break
                if pos >= len(s) or s[pos] != ")":
                    raise ValueError("expected ')' in newick input")
                pos += 1
                open_nodes.pop()
                node = cls.Node(left=kids[0], right=kids[1])
            else:  # every '(' is closed: node is the root
                break
        if pos != len(s):
            raise ValueError(f"trailing newick input at position {pos}")
        return cls(node)

    @classmethod
    def balanced(cls, labels: Seq[str]) -> "GuideTree":
        def build(lo, hi):
            if hi - lo == 1:
                return cls.Node(label=labels[lo])
            mid = (lo + hi) // 2
            return cls.Node(left=build(lo, mid), right=build(mid, hi))

        if not labels:
            raise ValueError("need at least one label")
        return cls(build(0, len(labels)))


def progressive_align(
    seqs: Seq[Sequence], tree: GuideTree, p: AffineParams
) -> Alignment:
    """Progressive MSA over a guide tree using consensus sequences.

    Bottom-up, each internal node pairwise-aligns its children's consensus
    sequences and stores its own consensus; top-down, gap columns are pushed
    into the children's alignment sequences ("once a gap, always a gap").

    A node's pair depends only on nodes below it, so the internal nodes are
    grouped by height (1 + the larger child height) and each height is one
    ``align_batch`` call: a balanced tree over L leaves takes about log2(L)
    sweeps instead of L - 1, with every pair as ``affine_align`` would give
    it.  ``align_batch`` splits a height into chunks that fit the traceback
    budget.
    """
    by_id = {s.id: s for s in seqs}
    labels = tree.leaf_labels()
    if len(by_id) != len(seqs):
        raise ValueError("sequence ids must be unique")
    if sorted(labels) != sorted(by_id):
        raise ValueError("guide-tree leaves do not match the sequence ids")

    order = [tree.root]  # breadth-first, so every parent comes before its children
    for node in order:
        if not node.is_leaf:
            order += [node.right, node.left]

    cons: dict[int, Sequence] = {}
    pair: dict[int, Alignment] = {}
    height: dict[int, int] = {}
    levels: list[list[GuideTree.Node]] = []  # internal nodes by height - 1
    for node in reversed(order):
        if node.is_leaf:
            cons[id(node)] = by_id[node.label]
            height[id(node)] = 0
            continue
        h = height[id(node)] = 1 + max(height[id(node.left)], height[id(node.right)])
        if h > len(levels):
            levels.append([])
        levels[h - 1].append(node)
    for level in levels:
        alns = align_batch([(cons[id(v.left)], cons[id(v.right)]) for v in level], [p] * len(level))
        for v, (aln, _, _) in zip(level, alns):
            pair[id(v)] = aln
            cons[id(v)] = consensus(aln)

    sigma: dict[int, tuple[str, ...]] = {id(tree.root): cons[id(tree.root)].chars}
    rows: dict[str, tuple[str, ...]] = {}
    for node in order:
        if node.is_leaf:
            rows[node.label] = sigma[id(node)]
            continue
        tau1, tau2 = pair[id(node)].rows
        out1, out2 = [], []
        k = 0
        for c in sigma[id(node)]:
            if c == GAP:
                out1.append(GAP)
                out2.append(GAP)
            else:
                out1.append(tau1[k])
                out2.append(tau2[k])
                k += 1
        sigma[id(node.left)] = tuple(out1)
        sigma[id(node.right)] = tuple(out2)
    return Alignment(rows[s.id] for s in seqs)


def _align_at_indel_penalties(s1: Sequence, s2: Sequence, rhos: Seq[float]):
    """``affine_align`` of one pair on the indel slice at each of ``rhos``, as one batch."""
    return align_batch([(s1, s2)] * len(rhos), [AffineParams(0.0, rho, 0.0) for rho in rhos])


def _traceback_tag(aln: Alignment) -> int:
    return zlib.crc32("\n".join("".join(r) for r in aln.rows).encode())


def indel_breakpoints(s1: Sequence, s2: Sequence, rho_max: float) -> PiecewiseFunction1D:
    """Exact optimal-objective envelope over the indel penalty in [0, rho_max].

    Each alignment contributes the line ``matches - rho * indels``; the
    optimum is their upper envelope, found by ``sweep_linear``.  Each sweep
    round is one ``align_batch`` call that aligns the pair once per probe
    point.  Breakpoints are exact ratios of integer feature counts.
    """
    if rho_max <= 0:
        raise ValueError("rho_max must be positive")

    def solve(rhos):
        alns = _align_at_indel_penalties(s1, s2, rhos)
        return [(-float(f.indels), float(f.matches), _traceback_tag(aln)) for aln, f, _ in alns]

    return sweep_linear(solve, 0.0, rho_max)


def utility_breakpoints(
    s1: Sequence, s2: Sequence, reference: Alignment, rho_max: float
) -> PiecewiseFunction1D:
    """Piecewise-constant Q-score of the parameterized aligner against a reference.

    Refines the objective envelope; each piece's value is the Q-score of the
    aligner's actual output at the piece midpoint, so tie-breaking matches the
    algorithm.  All midpoints are aligned in one ``align_batch`` call.
    Adjacent equal-valued pieces merge.
    """
    env = indel_breakpoints(s1, s2, rho_max)

    def util(rhos):
        return [q_score(aln, reference) for aln, _, _ in _align_at_indel_penalties(s1, s2, rhos)]

    return refine_constant(env, util)


def gen_lb_sequences(n: int):
    """Worst-case sequence-pair family over the indel slice.

    Returns ``(pairs, references, thresholds)``: N = log2(k+1) sequence pairs
    over the 4k-symbol alphabet with k = 2^floor(log2 sqrt(n/2)) - 1, their
    ground-truth alignments (alternating low/high sub-alignments, starting and
    ending low), and the list of utility flip thresholds per pair.
    """
    if n < 8:
        raise ValueError("need n >= 8")
    k = 2 ** int(math.floor(math.log2(math.sqrt(n / 2)))) - 1
    N = int(round(math.log2(k + 1)))

    def t1(j):
        return [f"a{j}"] * j + [f"b{j}", f"d{j}"]

    def t2(j):
        return [f"b{j}"] + [f"c{j}"] * j + [f"d{j}"]

    def low(j):  # b characters deliberately unmatched
        r1 = [f"a{j}"] * j + [f"b{j}"] + [GAP] * j + [f"d{j}"]
        r2 = [f"b{j}"] + [GAP] * j + [f"c{j}"] * j + [f"d{j}"]
        return r1, r2

    def high(j):  # b characters matched at the cost of 2j indels
        r1 = [f"a{j}"] * j + [f"b{j}"] + [GAP] * j + [f"d{j}"]
        r2 = [GAP] * j + [f"b{j}"] + [f"c{j}"] * j + [f"d{j}"]
        return r1, r2

    pairs, references, thresholds = [], [], []
    for i in range(1, N + 1):
        step = 2 ** (i - 1)
        js = list(range(step, k + 1 - step + 1, step))
        c1: list[str] = []
        c2: list[str] = []
        r1: list[str] = []
        r2: list[str] = []
        for pos, j in enumerate(js):
            c1 += t1(j)
            c2 += t2(j)
            a, b = low(j) if pos % 2 == 0 else high(j)
            r1 += a
            r2 += b
        pairs.append((Sequence(c1, id=f"S1_{i}"), Sequence(c2, id=f"S2_{i}")))
        references.append(Alignment((r1, r2)))
        thresholds.append([1.0 / (2 * j) for j in reversed(js)])
    return pairs, references, thresholds


def lb_verify(n: int):
    """Build the lower-bound family and check shattering with witnesses 3/4.

    Candidate parameters are midpoints of the full threshold grid (plus one
    point below and one above), which avoids evaluating at tie points.
    Returns ``(certificate, pairs, references, thresholds)``.
    """
    from .bounds import verify_shattering

    pairs, references, thresholds = gen_lb_sequences(n)
    grid = thresholds[0]  # pair 1 carries every threshold
    candidates = [grid[0] / 2]
    candidates += [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
    candidates.append(grid[-1] * 1.5)

    duals = [
        (
            lambda rho, s=pair, ref=ref: q_score(
                affine_align(s[0], s[1], AffineParams(0.0, rho, 0.0))[0], ref
            )
        )
        for pair, ref in zip(pairs, references)
    ]
    cert = verify_shattering(duals, [0.75] * len(pairs), candidates)
    return cert, pairs, references, thresholds


# -- FASTA-lite / Newick IO ---------------------------------------------------


def parse_fasta(text: str) -> list[tuple[str, str]]:
    """Parse '>id' / sequence-line records; returns (id, raw string) pairs."""
    records: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            records.append((line[1:].strip(), []))
        else:
            if not records:
                raise ValueError("sequence data before any '>' header")
            records[-1][1].append(line)
    return [(rid, "".join(chunks)) for rid, chunks in records]


def sequences_from_fasta(text: str) -> list[Sequence]:
    return [Sequence(raw, id=rid) for rid, raw in parse_fasta(text)]


def alignment_from_fasta(text: str) -> Alignment:
    return Alignment(tuple(raw) for _, raw in parse_fasta(text))


def to_fasta(rows: Seq[tuple[str, str]]) -> str:
    return "".join(f">{rid}\n{body}\n" for rid, body in rows)
