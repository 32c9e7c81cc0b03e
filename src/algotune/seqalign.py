"""Affine-gap pairwise alignment and progressive multiple-sequence alignment.

The pairwise aligner maximizes

    matches - rho1 * mismatches - rho2 * indels - rho3 * gap_runs

with a three-state (Gotoh) dynamic program, swept one anti-diagonal at a
time with numpy: ``align_batch`` aligns B pairs, each under its own
penalties, in one sweep, padded to the batch's longest lengths, and
``affine_align`` is a batch of one.  The arrays are cell-major (cell i of
pair k at flat index i * B + k), so a diagonal of all B pairs is one
contiguous range, and the sweep builds its array views once per block of
``_SUB_ROWS`` diagonals, which makes a diagonal four numpy calls and a block's
traceback one more.  Padding is exact because a cell reads only cells above
and to its left, so padded cells never reach a pair's own table.  The sweep
keeps three score diagonals (O(B * (n + m)) floats) and a traceback of one
uint8 per cell of each diagonal's block window; a batch is cut into chunks
whose traceback and scratch fit a stated budget, what a ``MAX_LEN`` x
``MAX_LEN`` pair takes (see ``align_batch``).  Tie-breaking is fixed globally
(diagonal, then gap in the second row, then gap in the first row) so the
output is a deterministic function of the parameters; the sweep does the
float operations of the cell-by-cell recurrence, so scores and ties match it
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
from array import array
from dataclasses import dataclass
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
        if GAP in toks:
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
        if any(map(_GAPS.issuperset, zip(*rows))):
            j = next(j for j, col in enumerate(zip(*rows)) if _GAPS.issuperset(col))
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


def objective(feats: AlignmentFeatures, p: AffineParams) -> float:
    return feats.matches - p.rho1 * feats.mismatches - p.rho2 * feats.indels - p.rho3 * feats.gaps


# DP states: 0 = diagonal, 1 = gap in row 2 (consumes s1), 2 = gap in row 1.
_D, _P, _Q = 0, 1, 2

# bit weights packing two "candidate below the max" flags per target state
_TRACE_BITS = np.array([1, 2, 4, 8, 16, 32], dtype=np.uint8)
_SUB_ROWS = 64  # diagonals per block: one set of views, substitution scores and trace rows each


def _blocks(n: int, m: int):
    """The diagonal blocks of an n x m sweep: ``(d0, rows, c0, c1)`` each.

    Block ``d0`` holds diagonals d0 .. d0 + rows - 1, and the cell window
    ``[c0, c1]`` covers every cell i that any of them computes.
    """
    for d0 in range(2, n + m + 1, _SUB_ROWS):
        yield d0, min(_SUB_ROWS, n + m + 1 - d0), max(1, d0 - m), min(n, d0 + _SUB_ROWS - 2)


def _trace_bytes(n: int, m: int) -> int:
    """Traceback bytes per pair of an n x m sweep: one uint8 per window cell of each diagonal."""
    return sum(rows * (c1 - c0 + 1) for _, rows, c0, c1 in _blocks(n, m))


#: bytes per window cell of a sweep's largest block: its substitution scores (8), its
#: flags (6) and the comparison they come from (1); the previous block's are freed
#: first.  Traced on chunks of one shape that fill SWEEP_BUDGET, a sweep takes at most
#: 13.7 bytes per such cell beyond its traceback and rows, and a chunk of eight 64 x 1
#: pairs 15.4
_BLOCK_BYTES = 16
#: bytes per letter of a pair held for the whole sweep: the score ring and candidate
#: rows (27 floats per cell of the first sequence), letter codes, end gaps, penalties
#: and the aligned rows.  Traced the same way, 10,000 x 1 pairs take 331.5
_LINE_BYTES = 336


def _sweep_bytes(n: int, m: int) -> int:
    """Peak bytes per pair of an n x m sweep: traceback, largest block's scratch, rows."""
    cells = [rows * (c1 - c0 + 1) for _, rows, c0, c1 in _blocks(n, m)]  # as in _trace_bytes
    return sum(cells) + _BLOCK_BYTES * max(cells) + _LINE_BYTES * (n + m + 1)


# The traceback keeps one uint8 per cell of each diagonal's block window,
# about n * m bytes for a square pair and up to 64 * n for a skinny one, and
# each block of 64 diagonals up to 16 bytes of scratch per window cell;
# scores live on three anti-diagonals, O(n + m).  The budget is what the
# largest pair takes, so one pair always fits it.
MAX_LEN = 10_000
SWEEP_BUDGET = _sweep_bytes(MAX_LEN, MAX_LEN)  # bytes, 117,589,073


def affine_align(
    s1: Sequence, s2: Sequence, p: AffineParams
) -> tuple[Alignment, AlignmentFeatures, float]:
    """Optimal affine-gap alignment of two sequences: ``align_batch`` of one pair.

    Deterministic traceback: at equal score prefer the diagonal move, then a
    gap in row 2, then a gap in row 1, both for the final state and for every
    predecessor choice.

    Memory: three score diagonals (O(n + m) floats), a traceback of
    ``_trace_bytes(n, m)`` bytes, one per cell of each diagonal's block
    window, and one block's scratch (see ``_sweep``), ``_sweep_bytes(n, m)``
    at the peak.  ``SWEEP_BUDGET`` is what a ``MAX_LEN`` x ``MAX_LEN`` pair
    (10,000 x 10,000) takes, so one pair always fits it; lengths and
    penalties are checked before anything is allocated.
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

    Every length is checked against ``MAX_LEN`` first, and every pair's
    score bound ``(n + m) * (1 + rho1 + 2 * (rho2 + rho3))`` must be finite,
    so no DP score or candidate leaves the float range.  Then the pairs are
    cut, in order, into chunks whose peak ``B * _sweep_bytes(N, M)`` (the
    traceback, the largest block's scratch and the per-letter rows) fits
    ``SWEEP_BUDGET`` and whose padded bound (the same with N + M and the
    chunk's largest penalties) is finite; B pairs are padded to the chunk's
    longest N and M, and a pair too large on its own forms its own chunk.
    Each chunk is one ``_sweep``.  The traceback and the scratch count
    window cells, not table cells: a skinny N x 1 pair takes about
    64 * N bytes of traceback, not N, and up to 16 times as much block
    scratch.  The chunks are planned before any table is allocated.
    """
    if len(params) != len(pairs):
        raise ValueError("need one AffineParams per pair")
    if not pairs:
        return []
    sizes = [(len(s1), len(s2)) for s1, s2 in pairs]
    # every score and candidate of an N x M sweep, padded cells' too, is -inf
    # or at most (N + M) * grow in size
    grows = [1 + p.rho1 + 2 * (p.rho2 + p.rho3) for p in params]
    for (n, m), p, grow in zip(sizes, params, grows):
        if n == 0 or m == 0:
            raise ValueError("sequences must be nonempty")
        if n > MAX_LEN or m > MAX_LEN:
            raise ValueError(f"sequence longer than configured max {MAX_LEN}")
        if not math.isfinite((n + m) * grow):
            raise ValueError(
                f"penalties rho1={p.rho1!r}, rho2={p.rho2!r}, rho3={p.rho3!r} take the "
                f"alignment scores of a {n} x {m} pair out of the float range"
            )
    cuts = [0]
    top_n = top_m = top_grow = 0
    for k, ((n, m), grow) in enumerate(zip(sizes, grows)):
        top_n, top_m, top_grow = max(top_n, n), max(top_m, m), max(top_grow, grow)
        if k > cuts[-1] and (
            (k - cuts[-1] + 1) * _sweep_bytes(top_n, top_m) > SWEEP_BUDGET
            or not math.isfinite((top_n + top_m) * top_grow)
        ):
            cuts.append(k)
            top_n, top_m, top_grow = n, m, grow
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
    computed at once from a (target state x D/P/Q predecessor x cell)
    candidate block, with exactly the float operations of the cell-by-cell
    recurrence (one max, then add the substitution score; predecessor minus
    the open or extend penalty, each pair its own).  Scores are therefore
    bit-identical to a row-by-row loop, and so are ties.  The predecessor is
    the first candidate equal to the block's max, which is the D > P > Q
    priority that ``argmax`` would give; two comparisons with the max find it
    (numpy's ``argmax`` over a length-3 axis costs a call per cell).  The
    traceback stores, per target state, whether D and whether P fall below
    the max: 6 bits in one uint8 per cell.

    Layout is cell-major: cell i of pair k sits at flat index ``i * B + k``
    in the score ring, the candidate rows, the substitution block and the
    traceback rows, so a diagonal's cells for all B pairs are one contiguous
    range and the P/Q predecessors (cells i - 1 and i of the previous
    diagonal) are one strided view whose offset axis steps B cells.  The
    penalties are tiled along the flat axis once per sweep.  One buffer
    ``work[slot, target, state, flat]`` holds both the score ring and the
    candidates: ``work[s, 0]`` is ring slot s, and ``work[s, 1:]`` the P and
    Q candidate rows of the diagonal whose D predecessors are in slot s, so
    ``work[s]`` is that diagonal's whole candidate block and its D
    candidates are read in place.  The max-reduce reads slot (d - 2) % 3 and
    writes slot d % 3, so its input and output never overlap.

    The diagonals go in blocks of ``_SUB_ROWS`` (see ``_blocks``).  Each
    block computes every diagonal over the cell window ``[c0, c1]`` that any
    of its diagonals needs, so the views and the substitution scores are
    built once per block, and a diagonal is four numpy calls: subtract the
    penalties into the P/Q candidate rows, max-reduce into the ring, compare
    with the max into the block's flag rows, add the substitution scores.
    One ``matmul`` per block then packs the flags into the block's traceback
    rows.  Window cells outside a diagonal's table (j < 0, or past a pair's
    lengths) are computed but never read by a table cell: cell (i, j) reads
    only cells (i', j') with i - 1 <= i' <= i and j - 1 <= j' <= j.  They
    hold -inf or scores within the padded bound that ``align_batch`` keeps
    finite, so they raise no floating-point error.  The
    end-gap boundaries are written after each diagonal's compute: cell
    (0, d) gets its Q state, and cell (d, 0) all three states (D and Q at
    -inf), since a window may cover i = d.  Padding is exact by the same
    argument: the padded cells of a pair (i > n_k or j > m_k) never reach a
    cell of its own n_k x m_k table.  Each pair's final states are read on
    its own diagonal n_k + m_k as that diagonal is filled.

    Memory: the ring and candidate rows (27 * B * (N + 1) floats), a block
    of substitution scores and flags for ``_SUB_ROWS`` diagonals (O(B * N)
    floats and bytes), and a traceback of ``B * _trace_bytes(N, M)`` bytes:
    one row per diagonal as wide as its block's window, so cell (i, d - i)
    of pair k is ``trace[base[d] + i * B + k]`` with ``base[d]`` the row's
    start less ``c0 * B``.  ``_sweep_bytes`` bounds all three per pair.
    """
    B = len(pairs)
    ns = [len(s1) for s1, _ in pairs]
    ms = [len(s2) for _, s2 in pairs]
    n, m = max(ns), max(ms)

    rho1, rho2, rho3 = np.array([(p.rho1, p.rho2, p.rho3) for p in params]).T
    open_pen = rho2 + rho3
    ext_pen = rho2
    # edge[e, k]: end gap of e + 1 letters for pair k, -(open + e * ext)
    edge = -(open_pen + np.arange(max(n, m))[:, None] * ext_pen)
    # cell (e + 1, 0) of every pair: only the P state is reachable
    side = np.full((len(edge), 3, B), NEG)
    side[:, _P] = edge
    codes: dict[str, int] = {}
    a = np.full((n, B), -2)
    b = np.full((n + m + n, B), -1)
    for k, (s1, s2) in enumerate(pairs):
        a[:ns[k], k] = [codes.setdefault(c, len(codes)) for c in s1.chars]
        b[n:n + ms[k], k] = [codes.setdefault(c, len(codes)) for c in s2.chars]
    # facing[d - 2, i - 1, k] is the code of pair k's s2[d - i - 1], or -1 off the table
    row = b.strides[0]
    facing = np.ndarray((n + m - 1, n, B), b.dtype, b, n * row, (row, -row, b.strides[1]))
    # subtracted from the (D, P, Q) predecessors of P, then of Q, tiled per cell
    pen = np.tile(np.array([[open_pen, ext_pen, open_pen], [open_pen, open_pen, ext_pen]]), n)

    # work[d % 3, 0, state, i * B + k] holds cell (i, d - i) of pair k (the ring);
    # work[d % 3, 1:] the P and Q candidates of diagonal d + 2, whose D candidates
    # are cells i - 1 of ring slot d % 3, so work[d % 3] is that diagonal's block
    work = np.empty((3, 3, 3, (n + 1) * B))
    ring = work[:, 0]
    ring.fill(NEG)
    ring[0, _D, :B] = 0.0
    ring[1, _Q, :B] = ring[1, _P, B:2 * B] = edge[0]
    s_slot, _, s_state, s_cell = work.strides
    # window[d % 3, 0 or 1, state, (i - 1) * B + k]: cell i - 1, or i, of pair k
    window = np.ndarray((3, 2, 3, n * B), work.dtype, work, 0, (s_slot, B * s_cell, s_state, s_cell))
    ends: dict[int, list[int]] = {}
    for k in range(B):
        ends.setdefault(ns[k] + ms[k], []).append(k)
    finals: list = [None] * B  # per pair, its (D, P, Q) scores at cell (n_k, m_k)
    trace = np.empty(B * _trace_bytes(n, m), dtype=np.uint8)
    base = array("q", (0, 0))  # 8 bytes per diagonal, not a Python int
    off = 0
    for d0, rows, c0, c1 in _blocks(n, m):
        lo_f, hi_f = (c0 - 1) * B, c1 * B
        width = hi_f - lo_f
        sub = np.where(facing[d0 - 2:d0 - 2 + rows, c0 - 1:c1] == a[c0 - 1:c1], 1.0, -rho1)
        sub = sub.reshape(rows, width)
        below = np.empty((rows, 3, 2, width), dtype=bool)  # target, D or P, cell
        cut = pen[:, :, :width]
        views = []
        for cur in range(3):
            cand = work[cur - 2, :, :, lo_f:hi_f]  # target state, predecessor state, cell
            best = ring[cur, :, lo_f + B:hi_f + B]
            views.append((cand, cand[1:], cand[:, :2], window[cur - 1, :, :, lo_f:hi_f],
                          best, best[:, None], best[_D]))
        for d in range(d0, d0 + rows):
            cur = d % 3
            cand, cand_pq, tied, pq, best, best3, best_d = views[cur]
            np.subtract(pq, cut, out=cand_pq)
            np.maximum.reduce(cand, 1, out=best)
            np.not_equal(tied, best3, out=below[d - d0])
            np.add(best_d, sub[d - d0], out=best_d)
            if d == 3:  # the origin's slot moves on to cell (0, 3)
                ring[0, _D, :B] = NEG
            if d <= m:  # cell (0, d)
                ring[cur, _Q, :B] = edge[d - 1]
            if d <= n:  # cell (d, 0)
                ring[cur, :, d * B:(d + 1) * B] = side[d - 1]
            for k in ends.get(d, ()):
                finals[k] = ring[cur, :, ns[k] * B + k].tolist()
        size = rows * width
        # the flags read as uint8, so matmul packs them without a cast copy of the block
        np.matmul(_TRACE_BITS, below.view(np.uint8).reshape(rows, 6, width),
                  out=trace[off:off + size].reshape(rows, width))
        base.extend(range(off - c0 * B, off - c0 * B + size, width))
        off += size
        del sub, below  # this block's scratch goes before the next block's is built

    cells = memoryview(trace)
    out = []
    for k, ((s1, s2), p) in enumerate(zip(pairs, params)):
        state = finals[k].index(max(finals[k]))  # index() returns the first, i.e. D > P > Q
        aln, feats = _trace_back(s1.chars, s2.chars, cells, base, B, k, state)
        out.append((aln, feats, objective(feats, p)))
    return out


def _trace_back(
    a: tuple[str, ...], b: tuple[str, ...], cells, base: array, B: int, k: int, state: int
) -> tuple[Alignment, AlignmentFeatures]:
    """Follow pair ``k``'s stored predecessor bits from cell (n, m) in ``state``.

    Cell (i, j) of pair k of a B-pair sweep is ``cells[base[i + j] + i * B +
    k]`` (see ``_sweep``).  Returns the alignment of ``a`` and ``b`` with its
    features, counted on the way: a column in state D is a match or a
    mismatch, every other column is an indel, and a gap run starts (seen from
    the right) at a P or Q column whose right neighbour is in another state.
    """
    r1, r2 = [], []
    i, j = len(a), len(b)
    diagonal = matches = gaps = 0
    right = _D  # state of the column to the right (D past the last column)
    while i > 0 and j > 0:
        bits = cells[base[i + j] + i * B + k] >> (2 * state)
        if state == _D:
            i -= 1
            j -= 1
            r1.append(a[i])
            r2.append(b[j])
            diagonal += 1
            matches += a[i] == b[j]
        else:
            gaps += state != right
            if state == _P:
                i -= 1
                r1.append(a[i])
                r2.append(GAP)
            else:
                j -= 1
                r1.append(GAP)
                r2.append(b[j])
        right = state
        state = _D if not bits & 1 else (_P if not bits & 2 else _Q)
    # the first row and column are reached only through end gaps; one of i, j is 0
    gaps += (i > 0 and right != _P) + (j > 0 and right != _Q)
    r1 += reversed(a[:i])
    r2 += [GAP] * i
    r1 += [GAP] * j
    r2 += reversed(b[:j])
    feats = AlignmentFeatures(matches, diagonal - matches, len(a) + len(b) - 2 * diagonal, gaps)
    return Alignment((reversed(r1), reversed(r2))), feats


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
        nodes = self._walk()
        labels = [v.label for v in nodes if v.is_leaf]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate leaf labels")
        if any(v.is_leaf and (v.left or v.right) for v in nodes):
            raise ValueError("leaf with children")

    def _walk(self) -> list["GuideTree.Node"]:
        """Every node in pre-order, left first, so a parent precedes its children.

        An internal node is checked for two children before they are pushed;
        a leaf's children are not walked.
        """
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                if node.left is None or node.right is None:
                    raise ValueError("internal nodes need exactly two children")
                stack += [node.right, node.left]
        return out

    def leaf_labels(self) -> list[str]:
        """Leaf labels left to right."""
        return [v.label for v in self._walk() if v.is_leaf]

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
    A node's consensus is ``consensus`` of its two rows, built in one pass:
    the letter where the other row has a gap, else the smaller letter (the
    shared one where they agree).

    A node's pair depends only on nodes below it, so the internal nodes are
    grouped by height (1 + the larger child height) and each height is one
    ``align_batch`` call: a balanced tree over L leaves takes about log2(L)
    sweeps instead of L - 1, with every pair as ``affine_align`` would give
    it.  ``align_batch`` splits a height into chunks that fit the sweep
    budget.
    """
    by_id = {s.id: s for s in seqs}
    order = tree._walk()  # every parent before its children
    if len(by_id) != len(seqs):
        raise ValueError("sequence ids must be unique")
    if sorted(v.label for v in order if v.is_leaf) != sorted(by_id):
        raise ValueError("guide-tree leaves do not match the sequence ids")

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
            # consensus() of two rows: a letter over a gap, else the smaller letter
            cons[id(v)] = Sequence(
                [y if x == GAP else x if y == GAP or x <= y else y for x, y in zip(*aln.rows)],
                id="consensus",
            )

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


def indel_breakpoints(s1: Sequence, s2: Sequence, rho_max: float) -> PiecewiseFunction1D:
    """Exact optimal-objective envelope over the indel penalty in [0, rho_max].

    Each alignment contributes the line ``matches - rho * indels``; the
    optimum is their upper envelope, found by ``sweep_linear``.  Each sweep
    round is one ``align_batch`` call that aligns the pair once per probe
    point.  Each piece is tagged with its indel count, which names its line
    (as ``rnafold.rho_breakpoints`` tags pieces with their pair count).
    Breakpoints are exact ratios of integer feature counts.
    """
    if not (math.isfinite(rho_max) and rho_max > 0):
        raise ValueError(f"rho_max must be positive and finite, got {rho_max!r}")
    n, m = len(s1), len(s2)
    if not math.isfinite((n + m) * (1 + 2 * rho_max)):  # align_batch's bound at rho_max
        raise ValueError(
            f"rho_max={rho_max!r} takes the alignment scores of a {n} x {m} pair "
            "out of the float range"
        )

    def solve(rhos):
        alns = _align_at_indel_penalties(s1, s2, rhos)
        return [(-float(f.indels), float(f.matches), f.indels) for _, f, _ in alns]

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
    point below and one above), which avoids evaluating at tie points.  Each
    pair is aligned at every candidate in one ``align_batch`` call, and
    ``verify_shattering`` looks its Q-scores up by candidate.
    Returns ``(certificate, pairs, references, thresholds)``.
    """
    from .bounds import verify_shattering

    pairs, references, thresholds = gen_lb_sequences(n)
    grid = thresholds[0]  # pair 1 carries every threshold
    candidates = [grid[0] / 2]
    candidates += [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
    candidates.append(grid[-1] * 1.5)

    duals = []
    for (s1, s2), ref in zip(pairs, references):
        alns = _align_at_indel_penalties(s1, s2, candidates)
        scores = dict(zip(candidates, (q_score(aln, ref) for aln, _, _ in alns)))
        duals.append(scores.__getitem__)
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
