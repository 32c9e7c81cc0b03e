"""Parameterized RNA folding without pseudoknots.

The folding DP maximizes ``rho * |pairs| + (1 - rho) * stacking`` where the
stacking credit of a pair (i, j) is paid only when the enclosing pair
(i-1, j+1) is also present.  A folding with k pairs and stacking score S
scores the line ``S + rho * (k - S)``, so the optimal objective over rho in
[0, 1] is the upper envelope of one line per achievable k (the best S for
that k), which caps the number of envelope pieces at n/2 + 1.

One DP serves both readers.  ``_Tables`` fills the best / notp / paired
tables span by span with numpy, every cell of a span at once, for a vector
of rho values at once (a leading row axis; rows share no arithmetic, so each
equals a run at its rho alone), and keeps value, pair count and a tie-break
key, plus backpointers when a traceback will read them.  ``fold_batch`` runs
it once for many rho and reads each folding back by traceback, and ``fold``
is a batch of one.  ``rho_breakpoints`` is one ``piecewise.sweep_linear``
whose solver runs the tables once per sweep round, a row per probe rho, and
reads each optimum's (pairs, stacking) at the root cell: at most
2 * pieces + 1 rows in all.  ``utility_breakpoints`` folds every piece
midpoint in one ``fold_batch`` run.

``max_stack_by_size``, the older size-indexed DP (O(n^3 * K^2) on dicts),
is no longer on the decompose path; it stays public as an independent
per-size table (demo 04 prints it, the tests check the kernel's lines
against it).  ``upper_envelope`` is still imported here because the
benchmark tracer (``bench/tracer.py``) wraps ``rnafold.upper_envelope`` and
``rnafold.max_stack_by_size`` by name; both go when the tracer drops them.

Base pairs keep one unpaired base between their ends (j >= i + 2), the
smallest separation consistent with binding of non-adjacent bases.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .piecewise import (  # noqa: F401  (upper_envelope: see the module docstring)
    PiecewiseFunction1D,
    refine_constant,
    sweep_linear,
    upper_envelope,
)

BASES = ("A", "U", "C", "G")

#: minimum index separation of a pair's endpoints
MIN_SEP = 2

_WC = ({"A", "U"}, {"C", "G"})


class RnaSequence:
    __slots__ = ("bases",)

    def __init__(self, bases: Iterable[str] | str):
        toks = tuple(bases)
        bad = [b for b in toks if b not in BASES]
        if bad:
            raise ValueError(f"invalid bases {bad}; alphabet is {BASES}")
        self.bases = toks

    def __len__(self):
        return len(self.bases)

    def __getitem__(self, i):
        return self.bases[i]

    def __repr__(self):
        return f"RnaSequence({''.join(self.bases)!r})"


class Folding:
    """A non-crossing set of base pairs (1-based, min separation enforced)."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        ps = tuple(sorted((int(i), int(j)) for i, j in pairs))
        used = set()
        for i, j in ps:
            if j < i + MIN_SEP:
                raise ValueError(f"pair {(i, j)} violates minimum separation")
            if i < 1:
                raise ValueError("indices are 1-based")
            for x in (i, j):
                if x in used:
                    raise ValueError(f"index {x} used by two pairs")
                used.add(x)
        for a in range(len(ps)):
            for b in range(a + 1, len(ps)):
                i, j = ps[a]
                k, l = ps[b]
                if i < k < j < l:
                    raise ValueError(f"pairs {(i, j)} and {(k, l)} cross")
        self.pairs = ps

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return isinstance(other, Folding) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Folding({list(self.pairs)})"

    def to_json(self) -> str:
        return json.dumps({"pairs": [list(p) for p in self.pairs]})

    @classmethod
    def from_json(cls, text: str) -> "Folding":
        d = json.loads(text)
        try:  # a missing "pairs" key stays a KeyError
            pairs = [(int(i), int(j)) for i, j in d["pairs"]]
        except (TypeError, ValueError):
            raise ValueError("pairs must be a list of [i, j] index pairs") from None
        return cls(pairs)


@dataclass
class StackScores:
    """Score table keyed by (S[i], S[j], S[i-1], S[j+1]); missing entries are 0."""

    table: dict[tuple[str, str, str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        # the DP weighs each credit by 1 - rho, and 0 * inf is NaN at rho = 1
        if not all(map(math.isfinite, self.table.values())):
            raise ValueError("stacking scores must be finite")

    def get(self, b1, b2, b3, b4) -> float:
        return self.table.get((b1, b2, b3, b4), 0.0)

    @classmethod
    def watson_crick(cls) -> "StackScores":
        """+1 whenever both the pair and its enclosing neighbor are A/U or C/G."""
        tbl = {}
        for b1 in BASES:
            for b2 in BASES:
                if {b1, b2} not in _WC:
                    continue
                for b3 in BASES:
                    for b4 in BASES:
                        if {b3, b4} in _WC:
                            tbl[(b1, b2, b3, b4)] = 1.0
        return cls(tbl)

    @classmethod
    def from_csv(cls, text: str) -> "StackScores":
        tbl = {}
        for row in csv.reader(io.StringIO(text)):
            if not row or row[0].startswith("#"):
                continue
            b1, b2, b3, b4, score = [x.strip() for x in row]
            tbl[(b1, b2, b3, b4)] = float(score)
        return cls(tbl)


def stacking_score(s: RnaSequence, phi: Folding, m: StackScores) -> float:
    """Total stacking credit of a folding: pair (i,j) scores when (i-1,j+1) is present."""
    present = set(phi.pairs)
    total = 0.0
    n = len(s)
    for i, j in phi.pairs:
        if i >= 2 and j <= n - 1 and (i - 1, j + 1) in present:
            total += m.get(s[i - 1], s[j - 1], s[i - 2], s[j])
    return total


def fold_objective(s: RnaSequence, phi: Folding, rho: float, m: StackScores) -> float:
    return rho * len(phi) + (1.0 - rho) * stacking_score(s, phi, m)


class _Tables:
    """The span-vectorized folding DP at R values of rho at once.

    Cells are 0-based (i, j = i + d).  For each span d every cell of every
    rho is filled at once: first ``paired`` (i and j pair with each other),
    then ``notp`` (they do not), then ``best``.  ``best`` and ``notp`` are
    stored by start index and span, ``paired`` by end index and span, so the
    split candidates best(i, t - 1) + paired(t, j) of all cells of one span
    are the two plain slices ``best[..., :d - 2]`` and
    ``paired[..., d:, d - 1:1:-1]``.  Every cell does the float operations
    of the scalar recurrence in the same order (``v + rho``,
    ``pv + stackf * credit``, ``lv + rv``), with rho and ``stackf = 1 - rho``
    as per-row columns, so each row's values are those of the textbook loop
    at its rho, bit for bit, whatever the other rows hold.

    Each table is one (3, R, n, n) array of layers value, pair count and a
    third key (counts are exact in float64), so one numpy call moves all
    three.  A cell takes the candidate that is highest on value, then on the
    count layer, then on the third key:

    * ``lex`` (the rule of ``fold``): fewest pairs, so the count layer holds
      minus the pair count, then the lexicographically smallest pair tuple.
      The third key is minus the partner of the cell's first base (-n when
      it is unpaired): a tuple whose first base pairs sooner is smaller.
      Where that still ties (only between splits of ``notp``), the cells are
      kept in ``ties[k]`` (k the rho row) for ``pairs`` to settle.
      Backpointers go with the tables, one (R, n, n) array each: ``pb`` true
      when the inner pair (i+1, j-1) is paired, ``nb`` the split offset t - i
      (0 when j is unpaired), ``bb`` true when ``best`` is ``paired``.
    * otherwise (the rule of ``rho_breakpoints``): most pairs, then most
      stacking, the third key.  At a tie in value the steeper line wins, as in
      ``upper_envelope``.  Only the root cell is read, so no backpointers
      or ties are kept.

    Value, pair count and stacking all add over the parts of a folding, and
    the tuple order compares the parts left to right, so a choice made per
    cell is the choice at the root.
    """

    def __init__(self, credits: np.ndarray, rhos, lex: bool):
        n = len(credits)
        rho = np.array(rhos, dtype=float)[:, None]  # (R, 1): one row per rho
        R = len(rho)
        self.lex = lex
        self.memo: list[dict[tuple, tuple]] = [{} for _ in range(R)]
        self.ties: list[dict[int, dict]] = [{} for _ in range(R)]
        # what stacking on the inner pair adds to (value, count layer, key) of
        # a cell, stack[:, k, i, d] for cell (i, i + d) of row k; the key (the
        # stacking score) grows only under the rule of rho_breakpoints
        stack = np.zeros((3, R, n, n))
        np.multiply(1.0 - rho[:, :, None], credits, out=stack[0])
        if not lex:
            stack[2] = credits
        # what a new pair adds; a lex key is then overwritten
        grow = np.zeros((3, R, 1))
        grow[0], grow[1] = rho, -1.0 if lex else 1.0
        self.best, self.notp, self.paired = (np.zeros((3, R, n, n)) for _ in range(3))
        if lex:
            for table in (self.best, self.notp, self.paired):
                table[2] = -n
            self.bb, self.pb = np.zeros((R, n, n), dtype=bool), np.zeros((R, n, n), dtype=bool)
            self.nb = np.zeros((R, n, n), dtype=np.int32)
        B, N, P = self.best, self.notp, self.paired
        for d in range(MIN_SEP, n):
            r = n - d
            # paired(i, j): inner notp(i+1, j-1), or the stacked inner pair
            cand = N[:, :, 1 : r + 1, d - 2]
            if d - 2 >= MIN_SEP:
                stacked = P[:, :, d - 1 : n - 1, d - 2] + stack[:, :, :r, d]
                cand, wins = _pick2(cand, stacked)
                if lex:
                    self.pb[:, d:, d] = wins
            np.add(cand, grow, out=P[:, :, d:, d])
            if lex:
                P[2, :, d:, d] = -np.arange(d, n)
            # notp(i, j): j unpaired, or j paired with t for t in i+1 .. j-2
            if d == MIN_SEP:
                N[:, :, :r, d] = B[:, :, :r, d - 1]
            else:
                right = P[:, :, d:, d - 1 : 1 : -1]
                N[:, :, :r, d], split = self._pick_split(d, B[:, :, :r], right)
                if lex:
                    self.nb[:, :r, d] = split
            # best(i, j): notp or paired
            B[:, :, :r, d], wins = _pick2(N[:, :, :r, d], P[:, :, d:, d])
            if lex:
                self.bb[:, :r, d] = wins

    def _pick_split(self, d, left, right):
        """notp at span d, from best by start (``left``) and paired(t, j) for t = j-1 .. i+1.

        Column 0 is best(i, j-1) (j unpaired), column t - i adds best(i, t-1)
        and paired(t, j), left + right; under ``lex`` the third key is the
        left part's alone.  Under ``lex`` the winning column is returned too,
        and cells whose candidates still tie are kept in ``ties[k][d]``;
        otherwise only the values are.
        """
        R, r = left.shape[1:3]
        block = np.empty((3, R, r, d - 1))
        block[..., 0] = left[..., d - 1]
        np.add(left[..., : d - 2], right, out=block[..., 1:])
        if self.lex:
            block[2, ..., 1:] = left[2, ..., : d - 2]
        v, c, a = block
        top = np.empty((3, R, r))
        v.max(axis=-1, out=top[0])
        tie = v == top[0, ..., None]
        np.where(tie, c, -np.inf).max(axis=-1, out=top[1])
        tie &= c == top[1, ..., None]
        np.where(tie, a, -np.inf).max(axis=-1, out=top[2])
        if not self.lex:
            return top, None
        tie &= a == top[2, ..., None]
        ks, rows = np.nonzero(tie.sum(axis=-1) > 1)
        for k, row, cols in zip(ks.tolist(), rows.tolist(), tie[ks, rows]):
            self.ties[k].setdefault(d, {})[row] = cols
        return top, tie.argmax(axis=-1)

    def _options(self, k, cell):
        """(leading pairs, sub-cells) of each folding ``cell`` of row ``k`` may take.

        One option unless a ``notp`` cell is in ``ties[k]``; the pair tuple of
        an option is the concatenation of its parts, in sorted order.
        """
        kind, x, d = cell
        if kind == "p":  # stored by its end x
            i = x - d
            inner = ("p", x - 1, d - 2) if self.pb[k, x, d] else ("n", i + 1, d - 2)
            return [(((i + 1, x + 1),), (inner,))]
        if kind == "b":
            return [((), (("p", x + d, d) if self.bb[k, x, d] else ("n", x, d),))]
        tied = self.ties[k].get(d, {}).get(x)
        cols = [int(self.nb[k, x, d])] if tied is None else np.flatnonzero(tied).tolist()
        return [((), (("b", x, j - 1), ("p", x + d, d - j)) if j else
                 (("b", x, d - 1),) if d else ()) for j in cols]

    def pairs(self, k, cell) -> tuple:
        """Sorted 1-based pair tuple of a cell's folding in row ``k``, built once per cell.

        Needs ``lex``.  Where the splits of a ``notp`` cell tie on all three
        keys, the smallest of the options' tuples wins, as the cell-by-cell
        rule has it.
        """
        memo, todo = self.memo[k], [cell]
        while todo:
            top = todo[-1]
            if top in memo:
                todo.pop()
                continue
            options = self._options(k, top)
            missing = [sub for _, subs in options for sub in subs if sub not in memo]
            if missing:
                todo += missing
                continue
            memo[todo.pop()] = min(
                head + sum((memo[sub] for sub in subs), ()) for head, subs in options)
        return memo[cell]


def _pick2(first, second):
    """Per cell, the winner of two (3, R, cells) candidates, and where ``second`` wins.

    ``second`` wins when it is higher on the first layer where the two differ.
    """
    gt, eq = second > first, second == first
    wins = gt[0] | (eq[0] & (gt[1] | (eq[1] & gt[2])))
    return np.where(wins, second, first), wins


def _credits(s: RnaSequence, m: StackScores) -> np.ndarray:
    """credits[i, d]: stacking credit of the pair (i+1, i+d-1) inside (i, i+d), 0-based."""
    n = len(s)
    table = np.zeros((4, 4, 4, 4))
    code = {b: k for k, b in enumerate(BASES)}
    for key, score in m.table.items():
        if len(key) == 4 and all(b in code for b in key):
            table[tuple(code[b] for b in key)] = score
    c = np.array([code[b] for b in s.bases], dtype=np.int64)
    credits = np.zeros((n, n))
    for d in range(MIN_SEP, n):
        credits[: n - d, d] = table[c[1 : n - d + 1], c[d - 1 : n - 1], c[: n - d], c[d:]]
    # a folding has fewer than n pairs, each earning one credit: this bounds every DP value
    if not math.isfinite(n * (1.0 + float(np.abs(credits).max(initial=0.0)))):
        raise ValueError("stacking scores too large: a folding's total leaves the float range")
    return credits


def fold(s: RnaSequence, rho: float, m: StackScores) -> tuple[Folding, float]:
    """Optimal folding for one rho in [0, 1], with its objective: ``fold_batch`` of one.

    Interval DP with best / notp / paired tables so that stacking credit
    lands exactly when adjacent nesting occurs, run span by span in numpy
    (``_Tables``) and read back by traceback.  Each cell does the float
    operations of the scalar loop in its order, so the objective is the same
    double.  Among co-optimal foldings the DP prefers fewer pairs, then the
    lexicographically smallest sorted pair tuple, applied at every cell:

    * pair count and value are compared in the tables;
    * two tuples of one interval first differ where one pairs the interval's
      first base sooner, so minus that partner is a third table key; this
      settles every ``paired`` and ``best`` choice;
    * splits of ``notp`` that tie on all three are settled at traceback by
      comparing the options' pair tuples, built (once per cell) only for the
      cells the traceback reaches.

    The pair tuple of a split is the tuple of its left part followed by the
    right part's, so comparing options this way is the cell-by-cell rule.
    """
    return fold_batch(s, [rho], m)[0]


def fold_batch(s: RnaSequence, rhos, m: StackScores) -> list[tuple[Folding, float]]:
    """``fold`` at each rho of ``rhos``, in one run of the tables with a row per rho.

    Each row's folding and objective are what ``fold`` gives at its rho, bit
    for bit: rows share no arithmetic, and each has its own ties and
    traceback memo.
    """
    if not all(0.0 <= rho <= 1.0 for rho in rhos):
        raise ValueError("rho must lie in [0, 1]")
    n = len(s)
    if n < 1:
        raise ValueError("sequence must be nonempty")
    t = _Tables(_credits(s, m), rhos, lex=True)
    root = ("b", 0, n - 1)
    return [(Folding(t.pairs(k, root)), v) for k, v in enumerate(t.best[0, :, 0, n - 1].tolist())]


def max_stack_by_size(s: RnaSequence, m: StackScores) -> list[tuple[int, float]]:
    """For each achievable pair count k, the maximum stacking score over foldings.

    Size-indexed variant of the folding DP; unreachable k are omitted and
    k = 0 always yields stacking 0.  ``rho_breakpoints`` does not use it: it
    needs only the k that win somewhere, and finds them with O(pieces) runs
    of the folding DP.  Kept as an independent check of those lines.
    """
    n = len(s)
    if n < 1:
        raise ValueError("sequence must be nonempty")

    empty = {0: 0.0}

    def merge(dst, k, v):
        if k not in dst or v > dst[k]:
            dst[k] = v

    paired: dict[tuple[int, int], dict[int, float]] = {}
    notp: dict[tuple[int, int], dict[int, float]] = {}
    best: dict[tuple[int, int], dict[int, float]] = {}

    def get_best(i, j):
        return best[(i, j)] if i <= j else empty

    for span in range(0, n):
        for i in range(1, n - span + 1):
            j = i + span
            if span >= MIN_SEP:
                acc: dict[int, float] = {}
                base = notp[(i + 1, j - 1)] if span - 2 >= 0 else empty
                for k, v in base.items():
                    merge(acc, k + 1, v)
                if span - 2 >= MIN_SEP:
                    credit = m.get(s[i], s[j - 2], s[i - 1], s[j - 1])
                    for k, v in paired[(i + 1, j - 1)].items():
                        merge(acc, k + 1, v + credit)
                paired[(i, j)] = acc

            accn = dict(get_best(i, j - 1))
            for t in range(i + 1, j - MIN_SEP + 1):
                left = get_best(i, t - 1)
                for kr, vr in paired[(t, j)].items():
                    for kl, vl in left.items():
                        merge(accn, kl + kr, vl + vr)
            notp[(i, j)] = accn
            if (i, j) in paired:
                out = dict(accn)
                for k, v in paired[(i, j)].items():
                    merge(out, k, v)
                best[(i, j)] = out
            else:
                best[(i, j)] = accn

    return sorted(best[(1, n)].items())


def rho_breakpoints(s: RnaSequence, m: StackScores) -> PiecewiseFunction1D:
    """Exact envelope of the folding objective over rho in [0, 1].

    One line per achievable pair count k: slope k - stack_k, intercept
    stack_k, tag k, where stack_k is the best stacking score with k pairs.
    Piece count is at most floor(n/2) + 1.  The envelope is one
    ``sweep_linear`` whose solver runs the folding DP once per sweep round,
    with one row per probe rho, and reads each optimum's (pairs, stacking)
    at the root cell; no backpointers, no traceback.  Among foldings of
    equal value the DP keeps the most pairs (the steeper line, which
    ``upper_envelope`` also picks at a tie) and then the most stacking (at
    rho = 1, where every folding with k pairs scores k, that is the k line
    itself).  At most 2 * pieces + 1 probe rows, all on one credit table.
    """
    if len(s) < 1:
        raise ValueError("sequence must be nonempty")
    credits = _credits(s, m)
    n = len(s)

    def solve(rhos):
        root = _Tables(credits, rhos, lex=False).best[1:, :, 0, n - 1].tolist()
        return [(int(k) - stack, stack, int(k)) for k, stack in zip(*root)]

    return sweep_linear(solve, 0.0, 1.0)


def pair_utility(candidate: Folding, truth: Folding) -> float:
    """Fraction of the ground-truth pairs recovered; 1 when the truth is empty."""
    if not truth.pairs:
        return 1.0
    shared = len(set(candidate.pairs) & set(truth.pairs))
    return shared / len(truth.pairs)


def utility_breakpoints(
    s: RnaSequence, m: StackScores, truth: Folding
) -> PiecewiseFunction1D:
    """Piecewise-constant pair utility of the folding algorithm against a truth.

    Evaluated through ``fold_batch`` at every envelope piece's midpoint, in
    one run, so tie-breaks match the algorithm; adjacent equal pieces merge.
    """
    env = rho_breakpoints(s, m)
    return refine_constant(
        env, lambda rhos: [pair_utility(phi, truth) for phi, _ in fold_batch(s, rhos, m)])


def sequence_from_fasta(text: str) -> RnaSequence:
    from .seqalign import parse_fasta

    records = parse_fasta(text)
    if len(records) != 1:
        raise ValueError("expected exactly one sequence record")
    return RnaSequence(records[0][1])
