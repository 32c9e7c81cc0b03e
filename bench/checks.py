"""Output checks, run after the timed phase and outside any span.

Each check compares only values the README calls canonical (objective
values, utility values, breakpoints of exact decompositions, MSA rows, the
experiment's bound column) against direct single-parameter solves at seeded
points inside each piece.  A check raises ``CheckFailed`` with the reason; it
returns counters for disagreements that are reported rather than failed (the
utility duals re-solve at piece midpoints, so a tie broken differently at
another point of the same piece is a fact about the program, not an error).
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from itertools import groupby

from algotune import cluster, greedy, rnafold, seqalign, tad

ENVELOPE_TOL = 1e-9  # objective envelopes vs single solves
ERM_GRID = 1001
END_OFFSET = 1e-4  # near-end probe points, as a share of the piece width


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# -- piecewise functions, evaluated from their JSON without algotune ----------------


class Pieces:
    def __init__(self, d: dict):
        self.lo, self.hi = float(d["lo"]), float(d["hi"])
        self.bps = [float(b) for b in d["breakpoints"]]
        self.pieces = [(float(p["slope"]), float(p["intercept"])) for p in d["pieces"]]
        expect(len(self.pieces) == len(self.bps) + 1, "piece count does not match breakpoints")
        edges = [self.lo] + self.bps + [self.hi]
        expect(all(a < b for a, b in zip(edges, edges[1:])), "breakpoints not increasing in domain")

    def bounds(self, i):
        return ([self.lo] + self.bps)[i], (self.bps + [self.hi])[i]

    def value(self, x, left=False):
        """Value at x; with ``left``, the limit from the left at a breakpoint."""
        k = bisect_right(self.bps, x)
        if left and k and self.bps[k - 1] == x:
            k -= 1
        s, c = self.pieces[k]
        return s * x + c


def probe_points(rng: random.Random, lo: float, hi: float):
    """Two points just inside the ends of [lo, hi] and one drawn in between."""
    w = hi - lo
    return [lo + w * END_OFFSET, lo + w * rng.uniform(0.1, 0.9), hi - w * END_OFFSET]


def close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_continuous(fn: Pieces, tol: float):
    """The max of lines is continuous: neighbours agree at every breakpoint."""
    for i, b in enumerate(fn.bps):
        (s0, c0), (s1, c1) = fn.pieces[i], fn.pieces[i + 1]
        expect(close(s0 * b + c0, s1 * b + c1, tol), f"envelope jumps at breakpoint {b!r}")


def check_subset(util: Pieces, env: Pieces):
    env_bps = env.bps
    for b in util.bps:
        k = bisect_right(env_bps, b)
        near = [env_bps[j] for j in (k - 1, k) if 0 <= j < len(env_bps)]
        expect(any(abs(b - e) <= 1e-12 for e in near),
               f"utility breakpoint {b!r} is not an envelope breakpoint")
    expect((util.lo, util.hi) == (env.lo, env.hi), "utility and envelope domains differ")


def _pairs_from_rows(r1, r2):
    pairs, i, j = set(), 0, 0
    for a, b in zip(r1, r2):
        i += a != "-"
        j += b != "-"
        if a != "-" and b != "-":
            pairs.add((i, j))
    return pairs


# -- dp_tune ------------------------------------------------------------------------------


def check_align_utility(op, out, rng):
    meta = op.meta
    util = Pieces(json.loads(out))
    s1, s2 = seqalign.Sequence(meta["s1"]), seqalign.Sequence(meta["s2"])
    env = Pieces(seqalign.indel_breakpoints(s1, s2, meta["rho_max"]).to_dict())
    check_continuous(env, ENVELOPE_TOL)
    check_subset(util, env)
    ref_pairs = _pairs_from_rows(*meta["ref"])
    points = mismatches = 0
    for i in range(len(env.pieces)):
        for rho in probe_points(rng, *env.bounds(i)):
            aln, _, obj = seqalign.affine_align(s1, s2, seqalign.AffineParams(0.0, rho, 0.0))
            expect(close(obj, env.value(rho), ENVELOPE_TOL),
                   f"envelope {env.value(rho)!r} != affine_align {obj!r} at rho={rho!r}")
            q = len(_pairs_from_rows(*aln.rows) & ref_pairs) / len(ref_pairs) if ref_pairs else 1.0
            points += 1
            mismatches += q != util.value(rho)
    return {"seqalign.utility_points": points, "seqalign.utility_mismatches": mismatches}


def check_fold_utility(op, out, rng):
    meta = op.meta
    util = Pieces(json.loads(out))
    s = rnafold.RnaSequence(meta["seq"])
    m = rnafold.StackScores.watson_crick()
    env = Pieces(rnafold.rho_breakpoints(s, m).to_dict())
    check_continuous(env, ENVELOPE_TOL)
    check_subset(util, env)
    truth = {tuple(p) for p in meta["truth"]}
    points = mismatches = 0
    for i in range(len(env.pieces)):
        for rho in probe_points(rng, *env.bounds(i)):
            phi, obj = rnafold.fold(s, rho, m)
            expect(close(obj, env.value(rho), ENVELOPE_TOL),
                   f"envelope {env.value(rho)!r} != fold {obj!r} at rho={rho!r}")
            u = len(set(phi.pairs) & truth) / len(truth) if truth else 1.0
            points += 1
            mismatches += u != util.value(rho)
    return {"rnafold.utility_points": points, "rnafold.utility_mismatches": mismatches}


TAD_PROBED_PIECES = 16


def check_tad(op, out, rng):
    meta = op.meta
    d = json.loads(out)
    fn = Pieces(d)
    tags = [p["tag"] for p in d["pieces"]]
    expect(all(0 <= t < len(d["tad_sets"]) for t in tags), "piece tag outside tad_sets")
    with open(meta["matrix"]) as fh:
        w = tad.precompute_cij(tad.ContactMatrix.from_csv(fh.read()))
    # every change of optimal set, plus a seeded sample of the (chord) pieces
    chosen = {i for i in range(1, len(tags)) if tags[i] != tags[i - 1]}
    chosen |= {i - 1 for i in chosen}
    chosen |= set(rng.sample(range(len(tags)), min(TAD_PROBED_PIECES, len(tags))))
    for i in sorted(chosen):
        for rho in probe_points(rng, *fn.bounds(i)):
            _, v = tad.tad_optimize(w, rho)
            expect(abs(v - fn.value(rho)) <= meta["tol"],
                   f"TAD value {fn.value(rho)!r} != tad_optimize {v!r} at rho={rho!r}")
    return {}


def check_align_run(op, out, rng):
    meta = op.meta
    d = json.loads(out)
    r1, r2 = d["rows"]
    expect(len(r1) == len(r2), "rows differ in length")
    expect(r1.replace("-", "") == meta["s1"] and r2.replace("-", "") == meta["s2"],
           "rows do not de-gap to the inputs")
    expect(not any(a == b == "-" for a, b in zip(r1, r2)), "all-gap column")
    mt = sum(a == b != "-" for a, b in zip(r1, r2))
    ind = sum(a == "-" or b == "-" for a, b in zip(r1, r2))
    gaps = sum(1 for row in (r1, r2) for g, _ in groupby(row) if g == "-")
    feats = (mt, len(r1) - mt - ind, ind, gaps)
    reported = (d["matches"], d["mismatches"], d["indels"], d["gaps"])
    expect(feats == reported, f"reported features {reported} do not match the rows {feats}")
    p1, p2, p3 = meta["params"]
    obj = mt - p1 * feats[1] - p2 * ind - p3 * gaps
    expect(close(obj, d["objective"], ENVELOPE_TOL), "objective does not match the features")
    return {}


# -- combinatorial_tune --------------------------------------------------------------------


def _check_constant_pieces(fn: Pieces, rng, solve, what):
    for i, (s, c) in enumerate(fn.pieces):
        expect(s == 0.0, f"{what} dual has a sloped piece")
        for rho in probe_points(rng, *fn.bounds(i)):
            v = solve(rho)
            expect(v == c, f"{what} value {c!r} != direct solve {v!r} at rho={rho!r}")


def check_knapsack(op, out, rng):
    meta = op.meta
    inst = greedy.KnapsackInstance.from_csv(meta["items"], meta["capacity"])
    fn = Pieces(json.loads(out))
    _check_constant_pieces(fn, rng, lambda r: greedy.knapsack_greedy(inst, r)[1], "knapsack")
    return {}


def check_mwis(op, out, rng):
    g = greedy.WeightedGraph.from_text(op.meta["graph"])
    fn = Pieces(json.loads(out))
    _check_constant_pieces(fn, rng, lambda r: greedy.mwis_greedy(g, r)[1], "mwis")
    return {}


def check_cluster(op, out, rng):
    meta = op.meta
    inst = cluster.ClusterInstance.from_csv(meta["points"], euclidean=True)
    labels = meta["labels"]
    n = len(labels)

    def agreement(rho):
        clusters, _ = cluster.prune_tree(cluster.agglomerate(inst, "C2", rho), meta["k"], inst)
        pred = {p: ci for ci, members in enumerate(clusters) for p in members}
        agree = sum((pred[i] == pred[j]) == (labels[i] == labels[j])
                    for i in range(n) for j in range(i + 1, n))
        return agree / (n * (n - 1) // 2)

    _check_constant_pieces(Pieces(json.loads(out)), rng, agreement, "cluster")
    return {}


def check_erm(op, out, duals):
    """ERM value is the sup of the averaged dual: >= its 1,001-point grid max, attained at param."""
    param, value = json.loads(out)
    fns = [Pieces(json.loads(d)) for d in duals]
    lo, hi = fns[0].lo, fns[0].hi
    n = len(fns)

    def avg(x, left=False):
        return math.fsum(f.value(x, left) for f in fns) / n

    grid = max(avg(lo + (hi - lo) * k / (ERM_GRID - 1)) for k in range(ERM_GRID))
    expect(value >= grid - ENVELOPE_TOL * max(1.0, abs(grid)),
           f"ERM value {value!r} below the grid maximum {grid!r}")
    expect(lo <= param <= hi, "ERM parameter outside the domain")
    expect(close(avg(param), value, ENVELOPE_TOL) or close(avg(param, left=True), value, ENVELOPE_TOL),
           f"ERM value {value!r} is not the averaged dual at {param!r}")
    return {}


# -- many_small ----------------------------------------------------------------------


def check_msa(op, out, rng):
    recs = seqalign.parse_fasta(out)
    ids = [r for r, _ in recs]
    expect(ids == op.meta["ids"], "MSA row ids differ from the inputs")
    rows = [body for _, body in recs]
    expect(len({len(r) for r in rows}) == 1, "MSA rows differ in length")
    expect([r.replace("-", "") for r in rows] == op.meta["seqs"], "MSA rows do not de-gap to the inputs")
    expect(not any(all(r[j] == "-" for r in rows) for j in range(len(rows[0]))), "all-gap MSA column")
    return {}


def _spa_bound(n, delta):
    return math.sqrt(4.0 / n * math.log(math.e * n)) + math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def _finite_bound(n_mech, n, delta):
    return math.sqrt(math.log(2.0 * n_mech / delta) / (2.0 * n))


def check_learn(op, out, rng):
    cfg = op.meta["config"]
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    adversarial = cfg["family"] in ("spa_overfit", "nam_overfit")
    want = ["N", "mean_error", "std_error"] + (["max_error"] if adversarial else []) + ["bound"]
    expect(header == want, f"CSV header {header} != {want}")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    expect([int(r["N"]) for r in rows] == cfg["n_schedule"], "CSV rows do not follow n_schedule")
    for r in rows:
        n, delta = int(r["N"]), cfg["delta"]
        if cfg["family"] == "nam_overfit":
            bound = _finite_bound(2 * cfg.get("params", {}).get("n_profiles", 500), n, delta)
        else:
            bound = _spa_bound(n, delta)
        expect(close(r["bound"], bound, 1e-11), f"bound {r['bound']!r} != formula {bound!r} at N={n}")
        expect(r["mean_error"] >= 0 and r["std_error"] >= 0, "negative error statistics")
        if adversarial:
            expect(r["max_error"] >= r["mean_error"], "max_error below mean_error")
    return {}


def check_align_lb(op, out, rng):
    fields = dict(kv.split("=") for kv in out.split())
    expect(fields.get("shattered") == "true", "alignment lower-bound family not shattered")
    expect(int(fields["patterns"]) == 2 ** int(fields["N"]), "wrong pattern count")
    return {}


def check_nam_lb(op, out, rng):
    d = json.loads(out)
    expect(d["shattered"] and d["patterns_found"] == 2 ** (op.meta["n"] // 2),
           "NAM lower-bound family not shattered")
    return {}


CHECKS = {
    "align_utility": check_align_utility,
    "fold_utility": check_fold_utility,
    "tad": check_tad,
    "align_run": check_align_run,
    "knapsack": check_knapsack,
    "mwis": check_mwis,
    "cluster": check_cluster,
    "msa": check_msa,
    "learn": check_learn,
    "align_lb": check_align_lb,
    "nam_lb": check_nam_lb,
}
