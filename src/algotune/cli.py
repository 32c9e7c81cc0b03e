"""Command-line surface over the algorithm families and calculators.

Exit codes: 0 success, 2 input error, 3 verification failure.  Piece tables
and ``bounds`` print 9 significant digits, ``learn`` CSV 12; CSV uses '.'.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Iterable

import numpy as np

from . import bounds, cluster, greedy, learn, mechanisms, rnafold, seqalign, tad
from .seqalign import AffineParams


def _f9(x) -> str:
    return format(float(x), ".9g")


def _emit(text: str | Iterable[str], out: str | None):
    """Write ``text``, one string or strings one after another, to ``out`` or stdout.

    The first string is made before ``out`` is opened: making it with the file
    open measured 25-50 us slower per small decomposition (2-CPU Xeon VM).
    """
    chunks = iter((text,) if isinstance(text, str) else text)
    first = next(chunks, "")
    if out:
        with open(out, "w") as fh:
            fh.write(first)
            fh.writelines(chunks)
    else:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)


def _emit_fn(fn, fmt: str, out: str | None, extra: dict | None = None):
    """Write a piecewise function as JSON (with ``extra``'s keys) and a newline, or as CSV."""
    _emit(itertools.chain(fn.json_chunks(extra), "\n") if fmt == "json" else fn.csv_chunks(), out)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# -- bounds --------------------------------------------------------------------


def _cmd_bounds(args) -> int:
    if args.calc == "pdim":
        spec = bounds.DecompositionSpec(args.vc, args.pdim, args.k)
        print(bounds.pdim_from_counting(spec))
    elif args.calc == "oscillation":
        print(bounds.pdim_from_oscillations(args.B))
    elif args.calc == "spa":
        print(_f9(bounds.spa_estimation_bound(args.N, args.delta)))
    elif args.calc == "finite":
        print(_f9(bounds.finite_class_bound(args.n, args.N, args.delta)))
    else:  # loginequality
        print(_f9(bounds.log_inequality_bound(args.a, args.b)))
    return 0


def _shattered_or_3(cert: bounds.ShatteringCertificate) -> int:
    """Exit code of a lower-bound check; a failure names its first missing pattern on stderr."""
    if cert.shattered:
        return 0
    bits = "".join(map(str, cert.first_missing()))
    print(f"not shattered: no candidate realizes sign pattern {bits} "
          "(bit i is 1 when dual i >= witness i)", file=sys.stderr)
    return 3


# -- alignment -----------------------------------------------------------------


def _cmd_align(args) -> int:
    if args.action == "lb-verify":
        cert, pairs, _, _ = seqalign.lb_verify(args.n)
        longest = max(len(s) for pair in pairs for s in pair)
        print(
            f"k={2 ** len(pairs) - 1} N={len(pairs)} longest={longest} "
            f"shattered={'true' if cert.shattered else 'false'} "
            f"patterns={len(cert.achieved_patterns)}"
        )
        return _shattered_or_3(cert)
    seqs = seqalign.sequences_from_fasta(_read(args.input))
    if len(seqs) != 2:
        raise ValueError(f"align needs exactly two FASTA records, got {len(seqs)}")
    if args.action == "run":
        p = AffineParams(args.rho1, args.rho2, args.rho3)
        aln, feats, obj = seqalign.affine_align(seqs[0], seqs[1], p)
        if args.format == "json":
            payload = {
                "rows": ["".join(r) for r in aln.rows],
                "matches": feats.matches,
                "mismatches": feats.mismatches,
                "indels": feats.indels,
                "gaps": feats.gaps,
                "objective": obj,
            }
            _emit(json.dumps(payload) + "\n", args.out)
        else:
            rows = seqalign.to_fasta(
                [(s.id or f"s{i+1}", "".join(r)) for i, (s, r) in enumerate(zip(seqs, aln.rows))]
            )
            _emit(rows + f"; objective={_f9(obj)}\n", args.out)
        return 0
    # decompose
    if args.reference:
        ref = seqalign.alignment_from_fasta(_read(args.reference))
        fn = seqalign.utility_breakpoints(seqs[0], seqs[1], ref, args.rho_max)
    else:
        fn = seqalign.indel_breakpoints(seqs[0], seqs[1], args.rho_max)
    _emit_fn(fn, args.format, args.out)
    return 0


def _cmd_msa(args) -> int:
    seqs = seqalign.sequences_from_fasta(_read(args.input))
    tree = seqalign.GuideTree.from_newick(_read(args.tree))
    p = AffineParams(args.rho1, args.rho2, args.rho3)
    aln = seqalign.progressive_align(seqs, tree, p)
    _emit(
        seqalign.to_fasta([(s.id, "".join(r)) for s, r in zip(seqs, aln.rows)]),
        args.out,
    )
    return 0


# -- RNA folding ---------------------------------------------------------------


def _load_scores(path: str | None) -> rnafold.StackScores:
    if path is None:
        return rnafold.StackScores.watson_crick()
    return rnafold.StackScores.from_csv(_read(path))


def _cmd_fold(args) -> int:
    s = rnafold.sequence_from_fasta(_read(args.input))
    m = _load_scores(args.scores)
    if args.action == "run":
        phi, obj = rnafold.fold(s, args.rho, m)
        _emit(
            json.dumps({"pairs": [list(p) for p in phi.pairs], "objective": obj}) + "\n",
            args.out,
        )
        return 0
    if args.truth:
        truth = rnafold.Folding.from_json(_read(args.truth))
        fn = rnafold.utility_breakpoints(s, m, truth)
    else:
        fn = rnafold.rho_breakpoints(s, m)
    count, cap = len(fn.breakpoints) + 1, len(s) // 2 + 1
    _emit_fn(fn, args.format, args.out, {"piece_count": count, "piece_cap": cap})
    if args.format == "csv":
        print(f"pieces={count} cap={cap}", file=sys.stderr)
    return 0


# -- TAD -----------------------------------------------------------------------


def _cmd_tad(args) -> int:
    cm = tad.ContactMatrix.from_csv(_read(args.matrix))
    w = tad.precompute_cij(cm)
    if args.action == "run":
        ts, obj = tad.tad_optimize(w, args.rho)
        _emit(
            json.dumps({"intervals": [list(iv) for iv in ts.intervals], "objective": obj})
            + "\n",
            args.out,
        )
        return 0
    dec = tad.rho_decomposition(w, args.rho_max, args.tolerance)
    extra = {"tad_sets": [[list(iv) for iv in t.intervals] for t in dec.tad_sets]}
    _emit_fn(dec.fn, args.format, args.out, extra)
    return 0


# -- greedy --------------------------------------------------------------------


def _cmd_greedy(args) -> int:
    # a single run prints JSON; only the decomposition has a csv form
    if args.format is not None and not args.decompose:
        raise ValueError("--format needs --decompose")
    fmt = args.format or "json"
    if args.problem == "knapsack":
        inst = greedy.KnapsackInstance.from_csv(_read(args.input), args.capacity)
        if args.decompose:
            _emit_fn(greedy.knapsack_breakpoints(inst, args.rho_max), fmt, args.out)
        else:
            items, total = greedy.knapsack_greedy(inst, args.rho)
            _emit(
                json.dumps({"items": sorted(items), "total_value": total}) + "\n",
                args.out,
            )
    else:
        g = greedy.WeightedGraph.from_text(_read(args.input))
        if args.decompose:
            _emit_fn(greedy.mwis_breakpoints(g, args.rho_max), fmt, args.out)
        else:
            verts, total = greedy.mwis_greedy(g, args.rho)
            _emit(
                json.dumps({"vertices": sorted(verts), "total_weight": total}) + "\n",
                args.out,
            )
    return 0


# -- clustering ----------------------------------------------------------------


def _cmd_cluster(args) -> int:
    inst = cluster.ClusterInstance.from_csv(_read(args.input), euclidean=args.euclidean)
    if args.action == "run":
        tree = cluster.agglomerate(inst, args.family, args.rho)
        clusters, cost = cluster.prune_tree(tree, args.k, inst)
        _emit(
            json.dumps({"clusters": [list(c) for c in clusters], "cost": cost}) + "\n",
            args.out,
        )
        return 0
    truth = [int(x) for x in _read(args.truth).replace(",", " ").split()]
    if len(truth) != inst.n:
        raise ValueError(f"truth has {len(truth)} labels for {inst.n} points")
    fn = cluster.c2_breakpoints(inst, cluster.pair_counting_utility(inst, truth, args.k))
    _emit_fn(fn, args.format, args.out)
    return 0


# -- mechanisms ----------------------------------------------------------------


def _cmd_mech(args) -> int:
    if args.mechanism == "nam-lb-verify":
        profiles, params, witnesses = mechanisms.nam_shatter_instances(args.n, args.epsilon)
        duals = [
            (lambda p, prof=prof: mechanisms.nam_welfare(prof, p)) for prof in profiles
        ]
        cert = bounds.verify_shattering(duals, witnesses, params)
        print(json.dumps(cert.to_dict()))
        return _shattered_or_3(cert)
    if args.mechanism == "nam":
        values = np.loadtxt(args.values, delimiter=",", ndmin=2)
        weights = tuple(float(x) for x in args.weights.split(","))
        prof = mechanisms.ValuationProfile(values)
        p = mechanisms.NamParams(weights)
        payload = {
            "mechanism": "nam",
            "params": list(weights),
            "outcome": mechanisms.nam_outcome(prof, p),
            "payments": mechanisms.nam_payments(prof, p),
            "welfare": mechanisms.nam_welfare(prof, p),
        }
        print(json.dumps(payload))
        return 0
    # spa
    bids = [float(x) for x in args.bids.split(",")]
    if "," in args.reserve:
        reserves = [float(x) for x in args.reserve.split(",")]
    else:
        reserves = float(args.reserve)
    payload = {
        "mechanism": "spa",
        "params": reserves,
        "revenue": mechanisms.spa_revenue(bids, reserves),
    }
    print(json.dumps(payload))
    return 0


# -- learn ---------------------------------------------------------------------


def _cmd_learn(args) -> int:
    cfg = learn.ExperimentConfig.from_json(_read(args.config))
    if args.seed is not None:
        cfg.seed = args.seed
    rows = learn.run_experiment(cfg)
    _emit(learn.rows_to_csv(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="algotune")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fmt=True, fmt_default="json"):
        p.add_argument("--out", default=None)
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default=fmt_default)

    pb = sub.add_parser("bounds")
    pbs = pb.add_subparsers(dest="calc", required=True)
    q = pbs.add_parser("pdim")
    q.add_argument("--vc", type=int, required=True)
    q.add_argument("--pdim", type=int, required=True)
    q.add_argument("--k", type=int, default=1)
    q = pbs.add_parser("oscillation")
    q.add_argument("--B", type=int, required=True)
    q = pbs.add_parser("spa")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--delta", type=float, default=0.01)
    q = pbs.add_parser("finite")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--delta", type=float, default=0.01)
    q = pbs.add_parser("loginequality")
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    pb.set_defaults(func=_cmd_bounds)

    pa = sub.add_parser("align")
    pas = pa.add_subparsers(dest="action", required=True)
    q = pas.add_parser("run")
    q.add_argument("--input", required=True)
    q.add_argument("--rho1", type=float, default=0.0)
    q.add_argument("--rho2", type=float, default=0.0)
    q.add_argument("--rho3", type=float, default=0.0)
    common(q)
    q = pas.add_parser("decompose")
    q.add_argument("--input", required=True)
    q.add_argument("--rho-max", type=float, default=1.0)
    q.add_argument("--reference", default=None)
    common(q)
    q = pas.add_parser("lb-verify")
    q.add_argument("--n", type=int, required=True)
    pa.set_defaults(func=_cmd_align)

    pm = sub.add_parser("msa")
    q = pm.add_subparsers(dest="action", required=True).add_parser("run")
    q.add_argument("--input", required=True)
    q.add_argument("--tree", required=True)
    q.add_argument("--rho1", type=float, default=0.0)
    q.add_argument("--rho2", type=float, default=0.0)
    q.add_argument("--rho3", type=float, default=0.0)
    common(q, fmt=False)
    pm.set_defaults(func=_cmd_msa)

    pf = sub.add_parser("fold")
    pfs = pf.add_subparsers(dest="action", required=True)
    q = pfs.add_parser("run")
    q.add_argument("--input", required=True)
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--scores", default=None)
    common(q, fmt=False)
    q = pfs.add_parser("decompose")
    q.add_argument("--input", required=True)
    q.add_argument("--scores", default=None)
    q.add_argument("--truth", default=None)
    common(q)
    pf.set_defaults(func=_cmd_fold)

    pt = sub.add_parser("tad")
    pts = pt.add_subparsers(dest="action", required=True)
    q = pts.add_parser("run")
    q.add_argument("--matrix", required=True)
    q.add_argument("--rho", type=float, required=True)
    common(q, fmt=False)
    q = pts.add_parser("decompose")
    q.add_argument("--matrix", required=True)
    q.add_argument("--rho-max", type=float, default=2.0)
    q.add_argument("--tolerance", type=float, default=1e-6)
    common(q)
    pt.set_defaults(func=_cmd_tad)

    pg = sub.add_parser("greedy")
    pgs = pg.add_subparsers(dest="problem", required=True)
    q = pgs.add_parser("knapsack")
    q.add_argument("--input", required=True)
    q.add_argument("--capacity", type=float, required=True)
    q.add_argument("--rho", type=float, default=1.0)
    q.add_argument("--decompose", action="store_true")
    q.add_argument("--rho-max", type=float, default=5.0)
    common(q, fmt_default=None)  # --format only with --decompose
    q = pgs.add_parser("mwis")
    q.add_argument("--input", required=True)
    q.add_argument("--rho", type=float, default=1.0)
    q.add_argument("--decompose", action="store_true")
    q.add_argument("--rho-max", type=float, default=5.0)
    common(q, fmt_default=None)  # --format only with --decompose
    pg.set_defaults(func=_cmd_greedy)

    pc = sub.add_parser("cluster")
    pcs = pc.add_subparsers(dest="action", required=True)
    q = pcs.add_parser("run")
    q.add_argument("--input", required=True)
    q.add_argument("--family", choices=("C1", "C2", "C3"), default="C2")
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--euclidean", action="store_true")
    common(q, fmt=False)
    q = pcs.add_parser("decompose")
    q.add_argument("--input", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--truth", required=True)
    q.add_argument("--euclidean", action="store_true")
    common(q)
    pc.set_defaults(func=_cmd_cluster)

    pme = sub.add_parser("mech")
    pms = pme.add_subparsers(dest="mechanism", required=True)
    q = pms.add_parser("nam")
    q.add_argument("--values", required=True)
    q.add_argument("--weights", required=True)
    q = pms.add_parser("spa")
    q.add_argument("--bids", required=True)
    q.add_argument("--reserve", required=True)
    q = pms.add_parser("nam-lb-verify")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--epsilon", type=float, default=0.25)
    pme.set_defaults(func=_cmd_mech)

    pl = sub.add_parser("learn")
    q = pl.add_subparsers(dest="action", required=True).add_parser("run")
    q.add_argument("--config", required=True)
    q.add_argument("--seed", type=int, default=None)  # overrides the config seed
    common(q, fmt=False)
    pl.set_defaults(func=_cmd_learn)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``dispatch``.

    ``parse_args`` leaves the parser unchanged, so one build serves every
    call; building it at import would move its cost into start-up.
    """
    return build_parser()


def dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except KeyError as e:  # a required key of a JSON input
        print(f"error: missing key {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
