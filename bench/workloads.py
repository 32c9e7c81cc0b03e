"""The three workloads: seeded input files plus the ordered list of ops.

An op is either one ``algotune.cli.dispatch(argv)`` call, whose output goes to
``--out`` (or stdout, for the verify commands) and is read back, or one
``learn.erm`` call over the duals produced by earlier ops of the same pass.
Sizes are stratified over each range, so the total work per pass barely moves
with the seed; only the content is drawn.  Nothing here imports algotune.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import gen

WORKLOADS = ("dp_tune", "combinatorial_tune", "many_small")


@dataclass
class Op:
    name: str
    kind: str  # "dispatch" or "erm"
    check: str  # key into checks.CHECKS
    argv: list = field(default_factory=list)
    out: str | None = None  # --out path; None means stdout is captured
    erm_of: list = field(default_factory=list)  # indices of the dual-producing ops
    meta: dict = field(default_factory=dict)  # what the check needs


class Plan:
    """Input files (name -> text) and ops of one workload."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.files: dict[str, str] = {}
        self.ops: list[Op] = []

    def file(self, name: str, text: str) -> str:
        self.files[name] = text
        return os.path.join(self.workdir, name)

    def dispatch(self, name, check, argv, meta, out=True) -> int:
        path = os.path.join(self.workdir, f"out_{len(self.ops):02d}") if out else None
        full = list(argv) + (["--out", path] if out else [])
        self.ops.append(Op(name, "dispatch", check, full, path, meta=meta))
        return len(self.ops) - 1

    def erm(self, name, members):
        self.ops.append(Op(name, "erm", "erm", erm_of=list(members)))


# -- dp_tune -------------------------------------------------------------------

# Alignment ops are kept cheaper than fold ops, and fold ops cheaper than TAD
# ops, so that a pass's median op is the middle of the fold ops.  A median that
# falls where two families overlap moves with the seed far more.
ALIGN_N, ALIGN_LEN, ALIGN_DIV, ALIGN_RHO_MAX = 12, (40, 60), (0.10, 0.40), 1.0
FOLD_N, FOLD_LEN = 12, (36, 42)
TAD_N, TAD_SIZE, TAD_RHO_MAX, TAD_TOL = 12, (14, 20), 2.0, 1e-6
BIG_ALIGN_LEN, BIG_ALIGN_PARAMS = 600, (0.5, 0.5, 0.5)


def _dp_tune(b: Plan, seed: int):
    members = []
    for i in range(ALIGN_N):
        rng = gen.rng_for(seed, "align", i)
        length = round(gen.spread(*ALIGN_LEN, ALIGN_N, i))
        div = gen.spread(*ALIGN_DIV, ALIGN_N, (5 * i) % ALIGN_N)
        r1, r2 = gen.mutation_history(rng, length, div)
        pair = b.file(f"align_{i:02d}.fasta", gen.fasta([("a", gen.degap(r1)), ("b", gen.degap(r2))]))
        ref = b.file(f"align_{i:02d}_ref.fasta", gen.fasta([("a", r1), ("b", r2)]))
        argv = ["align", "decompose", "--input", pair, "--reference", ref,
                "--rho-max", repr(ALIGN_RHO_MAX), "--format", "json"]
        meta = {"s1": gen.degap(r1), "s2": gen.degap(r2), "ref": [r1, r2],
                "rho_max": ALIGN_RHO_MAX, "inputs": [pair, ref]}
        members.append(b.dispatch(f"align_decompose_{i:02d}", "align_utility", argv, meta))
    b.erm("erm_align", members)

    members = []
    for i in range(FOLD_N):
        rng = gen.rng_for(seed, "fold", i)
        seq, pairs = gen.stem_rna(rng, round(gen.spread(*FOLD_LEN, FOLD_N, i)))
        path = b.file(f"rna_{i:02d}.fasta", gen.fasta([("r", seq)]))
        truth = b.file(f"rna_{i:02d}_truth.json", json.dumps({"pairs": [list(p) for p in pairs]}) + "\n")
        argv = ["fold", "decompose", "--input", path, "--truth", truth, "--format", "json"]
        meta = {"seq": seq, "truth": pairs, "inputs": [path, truth]}
        members.append(b.dispatch(f"fold_decompose_{i:02d}", "fold_utility", argv, meta))
    b.erm("erm_fold", members)

    members = []
    for i in range(TAD_N):
        rng = gen.rng_for(seed, "tad", i)
        text, _ = gen.tad_matrix(rng, round(gen.spread(*TAD_SIZE, TAD_N, i)))
        path = b.file(f"tad_{i:02d}.csv", text)
        argv = ["tad", "decompose", "--matrix", path, "--rho-max", repr(TAD_RHO_MAX),
                "--tolerance", repr(TAD_TOL), "--format", "json"]
        meta = {"matrix": path, "tol": TAD_TOL}
        members.append(b.dispatch(f"tad_decompose_{i:02d}", "tad", argv, meta))
    b.erm("erm_tad", members)

    rng = gen.rng_for(seed, "big_align")
    r1, r2 = gen.mutation_history(rng, BIG_ALIGN_LEN, 0.25)
    path = b.file("big_align.fasta", gen.fasta([("a", gen.degap(r1)), ("b", gen.degap(r2))]))
    r = BIG_ALIGN_PARAMS
    argv = ["align", "run", "--input", path, "--rho1", repr(r[0]), "--rho2", repr(r[1]),
            "--rho3", repr(r[2]), "--format", "json"]
    b.dispatch("align_run_big", "align_run", argv, {"s1": gen.degap(r1), "s2": gen.degap(r2), "params": r})


# -- combinatorial_tune ----------------------------------------------------------

KNAP_N, KNAP_SIZE, KNAP_RHO_MAX = 13, (40, 80), 5.0
MWIS_N, MWIS_SIZE, MWIS_RHO_MAX = 12, (10, 14), 5.0
CLUSTER_N, CLUSTER_SIZE, CLUSTER_K = 12, (5, 7), 2


def _combinatorial_tune(b: Plan, seed: int):
    members = []
    for i in range(KNAP_N):
        rng = gen.rng_for(seed, "knapsack", i)
        text, cap = gen.knapsack_items(rng, round(gen.spread(*KNAP_SIZE, KNAP_N, i)))
        path = b.file(f"knapsack_{i:02d}.csv", text)
        argv = ["greedy", "knapsack", "--input", path, "--capacity", repr(cap), "--decompose",
                "--rho-max", repr(KNAP_RHO_MAX), "--format", "json"]
        meta = {"items": text, "capacity": cap}
        members.append(b.dispatch(f"knapsack_decompose_{i:02d}", "knapsack", argv, meta))
    b.erm("erm_knapsack", members)

    members = []
    for i in range(MWIS_N):
        rng = gen.rng_for(seed, "mwis", i)
        text = gen.mwis_graph(rng, round(gen.spread(*MWIS_SIZE, MWIS_N, i)))
        path = b.file(f"mwis_{i:02d}.txt", text)
        argv = ["greedy", "mwis", "--input", path, "--decompose", "--rho-max", repr(MWIS_RHO_MAX),
                "--format", "json"]
        members.append(b.dispatch(f"mwis_decompose_{i:02d}", "mwis", argv, {"graph": text}))
    b.erm("erm_mwis", members)

    members = []
    for i in range(CLUSTER_N):
        rng = gen.rng_for(seed, "cluster", i)
        text, labels = gen.two_blobs(rng, round(gen.spread(*CLUSTER_SIZE, CLUSTER_N, i)))
        path = b.file(f"points_{i:02d}.csv", text)
        truth = b.file(f"labels_{i:02d}.txt", " ".join(map(str, labels)) + "\n")
        argv = ["cluster", "decompose", "--input", path, "--euclidean", "--k", str(CLUSTER_K),
                "--truth", truth, "--format", "json"]
        meta = {"points": text, "labels": labels, "k": CLUSTER_K}
        members.append(b.dispatch(f"cluster_decompose_{i:02d}", "cluster", argv, meta))
    b.erm("erm_cluster", members)


# -- many_small ------------------------------------------------------------------

SPA_ERM = {"n_schedule": [10, 100, 1000], "trials": 10, "delta": 0.01}
OVERFIT = {"n_schedule": [10, 100, 1000], "trials": 40, "delta": 0.01}
MSA_N, MSA_SEQS, MSA_LEN, MSA_DIV, MSA_PARAMS = 34, 16, (20, 50), 0.2, (0.5, 0.5, 0.5)
LB_ALIGN_N, LB_NAM_N = 128, 8


def _many_small(b: Plan, seed: int):
    rng = gen.rng_for(seed, "learn")
    configs = [("learn_spa_erm_t1", dict(SPA_ERM, family="spa_erm", threads=1)),
               ("learn_spa_erm_t2", dict(SPA_ERM, family="spa_erm", threads=2)),
               ("learn_spa_overfit", dict(OVERFIT, family="spa_overfit", threads=1)),
               ("learn_nam_overfit", dict(OVERFIT, family="nam_overfit", threads=1))]
    learn_ops = []
    for name, cfg in configs:
        cfg["seed"] = rng.randrange(1 << 30)
        path = b.file(f"{name}.json", json.dumps(cfg, sort_keys=True) + "\n")
        learn_ops.append((name, ["learn", "run", "--config", path], {"config": cfg}))

    msa_ops = []
    for i in range(MSA_N):
        r = gen.rng_for(seed, "msa", i)
        leaves = gen.msa_family(r, MSA_SEQS, round(gen.spread(*MSA_LEN, MSA_N, i)), MSA_DIV)
        ids = [f"s{k:02d}" for k in range(1, MSA_SEQS + 1)]
        seqs = b.file(f"msa_{i:02d}.fasta", gen.fasta(zip(ids, leaves)))
        tree = b.file(f"msa_{i:02d}.nwk", gen.balanced_newick(ids))
        p = MSA_PARAMS
        argv = ["msa", "run", "--input", seqs, "--tree", tree, "--rho1", repr(p[0]),
                "--rho2", repr(p[1]), "--rho3", repr(p[2])]
        msa_ops.append((f"msa_run_{i:02d}", argv, {"ids": ids, "seqs": leaves}))

    # interleave the few long learn ops among the many short MSA ops
    stride = MSA_N // len(learn_ops)
    for i, (name, argv, meta) in enumerate(msa_ops):
        if i % stride == 0 and i // stride < len(learn_ops):
            lname, largv, lmeta = learn_ops[i // stride]
            b.dispatch(lname, "learn", largv, lmeta)
        b.dispatch(name, "msa", argv, meta)
    b.dispatch("align_lb_verify", "align_lb", ["align", "lb-verify", "--n", str(LB_ALIGN_N)],
               {"n": LB_ALIGN_N}, out=False)
    b.dispatch("nam_lb_verify", "nam_lb", ["mech", "nam-lb-verify", "--n", str(LB_NAM_N)],
               {"n": LB_NAM_N}, out=False)


_PLANS = {"dp_tune": _dp_tune, "combinatorial_tune": _combinatorial_tune, "many_small": _many_small}


def build(workload: str, seed: int, workdir: str) -> Plan:
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    b = Plan(workdir)
    _PLANS[workload](b, seed)
    return b


def write(b: Plan) -> None:
    os.makedirs(b.workdir, exist_ok=True)
    for name, text in b.files.items():
        with open(os.path.join(b.workdir, name), "w") as fh:
            fh.write(text)
