"""Per-layer metrics, derived from the traced passes and the output checks.

Each layer is one algotune module.  Counts are exact and repeat for a seed
(every traced pass runs the same inputs); self times are medians over the
traced passes.  Every metric is reported on every workload, so a layer that
a workload does not use reads 0 there.
"""

from __future__ import annotations

from statistics import median


def _ratio(num, den):
    return num / den if den else 0.0


def _nested(t, decomps, callee):
    return sum(t.nested[(d, callee)] for d in decomps)


SEQALIGN_DECOMPS = ("seqalign.utility_breakpoints", "seqalign.indel_breakpoints")

# name -> (unit, kind, how); kind "count" reads the first traced pass, "self_s"
# takes the median over traced passes, "check" reads the output-check counters
METRICS = {
    "seqalign.affine_align.calls": ("count", "count", lambda t: t.calls["seqalign.affine_align"]),
    "seqalign.affine_align.self_s": ("s", "self_s", lambda t: t.self_s["seqalign.affine_align"]),
    "seqalign.progressive_align.self_s": ("s", "self_s", lambda t: t.self_s["seqalign.progressive_align"]),
    "seqalign.envelope_pieces": ("count", "count", lambda t: t.outputs["seqalign.indel_breakpoints.pieces"]),
    "seqalign.solver_calls_per_piece": ("calls/piece", "count", lambda t: _ratio(
        _nested(t, SEQALIGN_DECOMPS, "seqalign.affine_align"),
        t.outputs["seqalign.indel_breakpoints.pieces"])),
    "seqalign.utility_points": ("count", "check", lambda c: c["seqalign.utility_points"]),
    "seqalign.utility_mismatch_frac": ("frac", "check", lambda c: _ratio(
        c["seqalign.utility_mismatches"], c["seqalign.utility_points"])),
    "rnafold.max_stack_by_size.calls": ("count", "count", lambda t: t.calls["rnafold.max_stack_by_size"]),
    "rnafold.max_stack_by_size.self_s": ("s", "self_s", lambda t: t.self_s["rnafold.max_stack_by_size"]),
    "rnafold.fold.calls": ("count", "count", lambda t: t.calls["rnafold.fold"]),
    "rnafold.fold.self_s": ("s", "self_s", lambda t: t.self_s["rnafold.fold"]),
    "rnafold.envelope_pieces": ("count", "count", lambda t: t.outputs["rnafold.rho_breakpoints.pieces"]),
    "rnafold.utility_points": ("count", "check", lambda c: c["rnafold.utility_points"]),
    "rnafold.utility_mismatch_frac": ("frac", "check", lambda c: _ratio(
        c["rnafold.utility_mismatches"], c["rnafold.utility_points"])),
    "tad.precompute_cij.self_s": ("s", "self_s", lambda t: t.self_s["tad.precompute_cij"]),
    "tad.tad_optimize.calls": ("count", "count", lambda t: t.calls["tad.tad_optimize"]),
    "tad.tad_optimize.self_s": ("s", "self_s", lambda t: t.self_s["tad.tad_optimize"]),
    "tad.rho_decomposition.self_s": ("s", "self_s", lambda t: t.self_s["tad.rho_decomposition"]),
    "tad.pieces": ("count", "count", lambda t: t.outputs["tad.pieces"]),
    "tad.sets": ("count", "count", lambda t: t.outputs["tad.sets"]),
    "tad.pieces_per_set": ("pieces/set", "count", lambda t: _ratio(t.outputs["tad.pieces"], t.outputs["tad.sets"])),
    "tad.cap_warnings": ("count", "count", lambda t: t.outputs["tad.cap_warnings"]),
    "bounds.exp_sum_roots.calls": ("count", "count", lambda t: t.calls["bounds.exp_sum_roots"]),
    "bounds.exp_sum_roots.self_s": ("s", "self_s", lambda t: t.self_s["bounds.exp_sum_roots"]),
    "bounds.verify_shattering.self_s": ("s", "self_s", lambda t: t.self_s["bounds.verify_shattering"]),
    "greedy.knapsack_greedy.calls": ("count", "count", lambda t: t.calls["greedy.knapsack_greedy"]),
    "greedy.knapsack_greedy.self_s": ("s", "self_s", lambda t: t.self_s["greedy.knapsack_greedy"]),
    "greedy.mwis_greedy.calls": ("count", "count", lambda t: t.calls["greedy.mwis_greedy"]),
    "greedy.mwis_greedy.self_s": ("s", "self_s", lambda t: t.self_s["greedy.mwis_greedy"]),
    "greedy.knapsack.pieces": ("count", "count", lambda t: t.outputs["greedy.knapsack_breakpoints.pieces"]),
    "greedy.knapsack.solver_calls_per_piece": ("calls/piece", "count", lambda t: _ratio(
        t.nested[("greedy.knapsack_breakpoints", "greedy.knapsack_greedy")],
        t.outputs["greedy.knapsack_breakpoints.pieces"])),
    "greedy.mwis.pieces": ("count", "count", lambda t: t.outputs["greedy.mwis_breakpoints.pieces"]),
    "greedy.mwis.solver_calls_per_piece": ("calls/piece", "count", lambda t: _ratio(
        t.nested[("greedy.mwis_breakpoints", "greedy.mwis_greedy")],
        t.outputs["greedy.mwis_breakpoints.pieces"])),
    "cluster.agglomerate.calls": ("count", "count", lambda t: t.calls["cluster.agglomerate"]),
    "cluster.agglomerate.self_s": ("s", "self_s", lambda t: t.self_s["cluster.agglomerate"]),
    "cluster.prune_tree.calls": ("count", "count", lambda t: t.calls["cluster.prune_tree"]),
    "cluster.prune_tree.self_s": ("s", "self_s", lambda t: t.self_s["cluster.prune_tree"]),
    "cluster.pieces": ("count", "count", lambda t: t.outputs["cluster.c2_breakpoints.pieces"]),
    "cluster.solver_calls_per_piece": ("calls/piece", "count", lambda t: _ratio(
        t.nested[("cluster.c2_breakpoints", "cluster.agglomerate")],
        t.outputs["cluster.c2_breakpoints.pieces"])),
    "piecewise.average.calls": ("count", "count", lambda t: t.calls["piecewise.average"]),
    "piecewise.average.self_s": ("s", "self_s", lambda t: t.self_s["piecewise.average"]),
    "piecewise.argmax.self_s": ("s", "self_s", lambda t: t.self_s["piecewise.argmax"]),
    "piecewise.upper_envelope.self_s": ("s", "self_s", lambda t: t.self_s["piecewise.upper_envelope"]),
    "piecewise.refine_constant.self_s": ("s", "self_s", lambda t: t.self_s["piecewise.refine_constant"]),
    "mechanisms.anonymous_reserve_dual.calls": ("count", "count", lambda t: t.calls["mechanisms.anonymous_reserve_dual"]),
    "mechanisms.anonymous_reserve_dual.self_s": ("s", "self_s", lambda t: t.self_s["mechanisms.anonymous_reserve_dual"]),
    "mechanisms.build_nam_distribution.self_s": ("s", "self_s", lambda t: t.self_s["mechanisms.build_nam_distribution"]),
    "learn.run_experiment.self_s": ("s", "self_s", lambda t: t.self_s["learn.run_experiment"]),
    "learn.erm.calls": ("count", "count", lambda t: t.calls["learn.erm"]),
    "learn.erm.self_s": ("s", "self_s", lambda t: t.self_s["learn.erm"]),
    "cli.dispatch.calls": ("count", "count", lambda t: t.calls["cli.dispatch"]),
    "cli.self_s": ("s", "self_s", lambda t: t.self_s["cli.dispatch"]),
}

OVERHEAD = "trace_overhead_frac"


def per_layer(tracers, check_counts, overhead):
    """All per-layer metrics, plus whether every count repeated across traced passes."""
    out, repeat = {}, True
    for name, (unit, kind, how) in METRICS.items():
        if kind == "check":
            value = how(check_counts)
        elif kind == "self_s":
            value = median(how(t) for t in tracers)
        else:
            values = [how(t) for t in tracers]
            repeat = repeat and len(set(values)) == 1
            value = values[0]
        out[name] = {"value": value, "unit": unit}
    out[OVERHEAD] = {"value": overhead, "unit": "frac"}
    return out, repeat
