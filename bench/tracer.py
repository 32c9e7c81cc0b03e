"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with a
wrapper, everywhere a caller looks it up: on its own module and on the names
other modules bind at import time.  A wrapper records one span (name, start,
end, parent, op id) per call, except for the leaf functions in ``HOT``, which
are called thousands of times per pass and only add to a count and a total
time.  Self time is a span's duration minus the time its child spans cover;
children that ran on another thread (the ``learn`` thread pool) are merged as
intervals so overlapping workers are not counted twice.  ``uninstall``
restores the originals, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter

# (module, attribute) -> layer name; one function may be bound in several modules
TARGETS = {
    ("seqalign", "affine_align"): "seqalign.affine_align",
    ("seqalign", "progressive_align"): "seqalign.progressive_align",
    ("seqalign", "indel_breakpoints"): "seqalign.indel_breakpoints",
    ("seqalign", "utility_breakpoints"): "seqalign.utility_breakpoints",
    ("seqalign", "refine_constant"): "piecewise.refine_constant",
    ("rnafold", "fold"): "rnafold.fold",
    ("rnafold", "max_stack_by_size"): "rnafold.max_stack_by_size",
    ("rnafold", "rho_breakpoints"): "rnafold.rho_breakpoints",
    ("rnafold", "utility_breakpoints"): "rnafold.utility_breakpoints",
    ("rnafold", "upper_envelope"): "piecewise.upper_envelope",
    ("rnafold", "refine_constant"): "piecewise.refine_constant",
    ("tad", "precompute_cij"): "tad.precompute_cij",
    ("tad", "tad_optimize"): "tad.tad_optimize",
    ("tad", "rho_decomposition"): "tad.rho_decomposition",
    ("tad", "exp_sum_roots"): "bounds.exp_sum_roots",
    ("bounds", "exp_sum_roots"): "bounds.exp_sum_roots",
    ("bounds", "verify_shattering"): "bounds.verify_shattering",
    ("greedy", "knapsack_greedy"): "greedy.knapsack_greedy",
    ("greedy", "mwis_greedy"): "greedy.mwis_greedy",
    ("greedy", "knapsack_breakpoints"): "greedy.knapsack_breakpoints",
    ("greedy", "mwis_breakpoints"): "greedy.mwis_breakpoints",
    ("cluster", "agglomerate"): "cluster.agglomerate",
    ("cluster", "prune_tree"): "cluster.prune_tree",
    ("cluster", "c2_breakpoints"): "cluster.c2_breakpoints",
    ("piecewise", "average"): "piecewise.average",
    ("piecewise", "argmax"): "piecewise.argmax",
    ("piecewise", "upper_envelope"): "piecewise.upper_envelope",
    ("piecewise", "refine_constant"): "piecewise.refine_constant",
    ("mechanisms", "anonymous_reserve_dual"): "mechanisms.anonymous_reserve_dual",
    ("mechanisms", "build_nam_distribution"): "mechanisms.build_nam_distribution",
    ("learn", "run_experiment"): "learn.run_experiment",
    ("learn", "erm"): "learn.erm",
    ("learn", "average"): "piecewise.average",
    ("learn", "argmax"): "piecewise.argmax",
    ("learn", "anonymous_reserve_dual"): "mechanisms.anonymous_reserve_dual",
    ("learn", "build_nam_distribution"): "mechanisms.build_nam_distribution",
    ("cli", "dispatch"): "cli.dispatch",
}

#: leaf functions called thousands of times per pass: count and total time only
HOT = frozenset({
    "tad.tad_optimize",
    "greedy.knapsack_greedy",
    "greedy.mwis_greedy",
    "cluster.agglomerate",
    "mechanisms.anonymous_reserve_dual",
})

#: decompositions whose solver calls are attributed to them (outermost wins)
DECOMPOSITIONS = frozenset({
    "seqalign.indel_breakpoints",
    "seqalign.utility_breakpoints",
    "rnafold.rho_breakpoints",
    "rnafold.utility_breakpoints",
    "tad.rho_decomposition",
    "greedy.knapsack_breakpoints",
    "greedy.mwis_breakpoints",
    "cluster.c2_breakpoints",
})


def _result_counts(name, result):
    """Output sizes worth counting, keyed by counter name."""
    if name in ("seqalign.indel_breakpoints", "greedy.knapsack_breakpoints",
                "greedy.mwis_breakpoints", "cluster.c2_breakpoints", "rnafold.rho_breakpoints"):
        return {name + ".pieces": len(result.pieces)}
    if name == "tad.rho_decomposition":
        return {"tad.pieces": len(result.fn.pieces), "tad.sets": len(result.tad_sets),
                "tad.cap_warnings": int(result.cap_warning)}
    return {}


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Frame:
    __slots__ = ("id", "name", "child", "offthread")

    def __init__(self, sid, name):
        self.id = sid
        self.name = name
        self.child = 0.0  # time covered by same-thread children
        self.offthread = []  # (start, end) of children run on other threads


class Tracer:
    def __init__(self):
        self.op = None  # id of the op in flight, set by the caller
        self.spans = []  # (id, name, start, end, parent, op)
        self.calls = Counter()
        self.self_s = Counter()
        self.nested = Counter()  # (decomposition, callee) -> calls
        self.outputs = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._next_id = 0
        self._saved = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def install(self, modules) -> None:
        for (mod, attr), name in TARGETS.items():
            m = modules[mod]
            fn = getattr(m, attr)
            self._saved.append((m, attr, fn))
            setattr(m, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        hot = name in HOT
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            offthread_parent = None
            if not stack and stack is not tracer._main and tracer._main:
                offthread_parent = tracer._main[-1]
            decomp = next((f.name for f in stack if f.name in DECOMPOSITIONS), None)
            frame = None
            if not hot:
                with tracer._lock:
                    sid = tracer._next_id
                    tracer._next_id += 1
                frame = _Frame(sid, name)
                stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if frame is not None:
                    stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1].child += dur
                elif offthread_parent is not None:
                    offthread_parent.offthread.append((t0, t1))
                with tracer._lock:
                    tracer.calls[name] += 1
                    if decomp is not None:
                        tracer.nested[(decomp, name)] += 1
                    if frame is None:
                        tracer.self_s[name] += dur
                    else:
                        own = dur - frame.child - _union_length(frame.offthread, t0, t1)
                        tracer.self_s[name] += own
                        parent = stack[-1].id if stack else (
                            offthread_parent.id if offthread_parent is not None else None)
                        tracer.spans.append((frame.id, name, t0, t1, parent, tracer.op))
            for key, val in _result_counts(name, result).items():
                with tracer._lock:
                    tracer.outputs[key] += val
            return result

        return wrapper

    def dump_spans(self, fh, pass_index: int) -> None:
        for sid, name, t0, t1, parent, op in self.spans:
            fh.write(json.dumps({"pass": pass_index, "id": sid, "name": name, "start": t0,
                                 "end": t1, "parent": parent, "op": op}) + "\n")
