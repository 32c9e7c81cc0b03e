"""One workload in a fresh process: set up, run timed passes, check, report.

Started by ``run.py``; prints ``READY <monotonic seconds>`` just before the
first op (so the parent can time set-up from process start), and one JSON
object as its last line.  A pass runs every op of the workload once, in
order, as a closed loop from one client; passes repeat until ``--seconds``
would be exceeded.  With ``--trace 0`` set-up probes (fresh processes that
only set up, timed the same way) run between passes, spread evenly over the
run, so that ``setup_s`` samples the same stretch of time as the passes.
With ``--trace 1`` untraced and traced passes alternate, and the traced ones
feed the per-layer metrics.  Outputs are checked after the timed phase,
outside any span.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from statistics import median

import gen
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it
SETUP_PROBES = 12  # set-up-only processes per untraced run, besides the measured one
PROBE_TIMEOUT_S = 60


MODULES = ("seqalign", "rnafold", "tad", "bounds", "greedy", "cluster", "piecewise",
           "mechanisms", "learn", "cli")


def import_program() -> dict:
    """Import algotune from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import algotune

    if os.path.dirname(os.path.abspath(algotune.__file__)) != os.path.join(SRC, "algotune"):
        raise ImportError(f"algotune imported from {algotune.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"algotune.{name}") for name in MODULES}


def stamp(numpy_version):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = ""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count(),
            "cpu": cpu or platform.machine(), "git_commit": commit}


def ready_after(cmd, timeout):
    """Start ``cmd`` (a worker), wait for it to end, and return the seconds from
    its start to its READY line; raise RuntimeError if it fails or never gets ready."""
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the child
        raise RuntimeError(f"worker timed out after {e.timeout}s") from None
    ready = [float(ln.split()[1]) for ln in p.stdout.splitlines() if ln.startswith("READY ")]
    if p.returncode != 0 or not ready:
        raise RuntimeError(f"worker exited with {p.returncode}: {p.stderr.strip()[-300:]}")
    return ready[0] - t0, p


def setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    return ready_after(cmd, PROBE_TIMEOUT_S)[0]


class PassResult:
    def __init__(self, n):
        self.outs = [None] * n
        self.errors = [None] * n
        self.latency = [0.0] * n
        self.wall = 0.0


def run_pass(ops, mods, tracer=None) -> PassResult:
    res = PassResult(len(ops))
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if op.kind == "erm":
            if any(res.outs[j] is None for j in op.erm_of):
                res.errors[i] = "a dual of this training set is missing"
                continue
            duals = [mods["piecewise"].PiecewiseFunction1D.from_json(res.outs[j]) for j in op.erm_of]
            t0 = time.perf_counter()
            try:
                param, value = mods["learn"].erm(duals)
            except Exception as e:  # an op that raises is a failed op, not a crash
                res.errors[i] = f"raised {e!r}"
                param = value = None
            t1 = time.perf_counter()
            if res.errors[i] is None:
                res.outs[i] = json.dumps([param, value])
        else:
            if op.out is not None:  # a stale file must not pass for this op's output
                with contextlib.suppress(FileNotFoundError):
                    os.remove(op.out)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = mods["cli"].dispatch(op.argv)
            except Exception as e:
                code = f"raised {e!r}"
            t1 = time.perf_counter()
            if code != 0:
                res.errors[i] = f"exit {code}: {err.getvalue().strip()[:200]}"
            elif op.out is None:
                res.outs[i] = out.getvalue()
            else:
                try:
                    with open(op.out) as fh:
                        res.outs[i] = fh.read()
                except OSError as e:
                    res.errors[i] = f"exit 0 without output: {e!r}"
        res.latency[i] = t1 - t0
    if tracer is not None:
        tracer.op = None
    res.wall = time.perf_counter() - start
    return res


def tail_index(n):
    """Index (ascending order) of the highest percentile with TAIL_BEYOND ops beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def perturb(text):
    """Negative control: move a decomposition's first breakpoint by up to 1e-3, or
    scale a learn CSV's first bound by 1 + 1e-3; None when the output has neither."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError:
        lines = text.split("\n")
        if not lines[0].endswith(",bound"):
            return None
        cells = lines[1].split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-3))
        return "\n".join([lines[0], ",".join(cells)] + lines[2:])
    if not isinstance(d, dict) or not d.get("breakpoints"):
        return None
    edges = [d["lo"]] + d["breakpoints"] + [d["hi"]]
    d["breakpoints"][0] += min(1e-3, 0.5 * (edges[2] - edges[1]))
    return json.dumps(d)


def check_outputs(ops, first, differs, seed, perturb_first, keep_dir):
    """Check the first pass's outputs; an op fails in every pass where it errored,
    produced other bytes than in the first pass, or (first pass) failed its check."""
    import checks

    base = list(first.outs)
    if perturb_first:
        target = next(i for i, out in enumerate(base) if out is not None and perturb(out) is not None)
        base[target] = perturb(base[target])
    reasons, counters = list(first.errors), Counter()
    for i, op in enumerate(ops):
        if reasons[i] is not None:
            continue
        rng = gen.rng_for(seed, "check", op.name)
        try:
            if op.kind == "erm":
                got = checks.check_erm(op, base[i], [base[j] for j in op.erm_of])
            else:
                got = checks.CHECKS[op.check](op, base[i], rng)
        except checks.CheckFailed as e:
            reasons[i] = f"check failed: {e}"
            continue
        except Exception as e:  # a check that cannot even parse the output fails the op
            reasons[i] = f"check raised {e!r}"
            continue
        counters.update(got)
        if any(k.endswith("_mismatches") and v for k, v in got.items()):
            dst = os.path.join(keep_dir, "mismatches", op.name)
            os.makedirs(dst, exist_ok=True)
            for path in op.meta.get("inputs", []):
                shutil.copy(path, dst)
    failed = sum(r is not None for r in reasons) * (1 + len(differs))
    failed += sum(reasons[i] is None and d[i] for d in differs for i in range(len(ops)))
    return reasons, counters, failed


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--perturb", action="store_true")
    args = ap.parse_args(argv)

    # -- set-up: imports, input generation, file writes --------------------------------
    import numpy

    mods = import_program()
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    try:
        b = workloads.build(args.workload, args.seed, workdir)
        workloads.write(b)
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        result = timed_run(args, b.ops, mods, numpy.__version__)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_run(args, ops, mods, numpy_version):
    import layers
    from tracer import Tracer

    keep_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(keep_dir, ignore_errors=True)
    os.makedirs(keep_dir)

    first, differs, walls, traced, tracers, latencies, setups = None, [], [], [], [], [], []
    begin = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(walls) % 2 == 1 else None
        if tracer is not None:
            tracer.install(mods)
        try:
            res = run_pass(ops, mods, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if first is None:
            first = res
        else:  # keep one pass's outputs; later passes only record where they differ
            differs.append([e is not None or o != f for o, e, f in zip(res.outs, res.errors, first.outs)])
        walls.append(res.wall)
        traced.append(tracer is not None)
        if tracer is not None:
            tracers.append(tracer)
        else:
            latencies.append(res.latency)
        # set-up probes keep pace with the run's elapsed share of --seconds
        due = 0 if args.trace else SETUP_PROBES * (time.perf_counter() - begin) / args.seconds
        due = min(SETUP_PROBES, due)
        while len(setups) < due:
            setups.append(setup_probe(args))
        elapsed = time.perf_counter() - begin
        if elapsed + max(walls[-2:]) > args.seconds and len(walls) >= 1 + args.trace:
            break
    while not args.trace and len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reasons, counters, failed = check_outputs(ops, first, differs, args.seed, args.perturb, keep_dir)
    attempted = len(ops) * len(walls)
    plain = [w for w, t in zip(walls, traced) if not t]
    n = len(ops)
    info = {
        "workload": args.workload, "seed": args.seed, "ops_per_pass": n, "passes": len(plain),
        "pass_walls_s": [round(w, 4) for w in walls], "traced": traced,
        "traced_passes": len(tracers), "tail_percentile": round(100.0 * (tail_index(n) + 1) / n, 1),
        "stamp": stamp(numpy_version), "setup_probes_s": setups,
        "failures": {ops[i].name: r for i, r in enumerate(reasons) if r is not None},
    }
    tune_s = median(plain)
    if args.trace:
        overhead = median(w for w, is_t in zip(walls, traced) if is_t) / tune_s - 1.0
        metrics, repeat = layers.per_layer(tracers, counters, overhead)
        info["counts_repeat"] = repeat
        with open(os.path.join(keep_dir, "spans.jsonl"), "w") as fh:
            for k, t in enumerate(tracers):
                t.dump_spans(fh, k)
    else:
        metrics = {
            "tune_s": {"value": tune_s, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * median(median(lat) for lat in latencies), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * median(sorted(lat)[tail_index(n)] for lat in latencies),
                           "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }
    with open(os.path.join(keep_dir, "run.json"), "w") as fh:
        json.dump({"info": info, "metrics": metrics, "attempted": attempted, "failed": failed}, fh, indent=1)
    return {"info": info, "metrics": metrics, "attempted": attempted, "failed": failed}


if __name__ == "__main__":
    sys.exit(main())
