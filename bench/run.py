"""Benchmark entry point: one workload, one seed, one line of JSON at the end.

    python3 bench/run.py --workload dp_tune --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

The workload runs in one fresh process (``worker.py``) so that
``peak_rss_mb`` is that process's own peak.  Set-up is timed from process
start to the first op.  To make that figure steady, the worker also starts
set-up probes between its passes, processes that only set up (imports, input
generation, file writes) and exit; ``setup_s`` is the median over those and
the measured process.  With
``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  The exit code is nonzero, and no result is
printed, when the program cannot be imported or run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from worker import ready_after  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150


def run_one(args) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup, p = ready_after(cmd + (["--perturb"] if args.perturb else []), CHILD_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    res = json.loads(p.stdout.strip().splitlines()[-1])
    setups = res["info"].pop("setup_probes_s") + [setup]
    if not args.trace:
        res["metrics"] = {"setup_s": {"value": median(setups), "unit": "s"}, **res["metrics"]}
    res["info"]["setup_samples"] = len(setups)
    return res


def report(res: dict) -> None:
    info = res["info"]
    print(f"# {info['workload']} seed={info['seed']} passes={info['passes']} "
          f"traced_passes={info['traced_passes']} ops_per_pass={info['ops_per_pass']} "
          f"tail=p{info['tail_percentile']:g} setup_samples={info['setup_samples']}")
    print("# stamp " + json.dumps(info["stamp"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':44s} {res['failed'] / res['attempted']:.6g} frac "
          f"({res['failed']} of {res['attempted']} ops)")
    for op, reason in info["failures"].items():
        print(f"# FAILED {op}: {reason}")
    if "counts_repeat" in info:
        print(f"# counts repeat across traced passes: {info['counts_repeat']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="negative control: corrupt one output before the checks")
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_one(args)
            report(results[name])
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        res = results[names[0]]
        out = {k: res[k] for k in ("attempted", "failed", "metrics")}
    else:
        out = {"attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}}
    out["correct"] = out["failed"] == 0
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
