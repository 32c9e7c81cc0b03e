"""Checks on the benchmark itself; exits nonzero if any fails.

    python3 bench/selfcheck.py

1. Input generation is deterministic: two generations with one seed give
   byte-identical files on disk, and another seed gives different ones.
2. ``BENCHMARK.json`` names exactly the metrics the benchmark prints.
3. Negative control: with one output perturbed (a breakpoint moved by 1e-3,
   or a CSV bound scaled by 1 + 1e-3) every workload reports failed ops, and
   the same run unperturbed reports none.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SECONDS = "1"
END_TO_END = ("setup_s", "tune_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "ok_frac")


def generation_is_deterministic(seed: int) -> list[str]:
    problems = []
    scratch = os.path.join(ROOT, ".bench_out", f"selfcheck-{os.getpid()}")
    try:
        for w in workloads.WORKLOADS:
            dirs = []
            for k, s in enumerate((seed, seed, seed + 1)):
                b = workloads.build(w, s, os.path.join(scratch, f"{w}-{k}"))
                workloads.write(b)
                dirs.append(b.workdir)
            names = sorted(os.listdir(dirs[0]))
            _, diff, errs = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
            if diff or errs or sorted(os.listdir(dirs[1])) != names:
                problems.append(f"{w}: same seed gave different files {diff + errs}")
            _, diff, _ = filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)
            if not diff:
                problems.append(f"{w}: seeds {seed} and {seed + 1} gave identical files")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return problems


def manifest_matches() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if tuple(m["name"] for m in spec["end_to_end"]) != END_TO_END:
        problems.append("BENCHMARK.json end_to_end names differ from the printed metrics")
    if [m["name"] for m in spec["per_layer"]] != list(layers.METRICS) + [layers.OVERHEAD]:
        problems.append("BENCHMARK.json per_layer names differ from layers.METRICS")
    return problems


def negative_control(seed: int, seconds: str) -> list[str]:
    problems = []
    for w in workloads.WORKLOADS:
        for perturbed in (False, True):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            p = subprocess.run(cmd + (["--perturb"] if perturbed else []), capture_output=True,
                               text=True, timeout=300)
            if p.returncode != 0:
                problems.append(f"{w}: run failed: {p.stderr.strip()[-300:]}")
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if perturbed and not res["failed"]:
                problems.append(f"{w}: perturbed output passed the checks")
            if not perturbed and res["failed"]:
                problems.append(f"{w}: unperturbed run reported {res['failed']} failed ops")
            print(f"{w} perturbed={perturbed}: failed {res['failed']} of {res['attempted']}", flush=True)
    return problems


def main() -> int:
    problems = generation_is_deterministic(SEED) + manifest_matches()
    problems += negative_control(SEED, SECONDS)
    for p in problems:
        print("SELFCHECK FAILED:", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
