#!/usr/bin/env python3
"""Run every workload several times, one seed per run, and record the
median and quartiles of each metric with the machine they ran on.

    python3 bench/repeat.py --trace-seed 1 --out bench/BENCH_baseline.json

Run from the repository root.  Each workload runs RUNS times, seeds 1 to
RUNS, for BENCHMARK.json's run_seconds; each run is a fresh `bench/run.py`
process.
`spread` is (q3 - q1) / median, the figure the benchmark's bounds are
checked against.  With --trace-seed the record also holds one traced run
per workload at that seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import workloads

RUN = str(Path(__file__).with_name("run.py"))
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
RUNS = 10


def machine() -> dict:
    """nproc, CPU, interpreter and library versions, and the BLAS thread
    cap that run.py sets."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": nproc,
    }


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "elapsed_s": time.perf_counter() - t0, "log": lines[:-1],
            **json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for key, m in runs[0]["metrics"].items():
        vals = [r["metrics"][key]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[key] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else 0.0, "values": vals}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    seconds = json.loads(SPEC.read_text())["run_seconds"]
    record = {"machine": machine(), "seconds": seconds, "runs": RUNS, "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = [one_run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry = {
            "seeds": [r["seed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": summarize(runs),
        }
        if args.trace_seed is not None:
            traced = one_run(name, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "log": traced["log"],
                               "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        record["workloads"][name] = entry
        for key, s in entry["end_to_end"].items():
            print(f"{name:10s} {key:16s} median {s['median']:.6g} {s['unit']}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}", flush=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
