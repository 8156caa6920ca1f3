"""Steadiness check: run workloads repeatedly, one seed per run, and print
each metric's median, quartiles and spread (quartile distance as a share
of the median), so the bounds in BENCHMARK.json can be set from measured
spread.

    python3 perfbench/steady.py --workloads pdf_corpus,html_corpus \\
        --seeds 1-10 [--seconds 30]

Runs go one after another, each through run.py.  A run that fails or
prints no result is reported and left out of the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return result, time.monotonic() - t0, proc.returncode


def spread(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    bad = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares, durations = [], []
        for seed in seed_list(args.seeds):
            result, dt, code = run_once(workload, seed, args.seconds)
            durations.append(dt)
            if result is None or not result["correct"]:
                bad += 1
                print(f"{workload} seed {seed}: exit {code}, no usable "
                      "result", flush=True)
                continue
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {dt:.1f} s, " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in
                result["metrics"].items()), flush=True)
        print(f"== {workload}: {len(durations)} runs, median run "
              f"{statistics.median(durations):.1f} s, failed shares "
              f"{sorted(set(shares))}")
        for name, vals in values.items():
            s = spread(vals)
            print(f"   {name:40s} median {s['median']:.5g}  q1 {s['q1']:.5g}"
                  f"  q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
