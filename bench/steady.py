"""Steadiness check: repeat workloads over several seeds and print, for each
metric, the median, the quartiles and the spread (quartile distance over
the median).  The bounds in BENCHMARK.json are set from this output.

    python3 bench/steady.py --seeds 1-10 --seconds 20
    python3 bench/steady.py --workloads prop-enum --seeds 1-5 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

from run import BENCH, ROOT, WORKLOADS


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: seeds {args.seeds}, correct={correct}, failed share {' '.join(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, spread = summary(values)
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:34s} median {median:12.6g} {unit:8s} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
