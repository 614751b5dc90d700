#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

For each workload, runs the benchmark once per seed (seeds first-seed ..
first-seed + runs - 1), then reports for every end-to-end metric in
BENCHMARK.json its median and its spread: the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median.
A spread above a third of the metric's bound is flagged; setup_s is
reported but not flagged, and so are the op times in host ms that each run
prints on its "host time (not gated)" line, for comparison.  With --sets 2
the whole sweep runs twice and the second set's median is compared with the
first's against the bound.

    python3 e2e_bench/steadiness.py --workloads protocol,epochs --runs 10
    python3 e2e_bench/steadiness.py --runs 5 --first-seed 101

Exits non-zero if any run fails or any flagged limit is exceeded.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "e2e_bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" %
                           (workload, seed, out.returncode, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: incorrect result %s" %
                           (workload, seed, result))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in out.stdout.splitlines():
        if "host time (not gated):" in line:
            for item in line.split(":", 1)[1].split(","):
                name, value = item.split("=")
                values["host " + name.strip()] = float(value)
    return values


def spread(values):
    """Median and interquartile range over median."""
    median = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return median, (q[2] - q[0]) / median if median else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            runs = [run_once(workload, args.first_seed + i, args.seconds)
                    for i in range(args.runs)]
            print("%s, set %d, seeds %d..%d" %
                  (workload, s + 1, args.first_seed,
                   args.first_seed + args.runs - 1))
            set_medians = {}
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[name] for r in runs]
                median, iqr = spread(values)
                flag = ""
                if name != "setup_s" and iqr > bound / 3:
                    flag = "  <-- above bound/3"
                    ok = False
                print("  %-14s median %-12.6g spread %6.2f%% (bound %g%%)%s" %
                      (name, median, 100 * iqr, 100 * bound, flag))
                print("  %-14s runs   %s" %
                      ("", " ".join("%.4g" % v for v in values)))
                set_medians[name] = median
            for name in sorted(k for k in runs[0] if k.startswith("host ")):
                values = [r[name] for r in runs]
                median, iqr = spread(values)
                print("  %-24s median %-12.6g spread %6.2f%% (not gated)" %
                      (name, median, 100 * iqr))
            medians.append(set_medians)
        if len(medians) == 2:
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                a, b = medians[0][name], medians[1][name]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                flag = "  <-- worse than bound" if worse > bound else ""
                ok = ok and not flag
                print("  %-14s second vs first median: %+.2f%% worse%s" %
                      (name, 100 * worse, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
