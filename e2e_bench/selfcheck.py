#!/usr/bin/env python3
"""Tiny-size self-check of the end-to-end benchmark.

Runs every workload at --scale tiny with one op, once plain (--trace 0) and
once traced (--trace 1), and asserts that

  * each run exits 0 and reports correct, with no failed op;
  * every end-to-end metric (plain) and every per-layer metric (traced) in
    BENCHMARK.json is emitted, with its unit;
  * the traced driver reproduced the one-call outputs bit for bit (the
    traced run fails an op otherwise, so this is the "correct" flag of the
    traced run) and wrote its spans.

    python3 e2e_bench/selfcheck.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            label = "%s --trace %s" % (workload, trace)
            out = subprocess.run(
                [sys.executable, str(ROOT / "e2e_bench" / "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--scale", "tiny", "--ops", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                problems.append("%s: exit %d\n%s" %
                                (label, out.returncode, out.stderr[-2000:]))
                continue
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: unexpected result keys %s" %
                                (label, sorted(result)))
            if not result.get("correct") or result.get("failed"):
                problems.append("%s: not correct:\n%s" %
                                (label, "\n".join(lines[-40:])))
            metrics = result.get("metrics", {})
            for m in expected:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: missing metric %s" %
                                    (label, m["name"]))
                elif got.get("unit") != m["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append("%s: metric %s reads %s, want unit %s" %
                                    (label, m["name"], got, m["unit"]))
            extra = set(metrics) - {m["name"] for m in expected}
            if extra:
                problems.append("%s: unlisted metrics %s" %
                                (label, sorted(extra)))
            if trace == "1":
                trace_file = (ROOT / ".bench_build" /
                              ("trace_%s_seed7.json" % workload))
                events = json.loads(trace_file.read_text())["traceEvents"]
                if not any(e["name"] == "op" for e in events):
                    problems.append("%s: no op spans in %s" %
                                    (label, trace_file))
            print("%-24s %s" % (label, "ok" if not problems else "..."))
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
