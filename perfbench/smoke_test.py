#!/usr/bin/env python3
"""Smoke test of the Semandaq benchmark: every workload at tiny sizes.

    python3 perfbench/smoke_test.py

Runs perfbench/run.py --smoke for each workload in BENCHMARK.json, once
untraced and once traced, for a few seconds each. Fails unless every run
exits 0, passes every correctness check with no failed request, and prints
every metric BENCHMARK.json names plus every end-to-end metric of the
workload's table in perfbench/README.md.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics each workload prints besides the gated ones (README.md).
EXTRA = {
    "interactive-64k": ["fail_frac", "cheap_ms_p50", "cheap_ms_p99", "map_ms_p50",
                        "sql_ms_p50", "detect_ms_p99"],
    "analytics-1m": ["fail_frac", "sql_ms_p50", "report_ms_p50", "clean_ms_p50",
                     "mine_ms_p50"],
    "ingest-64k": ["fail_frac", "append_ms_p50", "apply_ms_p50", "clean_ms_p50",
                   "late_ms_max"],
}


def run(workload, trace, spec):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        return ["%s trace=%d: exit %d" % (workload, trace, proc.returncode)]
    errors = []
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        errors.append("%s trace=%d: metrics %s" % (workload, trace, sorted(result["metrics"])))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append("%s trace=%d: %s" % (workload, trace, lines[-1]))
    printed = {l.split()[1] for l in lines if l.startswith("metric ")}
    for name in ([] if trace else EXTRA[workload]):
        if name not in printed:
            errors.append("%s: %s not printed" % (workload, name))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = run(w["name"], trace, spec)
            print("%-16s trace=%d %s" % (w["name"], trace, "FAIL" if found else "ok"),
                  flush=True)
            errors += found
    for e in errors:
        print("error: " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
