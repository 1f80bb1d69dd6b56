#!/usr/bin/env python3
"""Semandaq benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. Builds the server and the load generator
(perfbench/CMakeLists.txt) into .bench_build/ on first use, runs one
workload, and prints a human-readable table of every measured metric and
the run stamp, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 "metrics" holds BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("interactive-64k", "analytics-1m", "ingest-64k")
GENERATOR_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    for need in ("src/server/service.h", "tools/semandaq_server.cc", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a Semandaq checkout" % need)
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "semandaq_server", "semandaq_perf"],
                   stdout=sys.stderr, check=True)


def parse(lines):
    """Splits the generator's `stamp/metric/check/result` lines."""
    out = {"stamp": [], "metrics": {}, "checks": [], "result": None}
    for line in lines:
        parts = line.split(" ")
        kind = parts[0]
        if kind == "stamp":
            out["stamp"].append((parts[1], " ".join(parts[2:])))
        elif kind == "metric":
            out["metrics"][parts[1]] = (float(parts[2]), parts[3], " ".join(parts[4:]))
        elif kind == "check":
            out["checks"].append((parts[1], parts[2] == "ok", " ".join(parts[3:])))
        elif kind == "result":
            out["result"] = (parts[1] == "correct", int(parts[2]), int(parts[3]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for perfbench/smoke_test.py")
    args = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(BUILD, "semandaq_perf"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--server=" + os.path.join(BUILD, "semandaq_server"), "--work=" + work]
    if args.smoke:
        cmd.append("--smoke")
    # The generator dies with this process and its servers die with it
    # (both set PR_SET_PDEATHSIG), so killing either leaves nothing behind.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=GENERATOR_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        out = None
    shutil.rmtree(work, ignore_errors=True)
    if out is None:
        fail("generator timed out after %ds" % GENERATOR_TIMEOUT_S)
    if proc.returncode != 0:
        fail("generator exited with %d" % proc.returncode)
    run = parse(out.splitlines())
    if run["result"] is None:
        fail("generator printed no result")

    for key, value in run["stamp"]:
        print("stamp  %-24s %s" % (key, value))
    for name, (value, unit, tag) in sorted(run["metrics"].items()):
        print("metric %-36s %14.6g %-9s %s" % (name, value, unit, tag))
    for name, ok, detail in run["checks"]:
        print("check  %-40s %s %s" % (name, "ok" if ok else "FAIL", detail))

    missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    correct, attempted, failed = run["result"]
    correct = correct and all(ok for _, ok, _ in run["checks"])
    metrics = {}
    for m in wanted:
        value, unit, _ = run["metrics"][m["name"]]
        if unit != m["unit"]:
            fail("metric %s measured in %s, declared in %s" % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
