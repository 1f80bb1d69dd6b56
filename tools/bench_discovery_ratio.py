#!/usr/bin/env python3
"""Records the discovery miners' parallel and SIMD ratios in the artifact.

Usage: bench_discovery_ratio.py [--semandaq-build-type=TYPE] \\
           BENCH_discovery.json

--semandaq-build-type stamps the semandaq library's CMAKE_BUILD_TYPE into
the artifact context as "semandaq_build_type" (the benchmark-emitted
"library_build_type" describes libbenchmark's own compile, which the
Debian package ships as "debug" — see bench_simd_ratio.py).

Reads the BM_FdMine / BM_CfdMine sweeps (benchmark args = tuples / threads /
requested kernel tier; the "simd_level" counter is the tier that actually
ran after host clamping) and writes back into BENCH_discovery.json under
"discovery_ratios":

  * serial_over_parallel: time(threads=1) / time(threads=N) per tuple count
    at the best vector tier — the levelwise fan-out win (>= 1.8x at 4
    threads is the acceptance bar on multi-core CI; a single-core host
    shows pool overhead instead, which the artifact records honestly).
  * scalar_over_vector: time(scalar) / time(best vector tier) at
    threads=1 — the evidence-scan/intersect kernel win.

Exits nonzero only on malformed input — shared CI runners are too noisy
for a hard perf gate; acceptance is judged from the recorded artifact.
"""

import json
import sys


def real_runs(benchmarks, prefix):
    """Non-aggregate runs of one family, keyed by their slash-args tuple."""
    out = {}
    for b in benchmarks:
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or not name.startswith(prefix + "/"):
            continue
        args = tuple(name.split("/")[1:])
        out[args] = b
    return out


def mine_ratios(benchmarks, family):
    """Thread and tier ratios for one BM_FdMine-shaped sweep."""
    runs = real_runs(benchmarks, family)
    by_tuples = {}
    for (tuples, threads, _level), b in runs.items():
        by_tuples.setdefault(tuples, []).append(
            (int(threads), b.get("simd_level"), b["real_time"]))
    out = {}
    for tuples, entries in by_tuples.items():
        rec = {}
        vector = [(t, lvl, ms) for t, lvl, ms in entries if lvl and lvl > 0]
        serial_vec = [(lvl, ms) for t, lvl, ms in vector if t == 1]
        serial_scalar = [ms for t, lvl, ms in entries if t == 1 and lvl == 0]
        if serial_vec:
            best_lvl, serial_ms = max(serial_vec)
            rec["serial_ms"] = serial_ms
            rec["vector_level"] = best_lvl
            for t, lvl, ms in sorted(vector):
                if t == 1 or lvl != best_lvl:
                    continue
                rec[f"threads_{t}_ms"] = ms
                rec[f"serial_over_{t}_threads"] = round(serial_ms / ms, 3)
            if serial_scalar:
                rec["scalar_ms"] = serial_scalar[0]
                rec["scalar_over_vector"] = round(serial_scalar[0] / serial_ms, 3)
        if rec:
            out[tuples] = rec
    return out


def main(argv):
    build_type = None
    args = []
    for a in argv[1:]:
        if a.startswith("--semandaq-build-type="):
            build_type = a.split("=", 1)[1]
        else:
            args.append(a)
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    path = args[0]
    with open(path) as f:
        data = json.load(f)
    if build_type:
        data.setdefault("context", {})["semandaq_build_type"] = \
            build_type.lower()
    benchmarks = data.get("benchmarks", [])
    data["discovery_ratios"] = {
        "BM_FdMine": mine_ratios(benchmarks, "BM_FdMine"),
        "BM_CfdMine": mine_ratios(benchmarks, "BM_CfdMine"),
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
    for family, groups in data["discovery_ratios"].items():
        for group, rec in sorted(groups.items()):
            pretty = ", ".join(f"{k}={v}" for k, v in sorted(rec.items()))
            print(f"{family}/{group}: {pretty}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
