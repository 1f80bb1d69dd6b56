#!/usr/bin/env python3
"""Records the code-columnar repair engine's thread and tier ratios.

Usage: bench_repair_ratio.py [--semandaq-build-type=TYPE] BENCH_repair.json

--semandaq-build-type stamps the semandaq library's CMAKE_BUILD_TYPE into
the artifact context as "semandaq_build_type" (the benchmark-emitted
"library_build_type" describes libbenchmark's own compile, which the
Debian package ships as "debug" — see bench_simd_ratio.py).

Reads the BM_Repair sweep (benchmark args = tuples / worker lanes /
requested kernel tier, 0 lanes = all hardware threads; the "simd_level"
counter is the tier that actually ran after host clamping) and writes back
into BENCH_repair.json under "repair_ratios", per tuple count:

  * scalar_over_vector: serial scalar / serial best vector tier — what the
    kernel tier contributes inside the repair loop.
  * serial_over_N_threads: thread scaling at the best vector tier.
  * encoded_hw_ms: the run at all hardware threads and the best vector
    tier.

The RepairResult itself is byte-identical across every configuration
(gated by tests/parallel_repair_test.cc) — these ratios are wall-clock
only. Exits nonzero only on malformed input — shared CI runners are too
noisy for a hard perf gate; acceptance is judged from the recorded
artifact.
"""

import json
import sys


def real_runs(benchmarks, prefix):
    """Non-aggregate runs of one family, keyed by their numeric slash-args.

    Google Benchmark appends modifier segments ("process_time",
    "real_time") after the numeric args; only the numeric prefix keys the
    run.
    """
    out = {}
    for b in benchmarks:
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or not name.startswith(prefix + "/"):
            continue
        args = []
        for part in name.split("/")[1:]:
            if not part.lstrip("-").isdigit():
                break
            args.append(part)
        out[tuple(args)] = b
    return out


def repair_ratios(benchmarks):
    encoded = real_runs(benchmarks, "BM_Repair")
    by_tuples = {}
    for (tuples, threads, _level), b in encoded.items():
        by_tuples.setdefault(tuples, []).append(
            (int(threads), b.get("simd_level"), b["real_time"]))
    out = {}
    for tuples, entries in sorted(by_tuples.items()):
        rec = {}
        vector = [(t, lvl, ms) for t, lvl, ms in entries if lvl and lvl > 0]
        serial_vec = [(lvl, ms) for t, lvl, ms in vector if t == 1]
        serial_scalar = [ms for t, lvl, ms in entries if t == 1 and lvl == 0]
        best_lvl = None
        if serial_vec:
            best_lvl, serial_ms = max(serial_vec)
            rec["encoded_serial_ms"] = serial_ms
            rec["vector_level"] = best_lvl
            if serial_scalar:
                rec["encoded_scalar_ms"] = serial_scalar[0]
                rec["scalar_over_vector"] = round(serial_scalar[0] / serial_ms, 3)
            for t, lvl, ms in sorted(vector):
                if t in (0, 1) or lvl != best_lvl:
                    continue
                rec[f"threads_{t}_ms"] = ms
                rec[f"serial_over_{t}_threads"] = round(serial_ms / ms, 3)
        hw = [ms for t, lvl, ms in vector if t == 0 and lvl == best_lvl]
        if hw:
            rec["encoded_hw_ms"] = hw[0]
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
    data["repair_ratios"] = {"BM_Repair": repair_ratios(benchmarks)}
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
    for family, groups in data["repair_ratios"].items():
        for group, rec in sorted(groups.items()):
            pretty = ", ".join(f"{k}={v}" for k, v in sorted(rec.items()))
            print(f"{family}/{group}: {pretty}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
