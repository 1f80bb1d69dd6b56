// EXP-R3 — the code-columnar repair engine: BatchRepair with the detect ->
// repair -> audit loop running on one working copy's dictionary codes
// (kernel-blocked re-detection, CountEq32 group tallies, coded cost fast
// paths). Axes: range(0) = tuples, range(1) = requested kernel tier. The
// RepairResult is byte-identical across every configuration (gated by
// tests/parallel_repair_test.cc) — only the wall clock may differ.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "repair/batch_repair.h"

namespace semandaq {
namespace {

void BM_Repair(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  repair::RepairOptions opts;
  opts.simd_level = static_cast<common::simd::Level>(state.range(1));
  const auto& wl = bench::CachedCustomer(tuples, 0.05, /*seed=*/9);
  const auto cfds = bench::MustParseCfds(workload::CustomerGenerator::PaperCfds());
  repair::CostModel cm(wl.dirty.schema());

  size_t changes = 0;
  int iterations = 0;
  for (auto _ : state) {
    repair::BatchRepair repair(&wl.dirty, cfds, cm, opts);
    auto result = repair.Run();
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      changes = result->changes.size();
      iterations = result->iterations;
    }
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["changed_cells"] = static_cast<double>(changes);
  state.counters["rounds"] = static_cast<double>(iterations);
  state.counters["simd_level"] = static_cast<double>(
      common::simd::KernelsFor(opts.simd_level).level);
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Repair)
    ->Args({16000, 2})
    ->Args({64000, 0})
    ->Args({64000, 2})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace semandaq

BENCHMARK_MAIN();
