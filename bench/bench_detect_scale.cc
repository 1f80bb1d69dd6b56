// EXP-D1 — detection scalability in |D| ([3] Fan et al., TODS'08 style):
// wall time of a full detection pass over the customer relation as the
// number of tuples grows, for native detection (the relation's dictionary
// codes, in memory or loaded from a snapshot) and generated-SQL detection
// through the sql:: engine. The paper's claim: detection is a small number
// of scans, scaling near-linearly; the SQL path pays a constant interpreter
// factor but keeps the same asymptotics.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "detect/native_detector.h"
#include "detect/sql_detector.h"
#include "relational/csv_io.h"
#include "relational/database.h"
#include "storage/snapshot.h"

namespace semandaq {
namespace {

constexpr double kNoise = 0.05;

// The production configuration: detection over the relation's own code
// columns.
void BM_NativeDetect(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  const auto& wl = bench::CachedCustomer(tuples, kNoise);
  const auto cfds = bench::MustParseCfds(workload::CustomerGenerator::PaperCfds());
  int64_t total_vio = 0;
  for (auto _ : state) {
    detect::NativeDetector detector(&wl.dirty, cfds);
    auto table = detector.Detect();
    benchmark::DoNotOptimize(table);
    total_vio = table.ok() ? table->TotalVio() : -1;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["total_vio"] = static_cast<double>(total_vio);
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_NativeDetect)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000)
    ->Unit(benchmark::kMillisecond);

// The full CSV cold path: time-to-first-detection for a process that starts
// from a CSV file on disk — read, parse, dictionary-encode, scan. This is
// the baseline the persistent columnar store replaces.
void BM_NativeDetectColdCsv(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  const auto& wl = bench::CachedCustomer(tuples, kNoise);
  const auto cfds = bench::MustParseCfds(workload::CustomerGenerator::PaperCfds());
  const std::string path =
      "/tmp/semandaq_bench_" + std::to_string(tuples) + ".csv";
  if (!relational::SaveRelationCsv(wl.dirty, path).ok()) std::abort();
  int64_t total_vio = 0;
  for (auto _ : state) {
    auto rel = relational::LoadRelationCsv("customer", path);
    if (!rel.ok()) std::abort();
    detect::NativeDetector detector(&*rel, cfds);
    auto table = detector.Detect();
    benchmark::DoNotOptimize(table);
    total_vio = table.ok() ? table->TotalVio() : -1;
  }
  std::remove(path.c_str());
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["total_vio"] = static_cast<double>(total_vio);
}
BENCHMARK(BM_NativeDetectColdCsv)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000)
    ->Unit(benchmark::kMillisecond);

// Warm start from the persistent columnar store (src/storage): one bulk
// snapshot read feeds the code columns with no per-value re-encode, then
// the same detection scan. The A/B against BM_NativeDetectColdCsv is the
// store's reason to exist — time-to-first-detection without paying the
// parse + encode cold path. (The snapshot is written once outside the
// timed region; the loop measures load + detect only.)
void BM_NativeDetectColdLoad(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  const auto& wl = bench::CachedCustomer(tuples, kNoise);
  const auto cfds = bench::MustParseCfds(workload::CustomerGenerator::PaperCfds());
  const std::string path =
      "/tmp/semandaq_bench_" + std::to_string(tuples) + ".sdq";
  {
    auto stats = storage::SnapshotWriter::Write(wl.dirty, path);
    if (!stats.ok()) std::abort();
  }
  int64_t total_vio = 0;
  for (auto _ : state) {
    auto loaded = storage::SnapshotReader::Read(path);
    if (!loaded.ok()) std::abort();
    detect::NativeDetector detector(&loaded->relation, cfds);
    auto table = detector.Detect();
    benchmark::DoNotOptimize(table);
    total_vio = table.ok() ? table->TotalVio() : -1;
  }
  std::remove(path.c_str());
  std::remove(storage::WalPathFor(path).c_str());
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["total_vio"] = static_cast<double>(total_vio);
}
BENCHMARK(BM_NativeDetectColdLoad)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000)
    ->Unit(benchmark::kMillisecond);

// SIMD kernel A/B over the relation's codes: same blocked scan algorithm, the
// second Arg forces the kernel tier (0 = the scalar dispatch floor, 1 =
// SSE2, 2 = AVX2; tiers above the host's support clamp down — the
// "simd_level" counter records what actually ran). The constant-tableau Σ
// keeps the run kernel-bound (pattern match + liveness/NULL filtering +
// RHS disagreement masks), which is exactly the layer the tiers differ
// in; the mixed-workload scaling story stays with BM_NativeDetect.
void BM_NativeDetectSimd(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  const auto& wl = bench::CachedCustomer(tuples, kNoise);
  const auto cfds = bench::MustParseCfds(
      "customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }\n"
      "customer: [CNT] -> [CC] { (UK | 44), (NL | 31), (US | 1) }\n"
      "customer: [CITY] -> [AC] { (Edinburgh | 131), (London | 20), "
      "(Glasgow | 141), (Amsterdam | 20), (Utrecht | 30), (NewYork | 212), "
      "(Chicago | 312) }\n");
  detect::DetectorOptions options;
  options.simd_level =
      static_cast<semandaq::common::simd::Level>(state.range(1));
  int64_t total_vio = 0;
  for (auto _ : state) {
    detect::NativeDetector detector(&wl.dirty, cfds, options);
    auto table = detector.Detect();
    benchmark::DoNotOptimize(table);
    total_vio = table.ok() ? table->TotalVio() : -1;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["total_vio"] = static_cast<double>(total_vio);
  state.counters["simd_level"] = static_cast<double>(
      semandaq::common::simd::KernelsFor(options.simd_level).level);
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_NativeDetectSimd)
    ->Args({64000, 0})
    ->Args({64000, 1})
    ->Args({64000, 2})
    ->Args({256000, 0})
    ->Args({256000, 2})
    ->Unit(benchmark::kMillisecond);

void BM_SqlDetect(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  const auto& wl = bench::CachedCustomer(tuples, kNoise);
  const auto cfds = bench::MustParseCfds(workload::CustomerGenerator::PaperCfds());
  int64_t total_vio = 0;
  for (auto _ : state) {
    state.PauseTiming();
    relational::Database db;
    (void)db.AddRelation(wl.dirty.Clone());
    state.ResumeTiming();
    detect::SqlDetector detector(&db, "customer", cfds);
    auto table = detector.Detect();
    benchmark::DoNotOptimize(table);
    total_vio = table.ok() ? table->TotalVio() : -1;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["total_vio"] = static_cast<double>(total_vio);
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SqlDetect)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000)
    ->Unit(benchmark::kMillisecond);

// Noise sensitivity at fixed size: more dirt means more violation records
// but the scan cost dominates.
void BM_NativeDetectNoise(benchmark::State& state) {
  const double noise = static_cast<double>(state.range(0)) / 100.0;
  const auto& wl = bench::CachedCustomer(16000, noise);
  const auto cfds = bench::MustParseCfds(workload::CustomerGenerator::PaperCfds());
  int64_t total_vio = 0;
  for (auto _ : state) {
    detect::NativeDetector detector(&wl.dirty, cfds);
    auto table = detector.Detect();
    total_vio = table.ok() ? table->TotalVio() : -1;
  }
  state.counters["noise_pct"] = static_cast<double>(state.range(0));
  state.counters["total_vio"] = static_cast<double>(total_vio);
}
BENCHMARK(BM_NativeDetectNoise)->Arg(1)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semandaq

BENCHMARK_MAIN();
