// EXP-M1 — CFD discovery from reference data (paper §2, Constraint Engine):
// wall time of the CTANE-style miner over clean customer and hospital data
// as rows grow, plus the number of CFDs found. Claim: near-linear in rows
// (partition construction dominates) and combinatorial in max LHS size.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "discovery/cfd_miner.h"
#include "discovery/fd_miner.h"
#include "discovery/partition.h"
#include "relational/encoded_relation.h"
#include "workload/hospital_gen.h"

namespace semandaq {
namespace {

void BM_CfdDiscoveryCustomer(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  const auto& wl = bench::CachedCustomer(tuples, 0.0, /*seed=*/21);
  discovery::CfdMinerOptions opts;
  opts.max_lhs = 2;
  opts.min_support = 3;
  size_t found = 0;
  for (auto _ : state) {
    discovery::CfdMiner miner(&wl.clean, opts);
    auto mined = miner.Mine();
    benchmark::DoNotOptimize(mined);
    if (mined.ok()) found = mined->size();
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["cfds_found"] = static_cast<double>(found);
}
BENCHMARK(BM_CfdDiscoveryCustomer)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_CfdDiscoveryHospital(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  workload::HospitalWorkloadOptions wopts;
  wopts.num_tuples = tuples;
  wopts.noise_rate = 0.0;
  wopts.seed = 22;
  static std::map<size_t, workload::HospitalWorkload> cache;
  auto it = cache.find(tuples);
  if (it == cache.end()) {
    it = cache.emplace(tuples, workload::HospitalGenerator::Generate(wopts)).first;
  }
  discovery::CfdMinerOptions opts;
  opts.max_lhs = 2;
  opts.min_support = 3;
  size_t found = 0;
  for (auto _ : state) {
    discovery::CfdMiner miner(&it->second.clean, opts);
    auto mined = miner.Mine();
    benchmark::DoNotOptimize(mined);
    if (mined.ok()) found = mined->size();
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["cfds_found"] = static_cast<double>(found);
}
BENCHMARK(BM_CfdDiscoveryHospital)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

// Π_X construction — the workhorse of TANE-family mining — over
// dictionary code columns. range(0) selects the attribute set: 0 = single
// attribute (ZIP), 1 = pair (CNT, ZIP), 2 = triple (CNT, ZIP, STR).
std::vector<size_t> PartitionCols(int selector) {
  using C = workload::CustomerGenerator;
  switch (selector) {
    case 0: return {C::kZip};
    case 1: return {C::kCnt, C::kZip};
    default: return {C::kCnt, C::kZip, C::kStr};
  }
}

void BM_PartitionBuild(benchmark::State& state) {
  const auto& wl = bench::CachedCustomer(64000, 0.05);
  const std::vector<size_t> cols = PartitionCols(static_cast<int>(state.range(0)));
  relational::EncodedRelation encoded(&wl.dirty);
  size_t classes = 0;
  for (auto _ : state) {
    auto p = discovery::Partition::Build(encoded, cols);
    benchmark::DoNotOptimize(p);
    classes = p.num_classes();
  }
  state.counters["lhs_size"] = static_cast<double>(cols.size());
  state.counters["classes"] = static_cast<double>(classes);
}
BENCHMARK(BM_PartitionBuild)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// SIMD kernel A/B of the encoded partition build: range(0) selects the
// attribute set as above, range(1) the kernel tier (0 = scalar floor,
// 1 = SSE2, 2 = AVX2, clamped to host support — the "simd_level" counter
// records the tier that ran). Same first-touch class assignment on every
// tier; only the liveness/NULL masking and key packing differ.
void BM_PartitionBuildSimd(benchmark::State& state) {
  const auto& wl = bench::CachedCustomer(64000, 0.05);
  const std::vector<size_t> cols = PartitionCols(static_cast<int>(state.range(0)));
  const auto level =
      static_cast<semandaq::common::simd::Level>(state.range(1));
  relational::EncodedRelation encoded(&wl.dirty);
  size_t classes = 0;
  for (auto _ : state) {
    auto p = discovery::Partition::Build(encoded, cols, level);
    benchmark::DoNotOptimize(p);
    classes = p.num_classes();
  }
  state.counters["lhs_size"] = static_cast<double>(cols.size());
  state.counters["classes"] = static_cast<double>(classes);
  state.counters["simd_level"] = static_cast<double>(
      semandaq::common::simd::KernelsFor(level).level);
}
BENCHMARK(BM_PartitionBuildSimd)
    ->Args({0, 0})
    ->Args({0, 2})
    ->Args({1, 0})
    ->Args({1, 2})
    ->Unit(benchmark::kMillisecond);

// The parallel levelwise sweep A/B (PR 5): full FdMiner::Mine over clean
// customer data. range(0) = tuples, range(1) = num_threads (1 = serial
// sweep), range(2) = kernel tier request (0 = scalar floor, 2 = AVX2,
// clamped to host support — the "simd_level" counter records what ran).
// Mined output is byte-identical across all configurations; only the wall
// clock moves. On a single-core host the thread sweep shows pool overhead,
// not speedup.
void BM_FdMine(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  const auto& wl = bench::CachedCustomer(tuples, 0.0, /*seed=*/24);
  discovery::FdMinerOptions opts;
  opts.max_lhs = 3;
  opts.num_threads = static_cast<size_t>(state.range(1));
  opts.simd_level = static_cast<semandaq::common::simd::Level>(state.range(2));
  size_t found = 0;
  for (auto _ : state) {
    discovery::FdMiner miner(&wl.clean, opts);
    auto fds = miner.Mine();
    benchmark::DoNotOptimize(fds);
    found = fds.size();
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["fds_found"] = static_cast<double>(found);
  state.counters["simd_level"] = static_cast<double>(
      semandaq::common::simd::KernelsFor(opts.simd_level).level);
}
BENCHMARK(BM_FdMine)
    ->Args({64000, 1, 0})
    ->Args({64000, 1, 2})
    ->Args({64000, 2, 2})
    ->Args({64000, 4, 2})
    ->Unit(benchmark::kMillisecond);

// Full CfdMiner::Mine (constant + variable CFDs, embedded FD run) over the
// same axes: range(0) = tuples, range(1) = num_threads, range(2) = kernel
// tier. The options are CfdMinerOptions' defaults (max_lhs 3, min_support
// 3), which is what a served `mine` runs. The partition builds and the
// left reduction's constant scan are what the tier moves; the candidate
// fan-out is what the thread count moves.
void BM_CfdMine(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  const auto& wl = bench::CachedCustomer(tuples, 0.0, /*seed=*/24);
  discovery::CfdMinerOptions opts;
  opts.num_threads = static_cast<size_t>(state.range(1));
  opts.simd_level = static_cast<semandaq::common::simd::Level>(state.range(2));
  size_t found = 0;
  for (auto _ : state) {
    discovery::CfdMiner miner(&wl.clean, opts);
    auto mined = miner.Mine();
    benchmark::DoNotOptimize(mined);
    if (mined.ok()) found = mined->size();
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["cfds_found"] = static_cast<double>(found);
  state.counters["simd_level"] = static_cast<double>(
      semandaq::common::simd::KernelsFor(opts.simd_level).level);
}
BENCHMARK(BM_CfdMine)
    ->Args({64000, 1, 0})
    ->Args({64000, 1, 2})
    ->Args({64000, 2, 2})
    ->Args({64000, 4, 2})
    ->Unit(benchmark::kMillisecond);

void BM_FdDiscoveryByLhsDepth(benchmark::State& state) {
  const auto& wl = bench::CachedCustomer(4000, 0.0, /*seed=*/23);
  discovery::FdMinerOptions opts;
  opts.max_lhs = static_cast<size_t>(state.range(0));
  size_t found = 0;
  for (auto _ : state) {
    discovery::FdMiner miner(&wl.clean, opts);
    auto fds = miner.Mine();
    benchmark::DoNotOptimize(fds);
    found = fds.size();
  }
  state.counters["max_lhs"] = static_cast<double>(state.range(0));
  state.counters["fds_found"] = static_cast<double>(found);
}
BENCHMARK(BM_FdDiscoveryByLhsDepth)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semandaq

BENCHMARK_MAIN();
