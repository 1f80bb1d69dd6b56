// EXP-R1 — repair quality vs. noise rate ([8] Cong et al., VLDB'07 style):
// 4k customer tuples with 1%-10% injected noise; reports repair wall time
// plus the quality metrics of [8] as counters: repair cost, precision,
// recall and residual errors against the generator's gold standard. Claim:
// precision/recall degrade gracefully as noise grows; cost grows roughly
// linearly with the number of injected errors.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "repair/batch_repair.h"
#include "workload/quality.h"

namespace semandaq {
namespace {

constexpr size_t kTuples = 4000;

void BM_RepairQualityVsNoise(benchmark::State& state) {
  const double noise = static_cast<double>(state.range(0)) / 100.0;
  const auto& wl = bench::CachedCustomer(kTuples, noise, /*seed=*/7);
  const auto cfds = bench::MustParseCfds(workload::CustomerGenerator::PaperCfds());
  repair::CostModel cm(wl.dirty.schema());

  std::vector<repair::CellChange> plan;
  double cost = 0;
  for (auto _ : state) {
    repair::BatchRepair repair(&wl.dirty, cfds, cm);
    auto result = repair.Run();
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      cost = result->total_cost;
      plan = std::move(result->changes);
    }
  }
  // Quality of the last plan, scored on the input with it applied (untimed).
  const size_t changes = plan.size();
  relational::Relation repaired = wl.dirty.Clone();
  if (!repair::ApplyChanges(plan, &repaired).ok()) state.SkipWithError("apply");
  const workload::RepairQuality quality =
      workload::EvaluateRepair(wl.clean, wl.dirty, repaired);
  state.counters["noise_pct"] = static_cast<double>(state.range(0));
  state.counters["repair_cost"] = cost;
  state.counters["changed_cells"] = static_cast<double>(changes);
  state.counters["precision"] = quality.precision;
  state.counters["recall"] = quality.recall;
  state.counters["f1"] = quality.f1;
  state.counters["residual_errors"] = static_cast<double>(quality.residual_errors);
}
BENCHMARK(BM_RepairQualityVsNoise)->Arg(1)->Arg(2)->Arg(5)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semandaq

BENCHMARK_MAIN();
