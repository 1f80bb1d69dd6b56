// Ablation study of the data cleanser's design choices (DESIGN.md §5):
// on a fixed dirty customer instance, toggle (a) LHS repairs, (b) the NULL
// escape surcharge, and (c) attribute weighting, and report the effect on
// repair quality (precision/recall vs. gold) and cost. This quantifies why
// the VLDB'07 cost model is configured the way it is.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "repair/batch_repair.h"
#include "workload/quality.h"

namespace semandaq {
namespace {

constexpr size_t kTuples = 4000;
constexpr double kNoise = 0.05;

void RunRepair(benchmark::State& state, const repair::RepairOptions& opts,
               const repair::CostModelOptions& cost_opts) {
  const auto& wl = bench::CachedCustomer(kTuples, kNoise, /*seed=*/13);
  const auto cfds = bench::MustParseCfds(workload::CustomerGenerator::PaperCfds());
  repair::CostModel cm(wl.dirty.schema(), cost_opts);

  std::vector<repair::CellChange> plan;
  double cost = 0;
  size_t escapes = 0;
  for (auto _ : state) {
    repair::BatchRepair repair(&wl.dirty, cfds, cm, opts);
    auto result = repair.Run();
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      cost = result->total_cost;
      escapes = result->null_escapes;
      plan = std::move(result->changes);
    }
  }
  // Quality of the last plan, scored on the input with it applied (untimed).
  relational::Relation repaired = wl.dirty.Clone();
  if (!repair::ApplyChanges(plan, &repaired).ok()) state.SkipWithError("apply");
  const workload::RepairQuality quality =
      workload::EvaluateRepair(wl.clean, wl.dirty, repaired);
  state.counters["precision"] = quality.precision;
  state.counters["recall"] = quality.recall;
  state.counters["damaged"] = static_cast<double>(quality.damaged);
  state.counters["repair_cost"] = cost;
  state.counters["null_escapes"] = static_cast<double>(escapes);
}

void BM_Baseline(benchmark::State& state) {
  RunRepair(state, {}, {});
}
BENCHMARK(BM_Baseline)->Unit(benchmark::kMillisecond);

void BM_NoLhsRepairs(benchmark::State& state) {
  repair::RepairOptions opts;
  opts.enable_lhs_repairs = false;
  RunRepair(state, opts, {});
}
BENCHMARK(BM_NoLhsRepairs)->Unit(benchmark::kMillisecond);

void BM_CheapNullEscape(benchmark::State& state) {
  // null_penalty 0.1 makes "don't know" cheaper than any constant repair:
  // the cleanser should lean on NULLs, trading recall away.
  repair::CostModelOptions cost_opts;
  cost_opts.null_penalty = 0.1;
  RunRepair(state, {}, cost_opts);
}
BENCHMARK(BM_CheapNullEscape)->Unit(benchmark::kMillisecond);

void BM_FewIterations(benchmark::State& state) {
  repair::RepairOptions opts;
  opts.max_iterations = 1;
  RunRepair(state, opts, {});
}
BENCHMARK(BM_FewIterations)->Unit(benchmark::kMillisecond);

void BM_TrustedKeyAttributes(benchmark::State& state) {
  // Weight CC and ZIP (the identifying attributes) as highly trusted:
  // repairs shift toward the dependent attributes.
  repair::CostModelOptions cost_opts;
  cost_opts.attr_weights = {1.0, 1.0, 1.0, 5.0, 1.0, 5.0, 1.0};
  RunRepair(state, {}, cost_opts);
}
BENCHMARK(BM_TrustedKeyAttributes)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semandaq

BENCHMARK_MAIN();
