// FIG-5 — "Data Cleansing Review": regenerates the paper's review screen on
// a 40-tuple / 10%-noise customer instance: the candidate repair with
// modified cells highlighted as [old -> new], the ranked alternatives per
// cell (the pop-up of Fig. 5), and the background incremental detection a
// user override triggers.

#include <cstdio>

#include "cfd/cfd_parser.h"
#include "repair/batch_repair.h"
#include "repair/repair_review.h"
#include "workload/customer_gen.h"
#include "workload/quality.h"

int main() {
  using semandaq::workload::CustomerGenerator;

  std::printf("=== Figure 5: Data Cleansing Review ===\n\n");

  semandaq::workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 40;
  opts.noise_rate = 0.10;
  opts.seed = 2008;
  auto wl = CustomerGenerator::Generate(opts);

  auto cfds_or = semandaq::cfd::ParseCfdSet(CustomerGenerator::PaperCfds());
  if (!cfds_or.ok()) return 1;
  auto cfds = std::move(*cfds_or);

  semandaq::repair::CostModel cm(wl.dirty.schema());
  semandaq::repair::BatchRepair repair(&wl.dirty, cfds, cm);
  auto result = repair.Run();
  if (!result.ok()) {
    std::printf("repair failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  semandaq::repair::RepairReview review(&wl.dirty, std::move(*result), cfds);
  if (!review.Start().ok()) return 1;
  // Scored before any override: the review owns the input with the plan
  // applied.
  auto quality =
      semandaq::workload::EvaluateRepair(wl.clean, wl.dirty, review.repaired());

  std::printf("%s\n", review.RenderDiff(40).c_str());

  std::printf("ranked alternatives per modified cell (pop-up of Fig. 5):\n");
  for (const auto& ch : review.changes()) {
    if (ch.alternatives.empty()) continue;
    std::printf("  tuple #%lld %s:", static_cast<long long>(ch.tid),
                wl.dirty.schema().attr(ch.col).name.c_str());
    for (const auto& [v, cost] : ch.alternatives) {
      std::printf("  %s (cost %.3f)", v.ToDisplayString().c_str(), cost);
    }
    std::printf("\n");
  }

  std::printf("\nrepair quality vs. gold standard: %s\n", quality.ToString().c_str());

  // A user override that re-introduces a conflict triggers background
  // incremental detection (third bullet of the demo's Fig. 5 scenario).
  if (!review.changes().empty()) {
    const auto& ch = review.changes().front();
    auto fresh = review.OverrideCell(ch.tid, ch.col, ch.original);
    if (fresh.ok()) {
      std::printf("\noverride of tuple #%lld back to '%s' -> %zu newly conflicting tuple(s):",
                  static_cast<long long>(ch.tid),
                  ch.original.ToDisplayString().c_str(), fresh->size());
      for (auto tid : *fresh) std::printf(" #%lld", static_cast<long long>(tid));
      std::printf("\n");
    }
  }
  return 0;
}
