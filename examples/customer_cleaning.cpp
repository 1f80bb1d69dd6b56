// The full demonstration walkthrough of the paper's Section 3 on a
// generated customer workload: specify Σ, validate it, detect errors (both
// the native and the SQL-based detector), audit the data quality (Fig. 4),
// render the quality map (Fig. 3), explore a dirty zip group (Fig. 2),
// clean, and review the candidate repair (Fig. 5) — measuring repair
// quality against the generator's gold standard.
//
// Build & run:  ./build/examples/customer_cleaning

#include <cstdio>

#include "audit/render.h"
#include "core/semandaq.h"
#include "workload/customer_gen.h"
#include "workload/quality.h"

int main() {
  using semandaq::workload::CustomerGenerator;

  semandaq::workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 500;
  opts.noise_rate = 0.06;
  opts.seed = 1460;  // the paper's first page number
  auto wl = CustomerGenerator::Generate(opts);
  std::printf("generated %zu customer tuples, %zu cells corrupted\n\n",
              wl.dirty.size(), wl.injected.size());

  semandaq::core::Semandaq sys;
  if (!sys.Connect(wl.dirty.Clone()).ok()) return 1;
  if (!sys.constraints().AddCfdsFromText(CustomerGenerator::PaperCfds()).ok()) {
    return 1;
  }

  // --- constraint validation -------------------------------------------
  auto sat = sys.constraints().Validate("customer");
  if (!sat.ok()) return 1;
  std::printf("Sigma (%zu CFDs) satisfiable: %s\n\n", sys.constraints().size(),
              sat->satisfiable ? "yes" : "NO");

  // --- error detection, both code paths --------------------------------
  auto native = sys.DetectErrors("customer");
  auto sql = sys.DetectErrors("customer",
                              semandaq::core::Semandaq::DetectorKind::kSql);
  if (!native.ok() || !sql.ok()) return 1;
  std::printf("native detector: %s\n", native->Summary().c_str());
  std::printf("SQL detector:    %s\n", sql->Summary().c_str());
  std::printf("agreement: %s\n\n",
              native->TotalVio() == sql->TotalVio() ? "identical" : "MISMATCH");

  // --- data quality report (Fig. 4) -------------------------------------
  auto report = sys.Report("customer");
  if (!report.ok()) return 1;
  std::printf("%s\n", semandaq::audit::AsciiRender::BarChart(*report).c_str());
  std::printf("%s\n", semandaq::audit::AsciiRender::PieChart(*report).c_str());

  // --- quality map excerpt (Fig. 3) --------------------------------------
  auto map = sys.QualityMap("customer", 12);
  if (map.ok()) std::printf("%s\n", map->c_str());

  // --- exploration (Fig. 2): drill into the dirtiest UK zip --------------
  auto explorer = sys.Explore("customer");
  if (explorer.ok()) {
    auto matches = (*explorer)->LhsMatches(1, 0);  // phi2 = CFD #1, pattern 0
    if (matches.ok() && !matches->empty()) {
      const auto& worst = matches->front();
      std::printf("dirtiest UK zip group: %s with %zu tuple(s), %zu street(s), vio %lld\n\n",
                  semandaq::relational::RowToString(worst.lhs).c_str(),
                  worst.tuple_count, worst.distinct_rhs,
                  static_cast<long long>(worst.violation_count));
    }
  }

  // --- cleansing + review (Fig. 5) ---------------------------------------
  auto repair = sys.Clean("customer");
  if (!repair.ok()) return 1;
  std::printf("repair: %zu cell(s) changed, cost %.2f, %d round(s), %zu NULL escape(s)\n",
              repair->changes.size(), repair->total_cost, repair->iterations,
              repair->null_escapes);

  semandaq::relational::Relation repaired = wl.dirty.Clone();
  if (!semandaq::repair::ApplyChanges(repair->changes, &repaired).ok()) return 1;
  auto quality = semandaq::workload::EvaluateRepair(wl.clean, wl.dirty, repaired);
  std::printf("repair quality: %s\n\n", quality.ToString().c_str());

  auto review = sys.Review("customer", *repair);
  if (review.ok()) {
    std::printf("%s\n", (*review)->RenderDiff(10).c_str());
  }

  if (!sys.ApplyRepair("customer", *repair).ok()) return 1;
  auto after = sys.DetectErrors("customer");
  std::printf("after applying the repair: %s\n",
              after.ok() ? after->Summary().c_str() : "error");
  return 0;
}
