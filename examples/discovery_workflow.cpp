// Constraint discovery workflow (paper §2, Constraint Engine: constraints
// "automatically discovered from reference data"): mine CFDs from a clean
// hospital reference feed, cross-validate them on a *second* reference
// sample to weed out coincidences (a levelwise miner will always overfit a
// finite sample), validate the surviving set, then use it to detect and
// repair errors in a dirty feed of the same domain.
//
// Build & run:  ./build/examples/discovery_workflow

#include <cstdio>

#include "core/semandaq.h"
#include "detect/native_detector.h"
#include "workload/hospital_gen.h"
#include "workload/quality.h"

int main() {
  using semandaq::workload::HospitalGenerator;

  // Two independent clean reference samples, one dirty target feed.
  semandaq::workload::HospitalWorkloadOptions ref_opts;
  ref_opts.num_tuples = 400;
  ref_opts.noise_rate = 0.0;
  ref_opts.seed = 1;
  auto reference = HospitalGenerator::Generate(ref_opts);

  semandaq::workload::HospitalWorkloadOptions holdout_opts = ref_opts;
  holdout_opts.seed = 3;
  auto holdout = HospitalGenerator::Generate(holdout_opts);

  semandaq::workload::HospitalWorkloadOptions tgt_opts;
  tgt_opts.num_tuples = 400;
  tgt_opts.noise_rate = 0.06;
  tgt_opts.seed = 2;
  auto target = HospitalGenerator::Generate(tgt_opts);

  semandaq::core::Semandaq sys;
  reference.clean.set_name("hospital");
  if (!sys.Connect(std::move(reference.clean)).ok()) return 1;

  // ---- mine -------------------------------------------------------------
  semandaq::discovery::CfdMinerOptions mopts;
  mopts.max_lhs = 2;
  mopts.min_support = 5;
  auto added = sys.constraints().DiscoverFrom("hospital", mopts);
  if (!added.ok()) {
    std::printf("discovery failed: %s\n", added.status().ToString().c_str());
    return 1;
  }
  std::printf("mined %zu candidate CFD(s) from reference sample A\n", *added);

  // ---- cross-validate on the holdout sample -----------------------------
  // A mined CFD that is a real domain rule holds on any clean sample; a
  // sampling coincidence (e.g. a provider that happens to report one
  // measure in sample A) does not survive sample B.
  holdout.clean.set_name("hospital");
  std::vector<semandaq::cfd::Cfd> confirmed;
  for (const auto& cfd : sys.constraints().cfds()) {
    semandaq::detect::NativeDetector probe(&holdout.clean, {cfd});
    auto table = probe.Detect();
    if (table.ok() && table->TotalVio() == 0) confirmed.push_back(cfd);
  }
  std::printf("cross-validation kept %zu of %zu CFD(s)\n", confirmed.size(),
              sys.constraints().size());
  sys.constraints().Clear();
  for (auto& cfd : confirmed) {
    if (!sys.constraints().AddCfd(std::move(cfd)).ok()) return 1;
  }
  const size_t pruned = sys.constraints().PruneRedundant();
  std::printf("subsumption pruning removed %zu redundant CFD(s); final set:\n",
              pruned);
  size_t shown = 0;
  for (const auto& cfd : sys.constraints().cfds()) {
    if (shown++ >= 12) {
      std::printf("  ... and %zu more\n", sys.constraints().size() - 12);
      break;
    }
    std::printf("  %s\n", cfd.ToString().c_str());
  }

  // ---- validate -----------------------------------------------------------
  auto sat = sys.constraints().Validate("hospital");
  if (!sat.ok()) return 1;
  std::printf("\nmined constraint set satisfiable: %s\n\n",
              sat->satisfiable ? "yes" : "NO");

  // ---- apply to the dirty feed -------------------------------------------
  sys.database().PutRelation(std::move(target.dirty));
  auto violations = sys.DetectErrors("hospital");
  if (!violations.ok()) return 1;
  std::printf("dirty feed: %s\n", violations->Summary().c_str());

  auto repair = sys.Clean("hospital");
  if (!repair.ok()) return 1;
  std::printf("repair: %zu cell(s) changed, cost %.2f\n", repair->changes.size(),
              repair->total_cost);

  const semandaq::relational::Relation& dirty =
      *sys.database().GetRelation("hospital").value();
  semandaq::relational::Relation repaired = dirty.Clone();
  if (!semandaq::repair::ApplyChanges(repair->changes, &repaired).ok()) return 1;
  auto quality = semandaq::workload::EvaluateRepair(target.clean, dirty, repaired);
  std::printf("repair quality vs gold: %s\n", quality.ToString().c_str());

  if (!sys.ApplyRepair("hospital", *repair).ok()) return 1;
  auto after = sys.DetectErrors("hospital");
  std::printf("after repair: %s\n", after.ok() ? after->Summary().c_str() : "error");
  return 0;
}
