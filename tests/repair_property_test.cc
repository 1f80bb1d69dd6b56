// Property tests for the cleanser: on randomized dirty instances, the
// repaired output must (a) satisfy the constraint set, (b) differ from the
// input only in the recorded change log, and (c) score sane precision/recall
// against the generator's gold standard.

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "detect/native_detector.h"
#include "repair/batch_repair.h"
#include "test_util.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"
#include "workload/quality.h"

namespace semandaq::repair {
namespace {

using relational::Relation;
using relational::Row;
using relational::TupleId;

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

struct Sweep {
  size_t tuples;
  double noise;
  uint64_t seed;
};

class RepairProperty : public ::testing::TestWithParam<Sweep> {};

TEST_P(RepairProperty, RepairedCustomerSatisfiesSigma) {
  const Sweep p = GetParam();
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = p.tuples;
  opts.noise_rate = p.noise;
  opts.seed = p.seed;
  auto wl = workload::CustomerGenerator::Generate(opts);
  auto cfds = Parse(workload::CustomerGenerator::PaperCfds());

  CostModel cm(wl.dirty.schema());
  BatchRepair repair(&wl.dirty, cfds, cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());

  // (a) Consistency restored.
  const Relation repaired = semandaq::testing::Repaired(wl.dirty, result);
  detect::NativeDetector detector(&repaired, cfds);
  ASSERT_OK_AND_ASSIGN(auto table, detector.Detect());
  EXPECT_EQ(table.TotalVio(), 0) << "repair left violations";
  EXPECT_EQ(result.remaining_violations, 0u);

  // (b) The change log is exactly the diff dirty -> repaired.
  size_t diff_cells = 0;
  wl.dirty.ForEach([&](TupleId tid, const Row& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (!(row[c] == repaired.cell(tid, c))) ++diff_cells;
    }
  });
  EXPECT_EQ(diff_cells, result.changes.size());
  for (const CellChange& ch : result.changes) {
    EXPECT_EQ(ch.original, wl.dirty.cell(ch.tid, ch.col));
    EXPECT_EQ(ch.repaired, repaired.cell(ch.tid, ch.col));
    EXPECT_NE(ch.original, ch.repaired);
  }

  // (c) Quality metrics are well-formed.
  auto quality = workload::EvaluateRepair(wl.clean, wl.dirty, repaired);
  EXPECT_GE(quality.precision, 0.0);
  EXPECT_LE(quality.precision, 1.0);
  EXPECT_GE(quality.recall, 0.0);
  EXPECT_LE(quality.recall, 1.0);
  EXPECT_EQ(quality.error_cells, wl.injected.size());
}

TEST_P(RepairProperty, RepairedHospitalSatisfiesSigma) {
  const Sweep p = GetParam();
  workload::HospitalWorkloadOptions opts;
  opts.num_tuples = p.tuples;
  opts.noise_rate = p.noise;
  opts.seed = p.seed;
  auto wl = workload::HospitalGenerator::Generate(opts);
  auto cfds = Parse(workload::HospitalGenerator::HospitalCfds());

  CostModel cm(wl.dirty.schema());
  BatchRepair repair(&wl.dirty, cfds, cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());

  const Relation repaired = semandaq::testing::Repaired(wl.dirty, result);
  detect::NativeDetector detector(&repaired, cfds);
  ASSERT_OK_AND_ASSIGN(auto table, detector.Detect());
  EXPECT_EQ(table.TotalVio(), 0);
}

TEST_P(RepairProperty, CostNeverNegativeAndMatchesChanges) {
  const Sweep p = GetParam();
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = p.tuples;
  opts.noise_rate = p.noise;
  opts.seed = p.seed + 1000;
  auto wl = workload::CustomerGenerator::Generate(opts);
  auto cfds = Parse(workload::CustomerGenerator::PaperCfds());

  CostModel cm(wl.dirty.schema());
  BatchRepair repair(&wl.dirty, cfds, cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());

  double recomputed = 0;
  for (const CellChange& ch : result.changes) {
    EXPECT_GE(ch.cost, 0.0);
    recomputed += ch.cost;
  }
  EXPECT_NEAR(recomputed, result.total_cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RepairProperty,
    ::testing::Values(Sweep{100, 0.02, 11}, Sweep{100, 0.1, 12},
                      Sweep{300, 0.05, 13}, Sweep{300, 0.15, 14},
                      Sweep{600, 0.08, 15}),
    [](const ::testing::TestParamInfo<Sweep>& info) {
      return "n" + std::to_string(info.param.tuples) + "_noise" +
             std::to_string(static_cast<int>(info.param.noise * 100)) + "_seed" +
             std::to_string(info.param.seed);
    });

// The headline quality claim of [VLDB'07]: at moderate noise the repair
// recovers most injected errors with high precision. Scoped to one seed so
// the assertion stays deterministic.
TEST(RepairQualityHeadline, ModerateNoiseHighQuality) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 2000;
  opts.noise_rate = 0.05;
  opts.seed = 77;
  auto wl = workload::CustomerGenerator::Generate(opts);
  auto cfds = Parse(workload::CustomerGenerator::PaperCfds());
  CostModel cm(wl.dirty.schema());
  BatchRepair repair(&wl.dirty, cfds, cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());
  auto q = workload::EvaluateRepair(wl.clean, wl.dirty,
                                    semandaq::testing::Repaired(wl.dirty, result));
  // Not every injected error is even *detectable* (e.g. a NAME typo), so
  // recall is bounded away from 1; the detectable majority should be fixed.
  EXPECT_GT(q.recall, 0.35) << q.ToString();
  EXPECT_GT(q.precision, 0.5) << q.ToString();
}

}  // namespace
}  // namespace semandaq::repair
