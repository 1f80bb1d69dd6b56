// The code-columnar repair path: BatchRepair evaluates each round's
// candidate resolutions against the round-start state (any SIMD tier) and
// applies them in a canonical order — so the ENTIRE RepairResult (the
// change list with ranked alternatives and costs, and every counter) must
// be byte-identical across {scalar,sse2,avx2} on every relation shape: the
// paper walkthrough, generated customer/hospital workloads, empty input,
// NULL-heavy rows, and tombstoned tuples. The scalar reference must itself
// satisfy the repair post-conditions of the definition-level oracle (cfd_oracle.h).
// Also gates the facade loop end to end: repair -> ApplyRepair -> WAL ->
// reopen -> re-detect must land on the identical (clean) detection state.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "cfd_oracle.h"
#include "common/simd/simd.h"
#include "core/semandaq.h"
#include "relational/relation.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"
#include "test_util.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::repair {
namespace {

namespace simd = common::simd;
using relational::Relation;
using relational::Row;
using relational::TupleId;
using relational::Value;

const simd::Level kTiers[] = {simd::Level::kScalar, simd::Level::kSse2,
                              simd::Level::kAvx2};

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

std::string ValueStr(const Value& v) {
  return v.is_null() ? "<null>" : v.ToDisplayString();
}

/// The byte-identity surface: every field a caller can observe, costs at
/// full double precision. The change list is the plan; the repaired
/// relation is the input with it applied.
std::string RepairSignature(const RepairResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << "cost=" << r.total_cost << " iters=" << r.iterations
      << " remaining=" << r.remaining_violations
      << " null_escapes=" << r.null_escapes << "\n";
  for (const CellChange& ch : r.changes) {
    out << ch.tid << ":" << ch.col << " " << ValueStr(ch.original) << " -> "
        << ValueStr(ch.repaired) << " cost=" << ch.cost << " alts=[";
    for (const auto& [v, c] : ch.alternatives) {
      out << ValueStr(v) << "@" << c << ",";
    }
    out << "]\n";
  }
  return out.str();
}

common::Result<RepairResult> RunRepair(const Relation& rel,
                                       const std::string& cfd_text,
                                       simd::Level tier) {
  RepairOptions opts;
  opts.simd_level = tier;
  return BatchRepair(&rel, Parse(cfd_text), CostModel(rel.schema()), opts).Run();
}

/// Repairs `rel` under every tier and requires each signature to equal
/// the scalar reference, which must itself pass the oracle's repair
/// post-conditions.
void ExpectInvariantRepair(const Relation& rel, const std::string& cfds) {
  ASSERT_OK_AND_ASSIGN(RepairResult scalar, RunRepair(rel, cfds, simd::Level::kScalar));
  EXPECT_EQ("", oracle::RepairDiff(rel, Parse(cfds), scalar));
  const std::string reference = RepairSignature(scalar);
  for (simd::Level tier : kTiers) {
    ASSERT_OK_AND_ASSIGN(RepairResult result, RunRepair(rel, cfds, tier));
    EXPECT_EQ(reference, RepairSignature(result)) << "tier=" << static_cast<int>(tier);
  }
}

TEST(ParallelRepairTest, PaperCustomerIsModeInvariant) {
  ExpectInvariantRepair(semandaq::testing::PaperCustomerRelation(),
                        semandaq::testing::PaperCfdText());
}

TEST(ParallelRepairTest, GeneratedCustomerWorkloadIsModeInvariant) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 400;
  opts.noise_rate = 0.05;
  opts.seed = 9;
  auto wl = workload::CustomerGenerator::Generate(opts);
  ExpectInvariantRepair(wl.dirty, workload::CustomerGenerator::PaperCfds());
}

TEST(ParallelRepairTest, HospitalWorkloadIsModeInvariant) {
  workload::HospitalWorkloadOptions opts;
  opts.num_tuples = 300;
  opts.noise_rate = 0.08;
  opts.seed = 3;
  auto wl = workload::HospitalGenerator::Generate(opts);
  ExpectInvariantRepair(wl.dirty, workload::HospitalGenerator::HospitalCfds());
}

TEST(ParallelRepairTest, EmptyRelationIsModeInvariant) {
  const Relation empty = semandaq::testing::MakeStringRelation(
      "customer", {"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"}, {});
  ExpectInvariantRepair(empty, semandaq::testing::PaperCfdText());
  // And the repair itself must be a no-op.
  BatchRepair repair(&empty, Parse(semandaq::testing::PaperCfdText()),
                     CostModel(empty.schema()));
  auto result = repair.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->changes.empty());
  EXPECT_EQ(result->total_cost, 0.0);
}

TEST(ParallelRepairTest, NullHeavyRelationIsModeInvariant) {
  // NULLs in constant LHS positions exempt tuples from matching; NULL RHS
  // cells are unknown, not wrong; whole-row NULL tuples ride along.
  const Relation rel = semandaq::testing::MakeStringRelation(
      "customer", {"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"},
      {
          {"Mike", "UK", "Edinburgh", "EH2 4SD", "Mayfield Rd", "44", "131"},
          {"Rick", "UK", "Edinburgh", "EH2 4SD", "Crichton St", "44", "131"},
          {"Noz1", "UK", "", "EH2 4SD", "", "44", ""},
          {"Noz2", "", "Edinburgh", "EH2 4SD", "Infirmary St", "44", "131"},
          {"Noz3", "UK", "Edinburgh", "", "Lauriston Pl", "44", "131"},
          {"Eve", "US", "NewYork", "10011", "Broadway", "44", "212"},
          {"Gone", "", "", "", "", "", ""},
      });
  ExpectInvariantRepair(rel, semandaq::testing::PaperCfdText());
}

TEST(ParallelRepairTest, TombstonedRelationIsModeInvariant) {
  // Deleted tuples must be invisible to the encoded snapshot's liveness
  // mask and to the engine's IsLive filters.
  Relation rel = semandaq::testing::PaperCustomerRelation();
  const TupleId extra = rel.MustInsert(
      {Value::String("Zed"), Value::String("UK"), Value::String("Edinburgh"),
       Value::String("EH2 4SD"), Value::String("George Sq"), Value::String("44"),
       Value::String("131")});
  ASSERT_OK(rel.Delete(1));      // a member of the EH2 4SD group
  ASSERT_OK(rel.Delete(extra));  // the freshly inserted conflict
  ExpectInvariantRepair(rel, semandaq::testing::PaperCfdText());
}

// ---------------------------------------------------------------------------
// The full loop: repair -> apply -> WAL sidecar -> reopen -> re-detect.

TEST(ParallelRepairTest, RepairWalReopenRedetectRoundTrip) {
  const std::string path =
      std::string(::testing::TempDir()) + "parallel_repair_roundtrip.sdq";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  core::Semandaq sys;
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
  ASSERT_OK(
      sys.constraints().AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(auto saved, sys.SaveRelation("customer", path));
  (void)saved;

  ASSERT_OK_AND_ASSIGN(auto repair, sys.Clean("customer"));
  EXPECT_FALSE(repair.changes.empty());
  EXPECT_EQ(repair.remaining_violations, 0u);
  ASSERT_OK(sys.ApplyRepair("customer", repair));

  // The live relation is clean now...
  ASSERT_OK_AND_ASSIGN(auto live, sys.DetectErrors("customer"));
  EXPECT_EQ(live.TotalVio(), 0);

  // ...and so is the one replayed from snapshot + WAL in a fresh system.
  core::Semandaq other;
  ASSERT_OK_AND_ASSIGN(auto opened, other.OpenRelation("customer", path));
  (void)opened;
  ASSERT_OK(
      other.constraints().AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(auto reopened, other.DetectErrors("customer"));
  EXPECT_EQ(reopened.TotalVio(), 0);
  EXPECT_EQ(live.Summary(), reopened.Summary());

  // The replayed rows match the repaired ones cell for cell.
  const Relation* a = sys.database().FindRelation("customer");
  const Relation* b = other.database().FindRelation("customer");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->size(), b->size());
  a->ForEach([&](TupleId tid, const Row& row) {
    ASSERT_TRUE(b->IsLive(tid));
    const Row& rb = b->row(tid);
    ASSERT_EQ(row.size(), rb.size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c], rb[c]) << "#" << tid << ":" << c;
    }
  });

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace semandaq::repair
