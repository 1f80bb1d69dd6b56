#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "detect/native_detector.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"
#include "repair/inc_repair.h"
#include "repair/repair_review.h"
#include "test_util.h"

namespace semandaq::repair {
namespace {

using relational::Relation;
using relational::Schema;
using relational::TupleId;
using relational::Update;
using relational::Value;
using semandaq::testing::Repaired;

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

size_t CountViolations(const Relation& rel, const std::string& cfd_text) {
  detect::NativeDetector detector(&rel, Parse(cfd_text));
  auto table = detector.Detect();
  EXPECT_TRUE(table.ok());
  return table.ok() ? static_cast<size_t>(table->TotalVio()) : 999999;
}

// -------------------------------------------------------------- CostModel --

TEST(CostModelTest, EqualValuesAreFree) {
  CostModel cm(Schema::AllStrings({"A"}));
  EXPECT_DOUBLE_EQ(cm.CellChangeCost(0, Value::String("x"), Value::String("x")), 0.0);
}

TEST(CostModelTest, StringCostIsNormalizedEditDistance) {
  CostModel cm(Schema::AllStrings({"A"}));
  const double near = cm.CellChangeCost(0, Value::String("London"),
                                        Value::String("Londom"));
  const double far = cm.CellChangeCost(0, Value::String("London"),
                                       Value::String("Edinburgh"));
  EXPECT_LT(near, far);
  EXPECT_LE(far, 1.0);
}

TEST(CostModelTest, WeightsScaleCost) {
  CostModelOptions opts;
  opts.attr_weights = {2.0, 0.5};
  CostModel cm(Schema::AllStrings({"A", "B"}), opts);
  const double a = cm.CellChangeCost(0, Value::String("x"), Value::String("y"));
  const double b = cm.CellChangeCost(1, Value::String("x"), Value::String("y"));
  EXPECT_DOUBLE_EQ(a, 4 * b);
}

TEST(CostModelTest, NullEscapeIsSurcharged) {
  CostModel cm(Schema::AllStrings({"A"}));
  const double to_null = cm.CellChangeCost(0, Value::String("x"), Value::Null());
  const double to_other = cm.CellChangeCost(0, Value::String("x"), Value::String("completely_different"));
  EXPECT_GT(to_null, to_other - 1e-9);
}

// ------------------------------------------------------------ BatchRepair --

TEST(BatchRepairTest, FixesConstantViolationToRhsConstant) {
  // Eve: CC=44 but CNT=US. The cheapest fix is CNT := UK.
  Relation rel = semandaq::testing::PaperCustomerRelation();
  CostModel cm(rel.schema());
  BatchRepair repair(&rel, Parse(semandaq::testing::PaperCfdText()), cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());

  EXPECT_EQ(result.remaining_violations, 0u);
  EXPECT_EQ(CountViolations(Repaired(rel, result), semandaq::testing::PaperCfdText()),
            0u);
  // Original relation untouched.
  EXPECT_EQ(rel.cell(6, 1).AsString(), "US");
  EXPECT_GT(result.changes.size(), 0u);
  EXPECT_GT(result.total_cost, 0.0);
}

TEST(BatchRepairTest, GroupRepairPicksMajorityValue) {
  // Streets {Mayfield Rd, Crichton St, Mayfield Rd}: majority is cheapest.
  Relation rel = semandaq::testing::PaperCustomerRelation();
  CostModel cm(rel.schema());
  BatchRepair repair(&rel, Parse(semandaq::testing::PaperCfdText()), cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());
  const Relation repaired = Repaired(rel, result);
  EXPECT_EQ(repaired.cell(1, 4).AsString(), "Mayfield Rd");
  EXPECT_EQ(repaired.cell(0, 4).AsString(), "Mayfield Rd");
}

TEST(BatchRepairTest, CleanInstanceIsNoOp) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "customer", {"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"},
      {{"A", "UK", "Edi", "EH1", "HighSt", "44", "131"}});
  CostModel cm(rel.schema());
  BatchRepair repair(&rel, Parse(semandaq::testing::PaperCfdText()), cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());
  EXPECT_TRUE(result.changes.empty());
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
  EXPECT_EQ(result.iterations, 0);
}

TEST(BatchRepairTest, RecordsRankedAlternatives) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  CostModel cm(rel.schema());
  BatchRepair repair(&rel, Parse(semandaq::testing::PaperCfdText()), cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());
  bool found_alternatives = false;
  for (const CellChange& ch : result.changes) {
    if (ch.alternatives.size() >= 2) {
      found_alternatives = true;
      // Ranked ascending by cost.
      for (size_t i = 1; i < ch.alternatives.size(); ++i) {
        EXPECT_LE(ch.alternatives[i - 1].second, ch.alternatives[i].second);
      }
    }
  }
  EXPECT_TRUE(found_alternatives);
}

TEST(BatchRepairTest, AttributeWeightsSteerRepairs) {
  // A=1 pairs with B in {x, y}; with B heavily weighted, the cleanser should
  // prefer editing A (the LHS escape) over rewriting B values.
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"1", "x"}, {"1", "y"}});
  CostModelOptions opts;
  opts.attr_weights = {0.01, 100.0};
  CostModel cm(rel.schema(), opts);
  BatchRepair repair(&rel, Parse("t: [A] -> [B]"), cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());
  const Relation repaired = Repaired(rel, result);
  EXPECT_EQ(CountViolations(repaired, "t: [A] -> [B]"), 0u);
  // B cells untouched.
  EXPECT_EQ(repaired.cell(0, 1).AsString(), "x");
  EXPECT_EQ(repaired.cell(1, 1).AsString(), "y");
}

TEST(BatchRepairTest, UnsatisfiableConstantsEscapeToNull) {
  // Two wildcard-guarded constant CFDs force B to be both 1 and 2: the only
  // way out is the NULL escape, and the result is violation-free because
  // NULL cells are unknown-not-wrong.
  Relation rel = semandaq::testing::MakeStringRelation("t", {"A", "B"},
                                                       {{"a", "1"}});
  CostModel cm(rel.schema());
  BatchRepair repair(&rel, Parse("t: [A=_] -> [B=1]\nt: [A=_] -> [B=2]"), cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());
  EXPECT_EQ(result.remaining_violations, 0u);
  EXPECT_GT(result.null_escapes, 0u);
}

// -------------------------------------------------------------- IncRepair --

TEST(IncRepairTest, RepairsOnlyTheDelta) {
  // Clean base: two tuples agreeing on street.
  const Relation rel = semandaq::testing::MakeStringRelation(
      "customer", {"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"},
      {{"A", "UK", "Edi", "EH1", "HighSt", "44", "131"},
       {"B", "UK", "Edi", "EH1", "HighSt", "44", "131"}});
  auto cfds = Parse(semandaq::testing::PaperCfdText());
  CostModel cm(rel.schema());
  Relation updated = rel.Clone();
  IncRepairEngine engine(&updated, cfds, cm);
  ASSERT_OK(engine.Start());

  // Dirty insert: wrong street for the same UK zip.
  relational::UpdateBatch batch = {Update::Insert(
      {Value::String("C"), Value::String("UK"), Value::String("Edi"),
       Value::String("EH1"), Value::String("WrongSt"), Value::String("44"),
       Value::String("131")})};
  ASSERT_OK_AND_ASSIGN(IncBatchResult result, engine.ApplyAndRepair(batch));

  EXPECT_EQ(result.remaining_violations, 0u);
  // The new tuple adopted the established street; base data untouched.
  EXPECT_EQ(updated.cell(2, 4).AsString(), "HighSt");
  EXPECT_EQ(updated.cell(0, 4).AsString(), "HighSt");
  EXPECT_EQ(result.delta_tids, (std::vector<TupleId>{2}));
}

TEST(IncRepairTest, ModifiedTuplesAreMutable) {
  const Relation rel = semandaq::testing::MakeStringRelation(
      "customer", {"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"},
      {{"A", "UK", "Edi", "EH1", "HighSt", "44", "131"},
       {"B", "UK", "Edi", "EH1", "HighSt", "44", "131"}});
  auto cfds = Parse(semandaq::testing::PaperCfdText());
  CostModel cm(rel.schema());
  Relation updated = rel.Clone();
  IncRepairEngine engine(&updated, cfds, cm);
  ASSERT_OK(engine.Start());
  relational::UpdateBatch batch = {Update::Modify(1, 4, Value::String("Oops"))};
  ASSERT_OK_AND_ASSIGN(IncBatchResult result, engine.ApplyAndRepair(batch));
  EXPECT_EQ(result.remaining_violations, 0u);
  EXPECT_EQ(updated.cell(1, 4).AsString(), "HighSt");
}

// ----------------------------------------------------------- RepairReview --

TEST(RepairReviewTest, DiffHighlightsChanges) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  CostModel cm(rel.schema());
  auto cfds = Parse(semandaq::testing::PaperCfdText());
  BatchRepair repair(&rel, cfds, cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());

  const Relation repaired = Repaired(rel, result);
  RepairReview review(&rel, std::move(result), cfds);
  ASSERT_OK(review.Start());
  // The review owns the original with the plan applied.
  EXPECT_EQ(review.repaired().cell(1, 4), repaired.cell(1, 4));
  EXPECT_EQ(review.repaired().cell(6, 1), repaired.cell(6, 1));
  const std::string diff = review.RenderDiff();
  EXPECT_NE(diff.find("->"), std::string::npos);
  EXPECT_NE(diff.find("modified cell(s)"), std::string::npos);
}

TEST(RepairReviewTest, OverrideTriggersIncrementalDetection) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  CostModel cm(rel.schema());
  auto cfds = Parse(semandaq::testing::PaperCfdText());
  BatchRepair repair(&rel, cfds, cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());

  RepairReview review(&rel, std::move(result), cfds);
  ASSERT_OK(review.Start());
  // Override Rick's repaired street back to a conflicting value: the
  // incremental detector must flag the EH2 4SD group again.
  ASSERT_OK_AND_ASSIGN(auto fresh,
                       review.OverrideCell(1, 4, Value::String("Crichton St")));
  EXPECT_FALSE(fresh.empty());
  // The change log follows the override.
  const CellChange* ch = review.FindChange(1, 4);
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->repaired, Value::String("Crichton St"));
}

TEST(RepairReviewTest, SafeOverrideReturnsNoConflicts) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  CostModel cm(rel.schema());
  auto cfds = Parse(semandaq::testing::PaperCfdText());
  BatchRepair repair(&rel, cfds, cm);
  ASSERT_OK_AND_ASSIGN(RepairResult result, repair.Run());
  RepairReview review(&rel, std::move(result), cfds);
  ASSERT_OK(review.Start());
  // Renaming a customer violates nothing.
  ASSERT_OK_AND_ASSIGN(auto fresh, review.OverrideCell(0, 0, Value::String("Mike2")));
  EXPECT_TRUE(fresh.empty());
}

TEST(RepairReviewTest, RequiresStart) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  RepairReview review(&rel, RepairResult{}, {});
  EXPECT_FALSE(review.OverrideCell(0, 0, Value::String("x")).ok());
}

}  // namespace
}  // namespace semandaq::repair
