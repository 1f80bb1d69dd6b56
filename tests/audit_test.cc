#include <gtest/gtest.h>

#include "audit/metrics.h"
#include "audit/render.h"
#include "audit/report.h"
#include "cfd/cfd_parser.h"
#include "detect/native_detector.h"
#include "test_util.h"

namespace semandaq::audit {
namespace {

using relational::Relation;
using relational::TupleId;

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

AuditOutcome AuditOf(const Relation& rel, const std::string& cfd_text) {
  auto cfds = Parse(cfd_text);
  detect::NativeDetector detector(&rel, cfds);
  auto table = detector.Detect();
  EXPECT_TRUE(table.ok());
  DataAuditor auditor(&rel, cfds);
  auto outcome = auditor.Audit(*table);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return std::move(*outcome);
}

TEST(AuditTest, GradeNamesAreStable) {
  EXPECT_STREQ(CleanGradeToString(CleanGrade::kDirty), "dirty");
  EXPECT_STREQ(CleanGradeToString(CleanGrade::kArguablyClean), "arguably clean");
  EXPECT_STREQ(CleanGradeToString(CleanGrade::kProbablyClean), "probably clean");
  EXPECT_STREQ(CleanGradeToString(CleanGrade::kVerifiedClean), "verified clean");
}

TEST(AuditTest, PaperExampleTupleGrades) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  AuditOutcome outcome = AuditOf(rel, semandaq::testing::PaperCfdText());

  // Eve (6) is a single-tuple violator: dirty.
  EXPECT_EQ(outcome.GradeOf(6), CleanGrade::kDirty);
  // Mike (0) and Joe (2) are in the multi-tuple group but the bulk (2 of 3)
  // agrees with them: arguably clean.
  EXPECT_EQ(outcome.GradeOf(0), CleanGrade::kArguablyClean);
  EXPECT_EQ(outcome.GradeOf(2), CleanGrade::kArguablyClean);
  // Rick (1) is the minority: dirty.
  EXPECT_EQ(outcome.GradeOf(1), CleanGrade::kDirty);
  // Mary (3) violates nothing but no constant-RHS CFD confirms her
  // (CC=44 applies... it does! CC=44 matches and CNT=UK holds): verified.
  EXPECT_EQ(outcome.GradeOf(3), CleanGrade::kVerifiedClean);
  // Anna (4): CC=31, no constant pattern applies: probably clean.
  EXPECT_EQ(outcome.GradeOf(4), CleanGrade::kProbablyClean);
  // Bob (5): CC=1, no constant applies: probably clean.
  EXPECT_EQ(outcome.GradeOf(5), CleanGrade::kProbablyClean);

  EXPECT_EQ(outcome.tuple_counts[static_cast<size_t>(CleanGrade::kDirty)], 2);
  EXPECT_EQ(outcome.tuple_counts[static_cast<size_t>(CleanGrade::kArguablyClean)], 2);
  EXPECT_EQ(outcome.tuple_counts[static_cast<size_t>(CleanGrade::kProbablyClean)], 2);
  EXPECT_EQ(outcome.tuple_counts[static_cast<size_t>(CleanGrade::kVerifiedClean)], 1);
}

TEST(AuditTest, ViolationCompositionPie) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  AuditOutcome outcome = AuditOf(rel, semandaq::testing::PaperCfdText());
  EXPECT_EQ(outcome.tuples_clean, 3u);        // Mary, Anna, Bob
  EXPECT_EQ(outcome.tuples_single_only, 1u);  // Eve
  EXPECT_EQ(outcome.tuples_multi_only, 3u);   // Mike, Rick, Joe
  EXPECT_EQ(outcome.tuples_both, 0u);
}

TEST(AuditTest, VioDistributionStats) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  AuditOutcome outcome = AuditOf(rel, semandaq::testing::PaperCfdText());
  // vio: Mike 1, Rick 2, Joe 1, Eve 1 -> total 5, max 2, min 1.
  EXPECT_EQ(outcome.total_vio, 5);
  EXPECT_EQ(outcome.max_vio, 2);
  EXPECT_EQ(outcome.min_vio_nonzero, 1);
  EXPECT_NEAR(outcome.avg_vio_violating, 5.0 / 4.0, 1e-9);
  EXPECT_EQ(outcome.num_groups, 1u);
  EXPECT_EQ(outcome.max_group_size, 3u);
}

TEST(AuditTest, AttributeLevelStats) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  AuditOutcome outcome = AuditOf(rel, semandaq::testing::PaperCfdText());
  ASSERT_EQ(outcome.attr_stats.size(), 7u);
  // STR (col 4) carries the multi-tuple violation: some cells not probably
  // clean.
  const AttributeStats& str_stats = outcome.attr_stats[4];
  EXPECT_LT(str_stats.pct_probably(), 100.0);
  // NAME (col 0) is never implicated: all cells at least probably clean.
  const AttributeStats& name_stats = outcome.attr_stats[0];
  EXPECT_DOUBLE_EQ(name_stats.pct_probably(), 100.0);
  // Cumulative nesting always holds.
  for (const AttributeStats& s : outcome.attr_stats) {
    EXPECT_LE(s.pct_verified(), s.pct_probably() + 1e-9);
    EXPECT_LE(s.pct_probably(), s.pct_arguably() + 1e-9);
  }
}

TEST(AuditTest, CleanInstanceAllProbablyOrBetter) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "customer", {"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"},
      {{"A", "UK", "Edi", "EH1", "HighSt", "44", "131"}});
  AuditOutcome outcome = AuditOf(rel, semandaq::testing::PaperCfdText());
  EXPECT_EQ(outcome.GradeOf(0), CleanGrade::kVerifiedClean);
  EXPECT_EQ(outcome.total_vio, 0);
}

TEST(AuditTest, CellInTwoGroupsIsDirtyWhereItIsTheMinority) {
  // Tuple 0's C cell holds the majority of the A=a1 group (x, x, y) but is
  // the minority x of the B=b1 group (x, z, z): dirty, like its tuple.
  const Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C"},
      {{"a1", "b1", "x"},
       {"a1", "b2", "x"},
       {"a1", "b3", "y"},
       {"a2", "b1", "z"},
       {"a3", "b1", "z"}});
  const AuditOutcome outcome = AuditOf(rel, "t: [A] -> [C]\nt: [B] -> [C]\n");
  EXPECT_EQ(outcome.GradeOf(0), CleanGrade::kDirty);
  const AttributeStats& c = outcome.attr_stats[2];
  EXPECT_EQ(c.counts[static_cast<size_t>(CleanGrade::kDirty)], 2);  // tuples 0, 2
  EXPECT_EQ(c.counts[static_cast<size_t>(CleanGrade::kArguablyClean)], 3);
  EXPECT_NEAR(c.pct_arguably(), 60.0, 1e-9);
}

TEST(AuditTest, CellOfASingleTupleViolationIsDirtyInAGroupMajority) {
  // Tuple 0 violates [B=b1] -> [C=x] by itself, which implicates its C
  // cell, although that cell is in the A=a1 majority (z, z, x).
  const Relation rel = semandaq::testing::MakeStringRelation(
      "u", {"A", "B", "C"},
      {{"a1", "b1", "z"}, {"a1", "b2", "z"}, {"a1", "b3", "x"}});
  const AuditOutcome outcome =
      AuditOf(rel, "u: [A] -> [C]\nu: [B=b1] -> [C=x]\n");
  EXPECT_EQ(outcome.GradeOf(0), CleanGrade::kDirty);
  const AttributeStats& c = outcome.attr_stats[2];
  EXPECT_EQ(c.counts[static_cast<size_t>(CleanGrade::kDirty)], 2);  // tuples 0, 2
  EXPECT_EQ(c.counts[static_cast<size_t>(CleanGrade::kArguablyClean)], 1);
  EXPECT_NEAR(c.pct_arguably(), 100.0 / 3.0, 1e-9);
}

TEST(AuditTest, GradesOfDeadAndUnknownTuplesReadProbablyClean) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  ASSERT_OK(rel.Delete(6));  // Eve, the single-tuple violator
  const AuditOutcome outcome = AuditOf(rel, semandaq::testing::PaperCfdText());
  EXPECT_EQ(outcome.num_tuples, 6u);
  EXPECT_EQ(outcome.GradeOf(6), CleanGrade::kProbablyClean);
  EXPECT_EQ(outcome.GradeOf(7), CleanGrade::kProbablyClean);
  EXPECT_EQ(outcome.GradeOf(-1), CleanGrade::kProbablyClean);
  EXPECT_EQ(outcome.tuples_single_only, 0u);
}

TEST(ReportTest, BuildsBarsAndPie) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  AuditOutcome outcome = AuditOf(rel, semandaq::testing::PaperCfdText());
  QualityReport report = BuildQualityReport(outcome, rel.schema());
  ASSERT_EQ(report.bars.size(), 7u);
  EXPECT_EQ(report.bars[0].attribute, "NAME");
  ASSERT_EQ(report.pie.size(), 4u);
  double pct_total = 0;
  for (const auto& slice : report.pie) pct_total += slice.pct;
  EXPECT_NEAR(pct_total, 100.0, 1e-6);
  EXPECT_EQ(report.num_tuples, 7u);
}

TEST(ReportTest, BarsCsvHasHeaderAndRows) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  AuditOutcome outcome = AuditOf(rel, semandaq::testing::PaperCfdText());
  QualityReport report = BuildQualityReport(outcome, rel.schema());
  const std::string csv = report.BarsToCsv();
  EXPECT_NE(csv.find("attribute,pct_verified"), std::string::npos);
  EXPECT_NE(csv.find("ZIP"), std::string::npos);
}

TEST(RenderTest, QualityMapShadesByVio) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  auto cfds = Parse(semandaq::testing::PaperCfdText());
  detect::NativeDetector detector(&rel, cfds);
  ASSERT_OK_AND_ASSIGN(auto table, detector.Detect());
  const std::string map = AsciiRender::QualityMap(rel, table);
  EXPECT_NE(map.find("[.] vio=1"), std::string::npos);  // Mike
  EXPECT_NE(map.find("[:] vio=2"), std::string::npos);  // Rick
  EXPECT_NE(map.find("[ ] vio=0"), std::string::npos);  // clean tuples
}

TEST(RenderTest, QualityMapTruncates) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  detect::ViolationTable empty;
  const std::string map = AsciiRender::QualityMap(rel, empty, 2);
  EXPECT_NE(map.find("5 more tuple(s)"), std::string::npos);
}

TEST(RenderTest, BarChartAndPieAndStats) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  AuditOutcome outcome = AuditOf(rel, semandaq::testing::PaperCfdText());
  QualityReport report = BuildQualityReport(outcome, rel.schema());
  const std::string bars = AsciiRender::BarChart(report);
  EXPECT_NE(bars.find("NAME"), std::string::npos);
  EXPECT_NE(bars.find("V="), std::string::npos);
  const std::string pie = AsciiRender::PieChart(report);
  EXPECT_NE(pie.find("single-tuple only"), std::string::npos);
  const std::string stats = AsciiRender::Statistics(report);
  EXPECT_NE(stats.find("max vio(t)"), std::string::npos);
  EXPECT_NE(stats.find("multi-tuple groups"), std::string::npos);
}

}  // namespace
}  // namespace semandaq::audit
