#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "core/explorer.h"
#include "detect/native_detector.h"
#include "test_util.h"

namespace semandaq::core {
namespace {

using relational::Relation;
using relational::Row;
using relational::Value;

class ExplorerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rel_ = semandaq::testing::PaperCustomerRelation();
    auto parsed = cfd::ParseCfdSet(semandaq::testing::PaperCfdText());
    ASSERT_TRUE(parsed.ok());
    cfds_ = std::move(*parsed);
    detect::NativeDetector detector(&rel_, cfds_);
    auto table = detector.Detect();
    ASSERT_TRUE(table.ok());
    // The explorer needs resolved CFDs; the detector resolved its own copy,
    // so resolve ours too.
    for (auto& c : cfds_) ASSERT_OK(c.Resolve(rel_.schema()));
    table_ = std::move(*table);
  }

  Relation rel_;
  std::vector<cfd::Cfd> cfds_;
  detect::ViolationTable table_;
};

TEST_F(ExplorerTest, ListCfdsShowsViolationMass) {
  DataExplorer explorer(&rel_, std::move(cfds_), std::move(table_));
  ASSERT_OK_AND_ASSIGN(auto entries, explorer.ListCfds());
  ASSERT_EQ(entries.size(), 2u);
  // phi2 [CNT,ZIP]->[STR]: the UK group carries vio 1+2+1 = 4.
  EXPECT_EQ(entries[0].display, "[CNT, ZIP] -> [STR]");
  EXPECT_EQ(entries[0].violation_count, 4);
  // phi4 [CC]->[CNT]: Eve's vio 1 (CC=44 applies to UK tuples too, which
  // carry the group violations: Mike+Rick+Joe+Mary+Eve -> 1+2+1+0+1 = 5).
  EXPECT_EQ(entries[1].display, "[CC] -> [CNT]");
  EXPECT_EQ(entries[1].violation_count, 5);
}

TEST_F(ExplorerTest, PatternsShowMatchCounts) {
  DataExplorer explorer(&rel_, std::move(cfds_), std::move(table_));
  ASSERT_OK_AND_ASSIGN(auto patterns, explorer.PatternsOf(0));
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].display, "(UK, _ || _)");
  EXPECT_EQ(patterns[0].matching_tuples, 4u);  // Mike, Rick, Joe, Mary
  EXPECT_EQ(patterns[0].violation_count, 4);
}

TEST_F(ExplorerTest, LhsMatchesDrilldown) {
  // The Fig. 2 step: distinct (CNT, ZIP) under pattern (UK, _).
  DataExplorer explorer(&rel_, std::move(cfds_), std::move(table_));
  ASSERT_OK_AND_ASSIGN(auto matches, explorer.LhsMatches(0, 0));
  ASSERT_EQ(matches.size(), 2u);
  // Sorted dirtiest-first: (UK, EH2 4SD) with 3 tuples / 3 streets.
  EXPECT_EQ(matches[0].lhs[1], Value::String("EH2 4SD"));
  EXPECT_EQ(matches[0].tuple_count, 3u);
  EXPECT_EQ(matches[0].distinct_rhs, 2u);  // Mayfield Rd, Crichton St
  EXPECT_EQ(matches[0].violation_count, 4);
  EXPECT_EQ(matches[1].lhs[1], Value::String("EH8 9LE"));
  EXPECT_EQ(matches[1].violation_count, 0);
}

TEST_F(ExplorerTest, RhsValuesForSelectedLhs) {
  DataExplorer explorer(&rel_, std::move(cfds_), std::move(table_));
  Row lhs = {Value::String("UK"), Value::String("EH2 4SD")};
  ASSERT_OK_AND_ASSIGN(auto rhs, explorer.RhsValues(0, 0, lhs));
  ASSERT_EQ(rhs.size(), 2u);
  // Most frequent first.
  EXPECT_EQ(rhs[0].rhs, Value::String("Mayfield Rd"));
  EXPECT_EQ(rhs[0].tuple_count, 2u);
  EXPECT_EQ(rhs[1].rhs, Value::String("Crichton St"));
  EXPECT_EQ(rhs[1].tuple_count, 1u);
}

TEST_F(ExplorerTest, TuplesForFinalSelection) {
  DataExplorer explorer(&rel_, std::move(cfds_), std::move(table_));
  Row lhs = {Value::String("UK"), Value::String("EH2 4SD")};
  ASSERT_OK_AND_ASSIGN(auto tids,
                       explorer.TuplesFor(0, 0, lhs, Value::String("Mayfield Rd")));
  EXPECT_EQ(tids, (std::vector<relational::TupleId>{0, 2}));  // Mike, Joe
}

TEST_F(ExplorerTest, ReverseExplorationFromTuple) {
  DataExplorer explorer(&rel_, std::move(cfds_), std::move(table_));
  // Eve (6): matches phi4's LHS (CC=44); phi2's LHS (CNT=UK) does not match.
  ASSERT_OK_AND_ASSIGN(auto pairs, explorer.CfdsForTuple(6));
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 1);
  // Mike (0) matches phi2 (UK) but not... CC=44 matches phi4 too.
  ASSERT_OK_AND_ASSIGN(auto mike, explorer.CfdsForTuple(0));
  EXPECT_EQ(mike.size(), 2u);
}

TEST_F(ExplorerTest, RenderDrilldownShowsFourTables) {
  DataExplorer explorer(&rel_, std::move(cfds_), std::move(table_));
  Row lhs = {Value::String("UK"), Value::String("EH2 4SD")};
  const std::string out = explorer.RenderDrilldown(0, 0, lhs);
  EXPECT_NE(out.find("-- CFDs --"), std::string::npos);
  EXPECT_NE(out.find("-- pattern tuples --"), std::string::npos);
  EXPECT_NE(out.find("-- LHS matches --"), std::string::npos);
  EXPECT_NE(out.find("-- RHS values for"), std::string::npos);
  EXPECT_NE(out.find("Mayfield Rd"), std::string::npos);
}

TEST_F(ExplorerTest, IndexValidation) {
  DataExplorer explorer(&rel_, std::move(cfds_), std::move(table_));
  EXPECT_FALSE(explorer.PatternsOf(-1).ok());
  EXPECT_FALSE(explorer.PatternsOf(99).ok());
  EXPECT_FALSE(explorer.LhsMatches(0, 99).ok());
  EXPECT_FALSE(explorer.CfdsForTuple(999).ok());
}

}  // namespace
}  // namespace semandaq::core
