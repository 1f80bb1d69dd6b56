#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "detect/native_detector.h"
#include "detect/sql_detector.h"
#include "detect/sql_generator.h"
#include "test_util.h"

namespace semandaq::detect {
namespace {

using relational::Database;
using relational::Relation;
using relational::TupleId;
using relational::Value;

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

// ----------------------------------------------------------- ViolationTable

TEST(ViolationTableTest, SinglesDedupePerCfd) {
  ViolationTable t;
  EXPECT_TRUE(t.AddSingle({3, 0, 0}));
  EXPECT_FALSE(t.AddSingle({3, 0, 1}));  // same CFD, other pattern: no new vio
  EXPECT_TRUE(t.AddSingle({3, 1, 0}));   // different CFD
  EXPECT_EQ(t.vio(3), 2);
  EXPECT_EQ(t.singles().size(), 3u);
  EXPECT_EQ(t.SingleCfdsOf(3), (std::vector<int>{0, 1}));
}

TEST(ViolationTableTest, GroupVioCountsDisagreeingPartners) {
  ViolationTable t;
  ViolationGroup g;
  g.fd_group = 0;
  g.cfd_index = 0;
  g.lhs_key = {Value::String("UK")};
  g.members = {10, 11, 12};
  // RHS values a, a, b: each member's count of disagreeing members.
  g.member_partners = {1, 1, 2};
  t.AddGroup(g);
  // Tuples 10/11 disagree with 12 only; 12 disagrees with both.
  EXPECT_EQ(t.vio(10), 1);
  EXPECT_EQ(t.vio(11), 1);
  EXPECT_EQ(t.vio(12), 2);
  EXPECT_EQ(t.TotalVio(), 4);
  EXPECT_EQ(t.NumViolatingTuples(), 3u);
  EXPECT_EQ(t.GroupsOf(11), (std::vector<int>{0}));
}

TEST(ViolationTableTest, ViolatingTuplesSorted) {
  ViolationTable t;
  t.AddSingle({9, 0, 0});
  t.AddSingle({2, 0, 0});
  EXPECT_EQ(t.ViolatingTuples(), (std::vector<TupleId>{2, 9}));
}

// ----------------------------------------------------------- NativeDetector

TEST(NativeDetectorTest, PaperExample) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  NativeDetector detector(&rel, Parse(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(ViolationTable table, detector.Detect());

  // Eve (tid 6) has CC=44 but CNT=US: single-tuple violation of phi4.
  EXPECT_EQ(table.singles().size(), 1u);
  EXPECT_EQ(table.singles()[0].tid, 6);

  // Mike/Rick/Joe share (UK, EH2 4SD) with streets {Mayfield, Crichton,
  // Mayfield}: one multi-tuple group.
  ASSERT_EQ(table.groups().size(), 1u);
  const ViolationGroup& g = table.groups()[0];
  EXPECT_EQ(g.members.size(), 3u);
  // Mike & Joe each disagree with Rick (1); Rick disagrees with both (2).
  EXPECT_EQ(table.vio(0), 1);
  EXPECT_EQ(table.vio(1), 2);
  EXPECT_EQ(table.vio(2), 1);
  // Mary (unique zip), Anna, Bob are clean.
  EXPECT_EQ(table.vio(3), 0);
  EXPECT_EQ(table.vio(4), 0);
  EXPECT_EQ(table.vio(5), 0);
}

TEST(NativeDetectorTest, CleanInstanceHasNoViolations) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "customer", {"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"},
      {{"A", "UK", "Edinburgh", "EH1", "HighSt", "44", "131"},
       {"B", "UK", "Edinburgh", "EH1", "HighSt", "44", "131"}});
  NativeDetector detector(&rel, Parse(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(ViolationTable table, detector.Detect());
  EXPECT_EQ(table.TotalVio(), 0);
}

TEST(NativeDetectorTest, ConstantPatternIgnoresNullRhs) {
  // NULL CNT is "unknown, not wrong" under [CC=44] -> [CNT=UK].
  Relation rel = semandaq::testing::MakeStringRelation(
      "customer", {"CC", "CNT"}, {{"44", ""}, {"44", "US"}});
  NativeDetector detector(&rel, Parse("customer: [CC=44] -> [CNT=UK]"));
  ASSERT_OK_AND_ASSIGN(ViolationTable table, detector.Detect());
  ASSERT_EQ(table.singles().size(), 1u);
  EXPECT_EQ(table.singles()[0].tid, 1);
}

TEST(NativeDetectorTest, NullLhsExcludedFromMultiTupleGroups) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"", "x"}, {"", "y"}, {"1", "x"}, {"1", "y"}});
  NativeDetector detector(&rel, Parse("t: [A] -> [B]"));
  ASSERT_OK_AND_ASSIGN(ViolationTable table, detector.Detect());
  // Only the A=1 pair violates; NULL keys never group.
  ASSERT_EQ(table.groups().size(), 1u);
  EXPECT_EQ(table.groups()[0].members.size(), 2u);
}

TEST(NativeDetectorTest, MultipleVariablePatternsCountOncePerGroup) {
  // Two variable rows of the same embedded FD both cover the tuples; the
  // merged-tableau semantics counts the group once.
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"1", "x"}, {"1", "y"}});
  NativeDetector detector(&rel, Parse("t: [A] -> [B] { (_ | _), (1 | _) }"));
  ASSERT_OK_AND_ASSIGN(ViolationTable table, detector.Detect());
  ASSERT_EQ(table.groups().size(), 1u);
  EXPECT_EQ(table.vio(0), 1);
  EXPECT_EQ(table.vio(1), 1);
}

TEST(NativeDetectorTest, TombstonedTuplesIgnored) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"1", "x"}, {"1", "y"}});
  ASSERT_OK(rel.Delete(1));
  NativeDetector detector(&rel, Parse("t: [A] -> [B]"));
  ASSERT_OK_AND_ASSIGN(ViolationTable table, detector.Detect());
  EXPECT_EQ(table.TotalVio(), 0);
}

// -------------------------------------------------------------- SqlGenerator

TEST(SqlGeneratorTest, EmitsExpectedQueryShapes) {
  auto cfds = Parse(
      "customer: [CC] -> [CNT] { (44 | UK) }\n"
      "customer: [CNT=UK, ZIP=_] -> [STR=_]\n");
  auto queries = GenerateDetectionSql(cfds, "customer",
                                      {"__cfd_tableau_0", "__cfd_tableau_1"});
  ASSERT_EQ(queries.size(), 2u);

  // Group 0: constant rows only.
  EXPECT_TRUE(queries[0].has_constant_rows);
  EXPECT_FALSE(queries[0].has_variable_rows);
  EXPECT_NE(queries[0].qc.find("OR tp.\"CC\" IS NULL"), std::string::npos);
  EXPECT_NE(queries[0].qc.find("t.\"CNT\" <> tp.\"CNT\""), std::string::npos);
  EXPECT_NE(queries[0].qc.find("__tid"), std::string::npos);

  // Group 1: variable rows only -> Q_V with GROUP BY / HAVING.
  EXPECT_FALSE(queries[1].has_constant_rows);
  EXPECT_TRUE(queries[1].has_variable_rows);
  EXPECT_NE(queries[1].qv_keys.find("GROUP BY"), std::string::npos);
  EXPECT_NE(queries[1].qv_keys.find("HAVING COUNT(DISTINCT t.\"STR\") > 1"),
            std::string::npos);
  EXPECT_NE(queries[1].qv_members.find(queries[1].keys_relation), std::string::npos);
}

// --------------------------------------------------------------- SqlDetector

void ExpectTablesEquivalent(const ViolationTable& a, const ViolationTable& b,
                            const Relation& rel) {
  EXPECT_EQ(a.TotalVio(), b.TotalVio());
  EXPECT_EQ(a.NumViolatingTuples(), b.NumViolatingTuples());
  rel.ForEach([&](TupleId tid, const relational::Row&) {
    EXPECT_EQ(a.vio(tid), b.vio(tid)) << "vio mismatch at tuple " << tid;
  });
  EXPECT_EQ(a.groups().size(), b.groups().size());
}

TEST(SqlDetectorTest, MatchesNativeOnPaperExample) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  auto cfds = Parse(semandaq::testing::PaperCfdText());

  NativeDetector native(&rel, cfds);
  ASSERT_OK_AND_ASSIGN(ViolationTable native_table, native.Detect());

  Database db;
  ASSERT_OK(db.AddRelation(rel.Clone()));
  SqlDetector sql(&db, "customer", cfds);
  ASSERT_OK_AND_ASSIGN(ViolationTable sql_table, sql.Detect());

  ExpectTablesEquivalent(native_table, sql_table, rel);
  // The temp tableau relations are cleaned up afterwards.
  for (const auto& name : db.RelationNames()) {
    EXPECT_EQ(name.find("__cfd_"), std::string::npos) << name;
    EXPECT_EQ(name.find("__vio_keys_"), std::string::npos) << name;
  }
}

TEST(SqlDetectorTest, ExposesGeneratedQueries) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  Database db;
  ASSERT_OK(db.AddRelation(rel.Clone()));
  SqlDetector sql(&db, "customer", Parse(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(ViolationTable table, sql.Detect());
  (void)table;
  ASSERT_FALSE(sql.queries().empty());
  for (const auto& q : sql.queries()) {
    EXPECT_NE(q.qc.find("SELECT"), std::string::npos);
  }
}

// An attribute name holding `"` survives the generated SQL's identifier
// quoting: the SQL path finds exactly the native violations.
TEST(SqlDetectorTest, QuotedAttributeNameMatchesNative) {
  Relation rel{"t", relational::Schema::AllStrings({"A", "B\"x"})};
  rel.MustInsert({Value::String("x"), Value::String("1")});
  rel.MustInsert({Value::String("x"), Value::String("2")});
  rel.MustInsert({Value::String("y"), Value::String("3")});
  const auto cfds = Parse("t: [A] -> [B\"x]");

  NativeDetector native(&rel, cfds);
  ASSERT_OK_AND_ASSIGN(ViolationTable native_table, native.Detect());
  EXPECT_EQ(native_table.TotalVio(), 2);
  Database db;
  ASSERT_OK(db.AddRelation(rel.Clone()));
  SqlDetector sql(&db, "t", cfds);
  ASSERT_OK_AND_ASSIGN(ViolationTable sql_table, sql.Detect());
  ExpectTablesEquivalent(native_table, sql_table, rel);
}

// A detection that fails after storing some tableau relations still removes
// them: the database holds only the data afterwards.
TEST(SqlDetectorTest, FailedDetectLeavesOnlyTheData) {
  // The second embedded FD's tableau needs two `A` columns, which the store
  // rejects after it stored the first group's tableau.
  Relation rel{"t", relational::Schema::AllStrings({"A", "B"})};
  rel.MustInsert({Value::String("x"), Value::String("1")});
  Database db;
  ASSERT_OK(db.AddRelation(std::move(rel)));
  SqlDetector sql(&db, "t", Parse("t: [A] -> [B]\nt: [A, A] -> [B]"));
  const common::Status status = sql.Detect().status();
  EXPECT_EQ(status.code(), common::StatusCode::kAlreadyExists) << status.ToString();
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"t"});
}

// The generated queries read tuple ids through the __tid pseudo-column,
// which a relation attribute of that name hides, and the tableau relations
// put __cfd_id and __pattern_id beside the CFD's attributes. The SQL
// detector refuses such names instead of answering differently from the
// native detector.
TEST(SqlDetectorTest, ReservedAttributeNamesAreRefused) {
  Relation rel{"t", relational::Schema::AllStrings({"A", "__tid"})};
  rel.MustInsert({Value::String("x"), Value::String("1")});
  rel.MustInsert({Value::String("x"), Value::String("2")});
  rel.MustInsert({Value::String("y"), Value::String("3")});
  const auto cfds = Parse("t: [A] -> [__tid]");
  NativeDetector native(&rel, cfds);
  ASSERT_OK_AND_ASSIGN(ViolationTable native_table, native.Detect());
  EXPECT_EQ(native_table.groups().size(), 1u);
  EXPECT_EQ(native_table.NumViolatingTuples(), 2u);
  {
    Database db;
    ASSERT_OK(db.AddRelation(rel.Clone()));
    const common::Status status = SqlDetector(&db, "t", cfds).Detect().status();
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument) << status.ToString();
    EXPECT_NE(status.message().find("__tid"), std::string::npos) << status.ToString();
    EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"t"});
  }
  for (const std::string name : {"__cfd_id", "__pattern_id"}) {
    Relation named{"u", relational::Schema::AllStrings({"A", name})};
    named.MustInsert({Value::String("x"), Value::String("1")});
    named.MustInsert({Value::String("x"), Value::String("2")});
    Database db;
    ASSERT_OK(db.AddRelation(std::move(named)));
    const common::Status status =
        SqlDetector(&db, "u", Parse("u: [A] -> [" + name + "]")).Detect().status();
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument) << status.ToString();
    EXPECT_NE(status.message().find(name), std::string::npos) << status.ToString();
  }
}

// The tableau relations also carry the __null_const marker column, so a
// CFD attribute of that name is refused the same way.
TEST(SqlDetectorTest, NullConstMarkerNameIsRefused) {
  Relation named{"u", relational::Schema::AllStrings({"A", "__null_const"})};
  named.MustInsert({Value::String("x"), Value::String("1")});
  named.MustInsert({Value::String("x"), Value::String("2")});
  Database db;
  ASSERT_OK(db.AddRelation(std::move(named)));
  const common::Status status =
      SqlDetector(&db, "u", Parse("u: [A] -> [__null_const]")).Detect().status();
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("__null_const"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"u"});
}

// A NULL pattern constant is a constant, not a wildcard: on the LHS it
// matches no cell, so its row selects no tuple; on the RHS every non-NULL
// value disagrees with it. The tableau stores it as SQL NULL, like a
// wildcard, and its marker column keeps the two apart.
TEST(SqlDetectorTest, NullPatternConstantsAnswerLikeTheNativeDetector) {
  const Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"},
      {{"", "1"}, {"", "2"}, {"x", "1"}, {"x", "2"}, {"x", ""}, {"y", "1"}});
  cfd::PatternTuple null_lhs;  // [A=NULL] -> [B=_]
  null_lhs.lhs = {cfd::PatternValue::Constant(Value::Null())};
  null_lhs.rhs = cfd::PatternValue::Wildcard();
  cfd::PatternTuple null_rhs;  // [A=x] -> [B=NULL]
  null_rhs.lhs = {cfd::PatternValue::Constant(Value::String("x"))};
  null_rhs.rhs = cfd::PatternValue::Constant(Value::Null());
  const std::pair<cfd::PatternTuple, size_t> cases[] = {{null_lhs, 0},
                                                        {null_rhs, 2}};
  for (const auto& [row, violating] : cases) {
    SCOPED_TRACE(row.ToString());
    const std::vector<cfd::Cfd> cfds = {cfd::Cfd("t", {"A"}, "B", {row})};
    ASSERT_OK_AND_ASSIGN(ViolationTable native, NativeDetector(&rel, cfds).Detect());
    Database db;
    ASSERT_OK(db.AddRelation(rel.Clone()));
    ASSERT_OK_AND_ASSIGN(ViolationTable sql, SqlDetector(&db, "t", cfds).Detect());
    EXPECT_EQ(native.NumViolatingTuples(), violating);
    EXPECT_EQ(sql.NumViolatingTuples(), violating);
    EXPECT_EQ(sql.TotalVio(), native.TotalVio());
    for (TupleId tid = 0; tid < rel.IdBound(); ++tid) {
      EXPECT_EQ(sql.vio(tid), native.vio(tid)) << "tuple " << tid;
    }
  }
}

TEST(SqlDetectorTest, MissingRelationFails) {
  Database db;
  SqlDetector sql(&db, "nope", Parse("nope: [A] -> [B]"));
  EXPECT_FALSE(sql.Detect().ok());
}

}  // namespace
}  // namespace semandaq::detect
