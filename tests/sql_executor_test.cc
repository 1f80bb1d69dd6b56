#include <gtest/gtest.h>

#include "relational/database.h"
#include "sql/engine.h"
#include "test_util.h"

namespace semandaq::sql {
namespace {

using relational::Database;
using relational::Relation;
using relational::Row;
using relational::Value;

class SqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.AddRelation(semandaq::testing::MakeStringRelation(
        "customer", {"NAME", "CNT", "ZIP", "CITY"},
        {
            {"Mike", "UK", "EH2", "Edinburgh"},
            {"Rick", "UK", "EH2", "Edinburgh"},
            {"Joe", "UK", "W1", "London"},
            {"Anna", "NL", "10", "Amsterdam"},
            {"Null", "", "Z9", "Nowhere"},  // NULL CNT
        })));

    Relation nums{"nums", [] {
                    relational::Schema s;
                    (void)s.AddAttribute({"K", relational::DataType::kInt, {}});
                    (void)s.AddAttribute({"V", relational::DataType::kDouble, {}});
                    return s;
                  }()};
    nums.MustInsert({Value::Int(1), Value::Double(1.5)});
    nums.MustInsert({Value::Int(2), Value::Double(2.5)});
    nums.MustInsert({Value::Int(3), Value::Null()});
    ASSERT_OK(db_.AddRelation(std::move(nums)));

    ASSERT_OK(db_.AddRelation(semandaq::testing::MakeStringRelation(
        "country", {"CODE", "NAME2"},
        {{"UK", "United Kingdom"}, {"NL", "Netherlands"}})));
  }

  Relation Run(const std::string& sql) {
    Engine engine(&db_);
    auto r = engine.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : Relation{};
  }

  Database db_;
};

TEST_F(SqlExecutorTest, SelectStarPreservesRows) {
  Relation r = Run("SELECT * FROM customer");
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.schema().size(), 4u);
}

TEST_F(SqlExecutorTest, ProjectionAndAlias) {
  Relation r = Run("SELECT NAME AS who, CITY FROM customer WHERE ZIP = 'W1'");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.schema().attr(0).name, "who");
  EXPECT_EQ(r.cell(0, 0).AsString(), "Joe");
  EXPECT_EQ(r.cell(0, 1).AsString(), "London");
}

TEST_F(SqlExecutorTest, WhereComparisonsAndLogic) {
  EXPECT_EQ(Run("SELECT * FROM customer WHERE CNT = 'UK'").size(), 3u);
  EXPECT_EQ(Run("SELECT * FROM customer WHERE CNT = 'UK' AND ZIP = 'EH2'").size(), 2u);
  EXPECT_EQ(Run("SELECT * FROM customer WHERE CNT = 'UK' OR CNT = 'NL'").size(), 4u);
  EXPECT_EQ(Run("SELECT * FROM customer WHERE NOT (CNT = 'UK')").size(), 1u);
  EXPECT_EQ(Run("SELECT * FROM customer WHERE CNT <> 'UK'").size(), 1u);
}

TEST_F(SqlExecutorTest, NullSemantics) {
  // NULL CNT: neither = nor <> matches, IS NULL does.
  EXPECT_EQ(Run("SELECT * FROM customer WHERE CNT IS NULL").size(), 1u);
  EXPECT_EQ(Run("SELECT * FROM customer WHERE CNT IS NOT NULL").size(), 4u);
  // NOT of unknown is unknown: still excluded.
  EXPECT_EQ(Run("SELECT * FROM customer WHERE NOT (CNT = 'UK')").size(), 1u);
  // OR with IS NULL recovers the tuple (the detection-query pattern).
  EXPECT_EQ(Run("SELECT * FROM customer WHERE CNT = 'UK' OR CNT IS NULL").size(), 4u);
}

TEST_F(SqlExecutorTest, LikeAndInPredicates) {
  EXPECT_EQ(Run("SELECT * FROM customer WHERE CITY LIKE 'E%'").size(), 2u);
  EXPECT_EQ(Run("SELECT * FROM customer WHERE CITY LIKE '%dam'").size(), 1u);
  EXPECT_EQ(Run("SELECT * FROM customer WHERE ZIP IN ('EH2', 'W1')").size(), 3u);
  EXPECT_EQ(Run("SELECT * FROM customer WHERE ZIP NOT IN ('EH2')").size(), 3u);
}

TEST_F(SqlExecutorTest, NumericComparisonAndArithmetic) {
  EXPECT_EQ(Run("SELECT * FROM nums WHERE K > 1").size(), 2u);
  EXPECT_EQ(Run("SELECT * FROM nums WHERE K BETWEEN 2 AND 3").size(), 2u);
  Relation r = Run("SELECT K + 1 AS k1, V * 2 AS v2 FROM nums WHERE K = 1");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.cell(0, 0).AsInt(), 2);
  EXPECT_DOUBLE_EQ(r.cell(0, 1).AsDouble(), 3.0);
}

TEST_F(SqlExecutorTest, ArithmeticNullPropagates) {
  Relation r = Run("SELECT V + 1 FROM nums WHERE K = 3");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.cell(0, 0).is_null());
}

TEST_F(SqlExecutorTest, TidPseudoColumn) {
  Relation r = Run("SELECT __tid, NAME FROM customer WHERE NAME = 'Joe'");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.cell(0, 0).AsInt(), 2);
}

TEST_F(SqlExecutorTest, CrossJoinCounts) {
  Relation r = Run("SELECT * FROM customer, country");
  EXPECT_EQ(r.size(), 10u);
  EXPECT_EQ(r.schema().size(), 6u);
}

TEST_F(SqlExecutorTest, HashJoinOnEquality) {
  Relation r = Run(
      "SELECT c.NAME, k.NAME2 FROM customer c, country k WHERE c.CNT = k.CODE "
      "ORDER BY c.NAME");
  ASSERT_EQ(r.size(), 4u);  // NULL CNT never joins
  EXPECT_EQ(r.cell(0, 0).AsString(), "Anna");
  EXPECT_EQ(r.cell(0, 1).AsString(), "Netherlands");
}

TEST_F(SqlExecutorTest, InnerJoinSugar) {
  Relation r =
      Run("SELECT c.NAME FROM customer c INNER JOIN country k ON c.CNT = k.CODE");
  EXPECT_EQ(r.size(), 4u);
}

TEST_F(SqlExecutorTest, SelfJoinWithAliases) {
  Relation r = Run(
      "SELECT a.NAME, b.NAME FROM customer a, customer b "
      "WHERE a.ZIP = b.ZIP AND a.CITY <> b.CITY");
  EXPECT_EQ(r.size(), 0u);  // ZIP determines CITY in this instance
}

TEST_F(SqlExecutorTest, AggregatesGlobal) {
  Relation r = Run(
      "SELECT COUNT(*), COUNT(CNT), COUNT(DISTINCT CNT), MIN(NAME), MAX(NAME) "
      "FROM customer");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.cell(0, 0).AsInt(), 5);
  EXPECT_EQ(r.cell(0, 1).AsInt(), 4);  // COUNT skips NULL
  EXPECT_EQ(r.cell(0, 2).AsInt(), 2);  // UK, NL
  EXPECT_EQ(r.cell(0, 3).AsString(), "Anna");
  EXPECT_EQ(r.cell(0, 4).AsString(), "Rick");
}

TEST_F(SqlExecutorTest, SumAvgOverNumbers) {
  Relation r = Run("SELECT SUM(K), AVG(V) FROM nums");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.cell(0, 0).AsInt(), 6);
  EXPECT_DOUBLE_EQ(r.cell(0, 1).AsDouble(), 2.0);  // (1.5 + 2.5) / 2, NULL skipped
}

TEST_F(SqlExecutorTest, EmptyGlobalAggregateYieldsOneRow) {
  Relation r = Run("SELECT COUNT(*), SUM(K) FROM nums WHERE K > 100");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.cell(0, 0).AsInt(), 0);
  EXPECT_TRUE(r.cell(0, 1).is_null());
}

TEST_F(SqlExecutorTest, GroupByWithHaving) {
  Relation r = Run(
      "SELECT CNT, COUNT(*) AS n FROM customer WHERE CNT IS NOT NULL "
      "GROUP BY CNT HAVING COUNT(*) > 1");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.cell(0, 0).AsString(), "UK");
  EXPECT_EQ(r.cell(0, 1).AsInt(), 3);
}

TEST_F(SqlExecutorTest, GroupByCountDistinctHavingDetectionShape) {
  // The exact Q_V shape: keys with more than one distinct RHS.
  Relation r = Run(
      "SELECT CNT, ZIP FROM customer GROUP BY CNT, ZIP "
      "HAVING COUNT(DISTINCT CITY) > 1");
  EXPECT_EQ(r.size(), 0u);  // instance is consistent on (CNT, ZIP) -> CITY
}

TEST_F(SqlExecutorTest, DistinctDeduplicates) {
  Relation r = Run("SELECT DISTINCT CNT FROM customer WHERE CNT IS NOT NULL");
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(SqlExecutorTest, OrderByMultipleKeysAndLimit) {
  Relation r = Run("SELECT NAME, CNT FROM customer ORDER BY CNT DESC, NAME LIMIT 2");
  ASSERT_EQ(r.size(), 2u);
  // CNT DESC puts UK first (strings sort after NULL/NL); NAME ties break asc.
  EXPECT_EQ(r.cell(0, 0).AsString(), "Joe");
  EXPECT_EQ(r.cell(1, 0).AsString(), "Mike");
}

TEST_F(SqlExecutorTest, OrderByNullsFirst) {
  Relation r = Run("SELECT CNT FROM customer ORDER BY CNT");
  ASSERT_EQ(r.size(), 5u);
  EXPECT_TRUE(r.cell(0, 0).is_null());
}

TEST_F(SqlExecutorTest, OrderByResolvesSelectAliasFirst) {
  // ORDER BY names an aggregate by its select-list alias.
  Relation r = Run(
      "SELECT CNT, COUNT(*) AS n FROM customer GROUP BY CNT ORDER BY n DESC, CNT");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.cell(0, 0).AsString(), "UK");
  EXPECT_EQ(r.cell(0, 1).AsInt(), 3);
  EXPECT_TRUE(r.cell(1, 0).is_null());  // count ties break on CNT, NULL first
  EXPECT_EQ(r.cell(2, 0).AsString(), "NL");
  // An alias shadows the same-named input column, as in standard SQL.
  Relation s = Run(
      "SELECT NAME AS CNT FROM customer WHERE CNT = 'UK' ORDER BY CNT DESC");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.cell(0, 0).AsString(), "Rick");
  EXPECT_EQ(s.cell(2, 0).AsString(), "Joe");
}

TEST_F(SqlExecutorTest, DuplicateOutputNamesUniquified) {
  Relation r = Run("SELECT NAME, NAME FROM customer LIMIT 1");
  EXPECT_EQ(r.schema().attr(0).name, "NAME");
  EXPECT_EQ(r.schema().attr(1).name, "NAME_2");
}

TEST_F(SqlExecutorTest, BinderErrors) {
  Engine engine(&db_);
  EXPECT_FALSE(engine.Query("SELECT * FROM missing").ok());
  EXPECT_FALSE(engine.Query("SELECT nope FROM customer").ok());
  EXPECT_FALSE(engine.Query("SELECT x.NAME FROM customer").ok());
  // Ambiguous: NAME exists on both sides of a self join.
  EXPECT_FALSE(engine.Query("SELECT NAME FROM customer a, customer b").ok());
  // Aggregates are not allowed in WHERE.
  EXPECT_FALSE(engine.Query("SELECT * FROM customer WHERE COUNT(*) > 1").ok());
  // Unknown function.
  EXPECT_FALSE(engine.Query("SELECT FOO(NAME) FROM customer").ok());
  // HAVING without aggregation.
  EXPECT_FALSE(engine.Query("SELECT NAME FROM customer HAVING NAME = 'x'").ok());
  // Duplicate FROM alias.
  EXPECT_FALSE(engine.Query("SELECT * FROM customer c, country c").ok());
}

TEST_F(SqlExecutorTest, StringsAreNotBooleans) {
  Engine engine(&db_);
  EXPECT_FALSE(engine.Query("SELECT * FROM customer WHERE NAME").ok());
}

TEST_F(SqlExecutorTest, DeadTuplesInvisible) {
  relational::Relation* rel = db_.FindMutableRelation("customer");
  ASSERT_OK(rel->Delete(0));
  EXPECT_EQ(Run("SELECT * FROM customer").size(), 4u);
}

}  // namespace
}  // namespace semandaq::sql
