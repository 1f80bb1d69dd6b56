#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "cfd/tableau_store.h"
#include "test_util.h"

namespace semandaq::cfd {
namespace {

using relational::Database;
using relational::Relation;
using relational::Value;

std::vector<Cfd> Parse(const std::string& text) {
  auto r = ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<Cfd>{};
}

TEST(TableauStoreTest, StoreCreatesTableauAndMetaRelations) {
  Database db;
  std::vector<std::string> names;
  ASSERT_OK(TableauStore::Store(Parse("customer: [CC=44] -> [CNT=UK]\n"
                                      "customer: [CNT, ZIP] -> [CITY]\n"),
                                &db, &names));
  ASSERT_EQ(names.size(), 2u);
  EXPECT_TRUE(db.HasRelation(TableauStore::kMetaRelation));
  EXPECT_TRUE(db.HasRelation(names[0]));
  EXPECT_TRUE(db.HasRelation(names[1]));

  // Wildcards are stored as NULL; constants as values.
  const Relation* tab0 = db.FindRelation(names[0]);
  ASSERT_EQ(tab0->size(), 1u);
  EXPECT_EQ(tab0->cell(0, 0), Value::String("44"));
  EXPECT_EQ(tab0->cell(0, 1), Value::String("UK"));
  const Relation* tab1 = db.FindRelation(names[1]);
  EXPECT_TRUE(tab1->cell(0, 0).is_null());
  EXPECT_TRUE(tab1->cell(0, 2).is_null());
}

TEST(TableauStoreTest, ProvenanceColumnsRecordCfdAndPattern) {
  Database db;
  std::vector<std::string> names;
  ASSERT_OK(TableauStore::Store(
      Parse("t: [A] -> [B] { (1 | x), (2 | _) }"), &db, &names));
  const Relation* tab = db.FindRelation(names[0]);
  ASSERT_EQ(tab->size(), 2u);
  const int cfd_col = tab->schema().IndexOf("__cfd_id");
  const int pat_col = tab->schema().IndexOf("__pattern_id");
  ASSERT_GE(cfd_col, 0);
  ASSERT_GE(pat_col, 0);
  EXPECT_EQ(tab->cell(0, static_cast<size_t>(cfd_col)).AsInt(), 0);
  EXPECT_EQ(tab->cell(0, static_cast<size_t>(pat_col)).AsInt(), 0);
  EXPECT_EQ(tab->cell(1, static_cast<size_t>(pat_col)).AsInt(), 1);
}

TEST(TableauStoreTest, RoundTripPreservesSemantics) {
  Database db;
  const auto original = Parse(
      "customer: [CC] -> [CNT] { (44 | UK), (31 | NL) }\n"
      "customer: [CNT=UK, ZIP=_] -> [STR=_]\n"
      "customer: [CNT, ZIP] -> [CITY]\n");
  ASSERT_OK(TableauStore::Store(original, &db));
  ASSERT_OK_AND_ASSIGN(auto loaded, TableauStore::Load(db));

  // Groups: [CC]->[CNT], [CNT,ZIP]->[STR], [CNT,ZIP]->[CITY].
  ASSERT_EQ(loaded.size(), 3u);
  size_t total_rows = 0;
  for (const Cfd& c : loaded) total_rows += c.tableau().size();
  EXPECT_EQ(total_rows, 4u);
  // Spot-check the constant group survived.
  bool found_44 = false;
  for (const Cfd& c : loaded) {
    for (const PatternTuple& pt : c.tableau()) {
      if (pt.rhs.is_constant() && pt.rhs.constant() == Value::String("UK")) {
        found_44 = true;
        EXPECT_EQ(c.rhs_attr(), "CNT");
      }
    }
  }
  EXPECT_TRUE(found_44);
}

// Wildcards and NULL constants are both stored as SQL NULL; the marker
// column tells them apart, so a round trip keeps a NULL constant a constant.
TEST(TableauStoreTest, NullConstantsSurviveTheRoundTrip) {
  PatternTuple null_rhs;  // [A=1, B=_] -> [C=NULL]
  null_rhs.lhs = {PatternValue::Constant(Value::String("1")), PatternValue::Wildcard()};
  null_rhs.rhs = PatternValue::Constant(Value::Null());
  PatternTuple null_lhs;  // [A=NULL, B=_] -> [C=_]
  null_lhs.lhs = {PatternValue::Constant(Value::Null()), PatternValue::Wildcard()};
  null_lhs.rhs = PatternValue::Wildcard();
  PatternTuple plain;  // [A=_, B=_] -> [C=_]
  plain.lhs = {PatternValue::Wildcard(), PatternValue::Wildcard()};
  plain.rhs = PatternValue::Wildcard();
  Database db;
  std::vector<std::string> names;
  ASSERT_OK(TableauStore::Store({Cfd("t", {"A", "B"}, "C", {null_rhs, null_lhs, plain})},
                                &db, &names));
  const Relation* tab = db.FindRelation(names[0]);
  const int marker = tab->schema().IndexOf(TableauStore::kNullConstColumn);
  ASSERT_GE(marker, 0);
  EXPECT_EQ(tab->cell(0, static_cast<size_t>(marker)).AsInt(), 2);
  EXPECT_EQ(tab->cell(1, static_cast<size_t>(marker)).AsInt(), 1);
  EXPECT_EQ(tab->cell(2, static_cast<size_t>(marker)).AsInt(), 0);

  ASSERT_OK_AND_ASSIGN(auto loaded, TableauStore::Load(db));
  ASSERT_EQ(loaded.size(), 1u);
  const std::vector<PatternTuple>& rows = loaded[0].tableau();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].rhs.is_constant());
  EXPECT_TRUE(rows[0].rhs.constant().is_null());
  EXPECT_TRUE(rows[0].lhs[1].is_wildcard());
  // Every NULL LHS entry of a row that selects nothing comes back a
  // constant: the row still selects nothing.
  EXPECT_TRUE(rows[1].lhs[0].is_constant());
  EXPECT_TRUE(rows[1].lhs[1].is_constant());
  EXPECT_TRUE(rows[1].rhs.is_wildcard());
  EXPECT_TRUE(rows[2].lhs[0].is_wildcard());
  EXPECT_TRUE(rows[2].rhs.is_wildcard());
}

TEST(TableauStoreTest, StoreReplacesPreviousEncoding) {
  Database db;
  ASSERT_OK(TableauStore::Store(Parse("t: [A] -> [B]\nt: [B] -> [C]\n"), &db));
  ASSERT_OK(TableauStore::Store(Parse("t: [A] -> [B]\n"), &db));
  size_t tableaux = 0;
  for (const auto& name : db.RelationNames()) {
    if (name.find("__cfd_tableau_") == 0) ++tableaux;
  }
  EXPECT_EQ(tableaux, 1u);
}

TEST(TableauStoreTest, ClearDropsEverything) {
  Database db;
  ASSERT_OK(TableauStore::Store(Parse("t: [A] -> [B]\n"), &db));
  TableauStore::Clear(&db);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_FALSE(TableauStore::Load(db).ok());
}

TEST(TableauStoreTest, TypedTargetRelationTypesTableauColumns) {
  Database db;
  relational::Schema schema;
  ASSERT_OK(schema.AddAttribute({"CC", relational::DataType::kInt, {}}));
  ASSERT_OK(schema.AddAttribute({"CNT", relational::DataType::kString, {}}));
  Relation rel{"t", schema};
  rel.MustInsert({Value::Int(44), Value::String("UK")});
  ASSERT_OK(db.AddRelation(std::move(rel)));

  auto cfds = Parse("t: [CC=44] -> [CNT=UK]");
  ASSERT_OK(cfds[0].Resolve(db.FindRelation("t")->schema()));
  std::vector<std::string> names;
  ASSERT_OK(TableauStore::Store(cfds, &db, &names));
  const Relation* tab = db.FindRelation(names[0]);
  // The CC pattern column carries INT 44, matching the data type.
  EXPECT_EQ(tab->cell(0, 0), Value::Int(44));
}

}  // namespace
}  // namespace semandaq::cfd
