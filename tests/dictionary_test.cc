#include "relational/dictionary.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "relational/encoded_relation.h"
#include "test_util.h"

namespace semandaq::relational {
namespace {

TEST(DictionaryTest, NullAlwaysMapsToNullCode) {
  Dictionary d;
  EXPECT_EQ(d.Encode(Value::Null()), kNullCode);
  EXPECT_EQ(d.Lookup(Value::Null()), kNullCode);
  EXPECT_TRUE(d.Decode(kNullCode).is_null());
  EXPECT_EQ(d.size(), 0u);  // NULL never counts as a distinct value
}

TEST(DictionaryTest, EncodeDecodeRoundTrip) {
  Dictionary d;
  const std::vector<Value> values = {
      Value::String("Edinburgh"), Value::Int(44), Value::Double(2.5),
      Value::String(""),  // empty string is a value, distinct from NULL
  };
  std::vector<Code> codes;
  for (const Value& v : values) codes.push_back(d.Encode(v));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(d.Decode(codes[i]), values[i]);
    EXPECT_EQ(d.Lookup(values[i]), codes[i]);
    EXPECT_EQ(d.Encode(values[i]), codes[i]) << "re-encode must be stable";
  }
  EXPECT_EQ(d.size(), values.size());
}

TEST(DictionaryTest, CodesAreDenseAndFirstSeenOrdered) {
  Dictionary d;
  EXPECT_EQ(d.Encode(Value::String("a")), 1u);
  EXPECT_EQ(d.Encode(Value::String("b")), 2u);
  EXPECT_EQ(d.Encode(Value::String("a")), 1u);
  EXPECT_EQ(d.Encode(Value::String("c")), 3u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(DictionaryTest, LookupOfUnknownValueIsAbsent) {
  Dictionary d;
  d.Encode(Value::String("present"));
  EXPECT_EQ(d.Lookup(Value::String("missing")), kAbsentCode);
  EXPECT_FALSE(d.Contains(kAbsentCode));
}

TEST(DictionaryTest, DistinguishesTypesWithEqualDisplay) {
  // INT 2 and DOUBLE 2.0 and STRING "2" are distinct Values and must get
  // distinct codes (code equality == Value equality).
  Dictionary d;
  const Code ci = d.Encode(Value::Int(2));
  const Code cd = d.Encode(Value::Double(2.0));
  const Code cs = d.Encode(Value::String("2"));
  EXPECT_NE(ci, cd);
  EXPECT_NE(ci, cs);
  EXPECT_NE(cd, cs);
}

TEST(DictionaryTest, CopyRacingFirstLookupHydrationIsSafe) {
  // A dictionary rebuilt from its persisted values builds its value->code
  // map on the first Lookup, under its mutex. A writer that detaches a
  // dictionary shared with readers copies it meanwhile, so the copy must
  // read under the same mutex (ThreadSanitizer flags the race otherwise).
  constexpr size_t kValues = 200000;
  std::vector<Value> values;
  values.reserve(kValues);
  for (size_t i = 0; i < kValues; ++i) {
    values.push_back(Value::String("v" + std::to_string(i)));
  }
  for (int iter = 0; iter < 3; ++iter) {
    ASSERT_OK_AND_ASSIGN(const Dictionary shared,
                         Dictionary::FromDecodedValues(values));
    std::thread reader(
        [&shared] { EXPECT_EQ(shared.Lookup(Value::String("v7")), 8u); });
    const Dictionary copy = shared;
    reader.join();
    EXPECT_EQ(copy.size(), kValues);
    EXPECT_EQ(copy.Lookup(Value::String("v199999")), kValues);
    EXPECT_EQ(copy.Lookup(Value::String("v7")), 8u);
  }
}

// ------------------------------------------------------------ EncodedRelation

TEST(EncodedRelationTest, SnapshotMatchesRelation) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  EncodedRelation enc(&rel);
  ASSERT_EQ(enc.num_columns(), rel.schema().size());
  ASSERT_EQ(enc.IdBound(), rel.IdBound());
  rel.ForEach([&](TupleId tid, const Row& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(enc.Decode(c, enc.code(tid, c)), row[c])
          << "cell (" << tid << ", " << c << ")";
    }
  });
  EXPECT_TRUE(enc.InSync());
}

TEST(EncodedRelationTest, NullCellsEncodeToNullCode) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"", "x"}, {"y", ""}});
  EncodedRelation enc(&rel);
  EXPECT_EQ(enc.code(0, 0), kNullCode);
  EXPECT_NE(enc.code(0, 1), kNullCode);
  EXPECT_NE(enc.code(1, 0), kNullCode);
  EXPECT_EQ(enc.code(1, 1), kNullCode);
}

TEST(EncodedRelationTest, EqualValuesShareOneCodePerColumn) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "x"}, {"x", "y"}});
  EncodedRelation enc(&rel);
  EXPECT_EQ(enc.code(0, 0), enc.code(1, 0));  // same column, same value
  // Dictionaries are per column: "x" in A and "x" in B code independently.
  EXPECT_EQ(enc.dictionary(0).size(), 1u);
  EXPECT_EQ(enc.dictionary(1).size(), 2u);
}

TEST(EncodedRelationTest, SyncAppendsInserts) {
  Relation rel = semandaq::testing::MakeStringRelation("t", {"A"}, {{"x"}});
  EncodedRelation enc(&rel);
  rel.MustInsert({Value::String("y")});
  rel.MustInsert({Value::String("x")});
  EXPECT_FALSE(enc.InSync());
  enc.Sync();
  EXPECT_TRUE(enc.InSync());
  ASSERT_EQ(enc.IdBound(), 3);
  EXPECT_EQ(enc.code(2, 0), enc.code(0, 0));  // appended "x" reuses the code
  EXPECT_NE(enc.code(1, 0), enc.code(0, 0));
}

TEST(EncodedRelationTest, SyncRebuildsAfterOverwrite) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A"}, {{"x"}, {"y"}});
  EncodedRelation enc(&rel);
  ASSERT_OK(rel.SetCell(0, 0, Value::String("z")));
  EXPECT_FALSE(enc.InSync());
  enc.Sync();
  EXPECT_TRUE(enc.InSync());
  EXPECT_EQ(enc.Decode(0, enc.code(0, 0)), Value::String("z"));
}

TEST(EncodedRelationTest, ApplyCellStaysWarmThroughOverwrite) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "u"}, {"y", "v"}});
  EncodedRelation enc(&rel);
  ASSERT_OK(rel.SetCell(1, 0, Value::String("x")));
  enc.ApplyCell(1, 0);
  EXPECT_TRUE(enc.InSync());
  EXPECT_EQ(enc.code(1, 0), enc.code(0, 0));
  // Untouched column unaffected.
  EXPECT_EQ(enc.Decode(1, enc.code(1, 1)), Value::String("v"));
}

TEST(EncodedRelationTest, SetCellWritesOnlyTheSnapshotCopyOnWrite) {
  // A snapshot of a column-backed relation shares its chunks and
  // dictionaries. SetCell detaches the chunk before writing, and only a
  // value new to the column detaches (and grows) the dictionary, so the
  // relation's codes and values never change.
  Relation source = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "u"}, {"y", "v"}});
  const EncodedRelation built(&source);
  const Relation rel = Relation::FromColumns("t", source.schema(), {1, 1},
                                             built.dictionaries(), built.columns());
  ASSERT_TRUE(rel.has_columns());
  EncodedRelation enc(&rel);

  enc.SetCell(1, 0, Value::String("x"));  // a held value: no dictionary copy
  EXPECT_EQ(enc.code(1, 0), enc.code(0, 0));
  EXPECT_EQ(&enc.dictionary(0), rel.dictionaries()[0].get());
  enc.SetCell(0, 1, Value::Null());  // NULL: the NULL code, no dictionary copy
  EXPECT_EQ(enc.code(0, 1), kNullCode);
  EXPECT_EQ(&enc.dictionary(1), rel.dictionaries()[1].get());
  enc.SetCell(1, 1, Value::String("w"));  // a new value: a detached copy grows
  EXPECT_NE(&enc.dictionary(1), rel.dictionaries()[1].get());
  EXPECT_EQ(enc.Decode(1, enc.code(1, 1)), Value::String("w"));
  EXPECT_EQ(rel.dictionaries()[1]->Lookup(Value::String("w")), kAbsentCode);

  // The relation's codes are untouched, and the snapshot still reports in
  // sync (it must never be Sync()ed after such writes).
  for (TupleId tid = 0; tid < 2; ++tid) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(rel.columns()[c][static_cast<size_t>(tid)], built.code(tid, c));
    }
  }
  EXPECT_EQ(rel.cell(1, 1), Value::String("v"));
  EXPECT_TRUE(enc.InSync());
}

TEST(EncodedRelationTest, DeletesNeedNoCodeWork) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A"}, {{"x"}, {"y"}});
  EncodedRelation enc(&rel);
  ASSERT_OK(rel.Delete(0));
  enc.Sync();
  EXPECT_TRUE(enc.InSync());
  std::vector<TupleId> live;
  enc.ForEachLive([&](TupleId tid) { live.push_back(tid); });
  EXPECT_EQ(live, (std::vector<TupleId>{1}));
}

}  // namespace
}  // namespace semandaq::relational
