#include "relational/dictionary.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "relational/relation.h"
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

// ------------------------------------------------------------ Relation

TEST(RelationCodesTest, CodesDecodeToTheCells) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  ASSERT_EQ(rel.columns().size(), rel.schema().size());
  rel.ForEach([&](TupleId tid, const Row& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(rel.dictionary(c).Decode(rel.code(tid, c)), row[c])
          << "cell (" << tid << ", " << c << ")";
    }
  });
}

TEST(RelationCodesTest, NullCellsEncodeToNullCode) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"", "x"}, {"y", ""}});
  EXPECT_EQ(rel.code(0, 0), kNullCode);
  EXPECT_NE(rel.code(0, 1), kNullCode);
  EXPECT_NE(rel.code(1, 0), kNullCode);
  EXPECT_EQ(rel.code(1, 1), kNullCode);
}

TEST(RelationCodesTest, EqualValuesShareOneCodePerColumn) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "x"}, {"x", "y"}});
  EXPECT_EQ(rel.code(0, 0), rel.code(1, 0));  // same column, same value
  // Dictionaries are per column: "x" in A and "x" in B code independently.
  EXPECT_EQ(rel.dictionary(0).size(), 1u);
  EXPECT_EQ(rel.dictionary(1).size(), 2u);
}

TEST(RelationCodesTest, CodesFollowEveryWrite) {
  // Inserts, overwrites and deletes show in the codes at once.
  Relation rel = semandaq::testing::MakeStringRelation("t", {"A"}, {{"x"}});
  rel.MustInsert({Value::String("y")});
  rel.MustInsert({Value::String("x")});
  ASSERT_EQ(rel.IdBound(), 3);
  EXPECT_EQ(rel.code(2, 0), rel.code(0, 0));  // appended "x" reuses the code
  EXPECT_NE(rel.code(1, 0), rel.code(0, 0));
  ASSERT_OK(rel.SetCell(0, 0, Value::String("z")));
  EXPECT_EQ(rel.dictionary(0).Decode(rel.code(0, 0)), Value::String("z"));
  ASSERT_OK(rel.Delete(1));
  EXPECT_EQ(rel.LiveIds(), (std::vector<TupleId>{0, 2}));
}

TEST(RelationCodesTest, SetCellOnACopyDetachesCopyOnWrite) {
  // A copy shares the original's chunks and dictionaries. SetCell detaches
  // the chunk before writing, and only a value new to the column detaches
  // (and grows) the dictionary, so the original's codes and values never
  // change.
  const Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "u"}, {"y", "v"}});
  const std::vector<CodeColumn> before = rel.columns();
  Relation copy = rel;
  EXPECT_EQ(copy.dictionaries()[0].get(), rel.dictionaries()[0].get());
  EXPECT_EQ(copy.columns()[0].data(), rel.columns()[0].data());

  ASSERT_OK(copy.SetCell(1, 0, Value::String("x")));  // held: no dict copy
  EXPECT_EQ(copy.columns()[0][1], copy.columns()[0][0]);
  EXPECT_NE(copy.columns()[0].data(), rel.columns()[0].data());
  EXPECT_EQ(copy.dictionaries()[0].get(), rel.dictionaries()[0].get());
  ASSERT_OK(copy.SetCell(0, 1, Value::Null()));  // NULL: no dict copy
  EXPECT_EQ(copy.columns()[1][0], kNullCode);
  EXPECT_EQ(copy.dictionaries()[1].get(), rel.dictionaries()[1].get());
  ASSERT_OK(copy.SetCell(1, 1, Value::String("w")));  // new: detached copy grows
  EXPECT_NE(copy.dictionaries()[1].get(), rel.dictionaries()[1].get());
  EXPECT_EQ(copy.cell(1, 1), Value::String("w"));
  EXPECT_EQ(rel.dictionaries()[1]->Lookup(Value::String("w")), kAbsentCode);

  // The original's codes and values are untouched.
  for (size_t c = 0; c < 2; ++c) EXPECT_EQ(rel.columns()[c], before[c]);
  EXPECT_EQ(rel.cell(0, 1), Value::String("u"));
  EXPECT_EQ(rel.cell(1, 0), Value::String("y"));
  EXPECT_EQ(rel.cell(1, 1), Value::String("v"));
}

TEST(RelationCodesTest, InternReservesACodeALaterInsertReuses) {
  Relation rel = semandaq::testing::MakeStringRelation("t", {"A"}, {{"x"}});
  const uint64_t version = rel.version();
  const Code code = rel.Intern(0, Value::String("later"));
  EXPECT_NE(code, kAbsentCode);
  EXPECT_EQ(rel.version(), version);  // no cell changed
  EXPECT_EQ(rel.size(), 1u);
  const TupleId tid = rel.MustInsert({Value::String("later")});
  EXPECT_EQ(rel.columns()[0][static_cast<size_t>(tid)], code);
  EXPECT_EQ(rel.Intern(0, Value::Null()), kNullCode);
}

}  // namespace
}  // namespace semandaq::relational
