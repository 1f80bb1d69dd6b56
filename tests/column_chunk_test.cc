// The COW column-chunk layer (src/relational/column_chunk): frozen shares
// must be bit-stable forever — writer appends land past their size, writer
// overwrites detach first — copies must keep plain value semantics, and a
// relation built over columns must decode exactly the rows that were
// encoded.
// These invariants are the foundation of the server's lock-free epoch
// publication (docs/server.md), so they are tested directly here in
// isolation from the server.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "relational/column_chunk.h"
#include "relational/dictionary.h"
#include "relational/relation.h"
#include "relational/value.h"
#include "test_util.h"

namespace semandaq::relational {
namespace {

std::vector<Code> Contents(const CodeColumn& c) {
  return std::vector<Code>(c.begin(), c.end());
}

TEST(CodeColumnTest, PushBackAndRead) {
  CodeColumn col;
  EXPECT_TRUE(col.empty());
  for (Code c = 1; c <= 100; ++c) col.PushBack(c);
  ASSERT_EQ(col.size(), 100u);
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(col[i], static_cast<Code>(i + 1));
  }
  // Contiguity: the read surface is one flat array.
  EXPECT_EQ(col.end() - col.begin(), 100);
}

TEST(CodeColumnTest, FrozenShareSurvivesAppends) {
  CodeColumn col;
  for (Code c = 0; c < 10; ++c) col.PushBack(c);
  const CodeColumn frozen = col.ShareFrozen();
  ASSERT_EQ(frozen.size(), 10u);

  // Appends past the frozen size must not relocate away from the shared
  // chunk (zero-copy append) until capacity forces growth...
  col.PushBack(10);
  EXPECT_EQ(col.size(), 11u);
  EXPECT_EQ(frozen.size(), 10u);
  // ...and must never disturb the frozen prefix, growth included.
  for (Code c = 11; c < 5000; ++c) col.PushBack(c);
  EXPECT_EQ(col.size(), 5000u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(frozen[i], static_cast<Code>(i));
}

TEST(CodeColumnTest, FrozenShareSurvivesOverwrites) {
  CodeColumn col;
  for (Code c = 0; c < 8; ++c) col.PushBack(c);
  const CodeColumn frozen = col.ShareFrozen();
  EXPECT_EQ(col.chunk_use_count(), 2);

  // An overwrite below the watermark must detach (COW): the writer sees
  // the new byte, the frozen view keeps the old one.
  col.Set(3, 999);
  EXPECT_EQ(col[3], 999u);
  EXPECT_EQ(frozen[3], 3u);
  EXPECT_EQ(frozen.chunk_use_count(), 1);  // writer moved to a clone

  // After the detach the writer owns its chunk again: further overwrites
  // are in place (no second clone).
  const Code* data_after_detach = col.data();
  col.Set(4, 888);
  EXPECT_EQ(col.data(), data_after_detach);
  EXPECT_EQ(col[4], 888u);
}

TEST(CodeColumnTest, AppendsPastWatermarkStayInPlace) {
  CodeColumn col;
  for (Code c = 0; c < 4; ++c) col.PushBack(c);
  const CodeColumn frozen = col.ShareFrozen();
  col.PushBack(4);
  // Setting an index the frozen view cannot see needs no COW.
  const long shared_count = col.chunk_use_count();
  col.Set(4, 777);
  EXPECT_EQ(col.chunk_use_count(), shared_count);
  EXPECT_EQ(col[4], 777u);
  EXPECT_EQ(frozen.size(), 4u);
}

TEST(CodeColumnTest, CopyHasValueSemantics) {
  CodeColumn a;
  for (Code c = 0; c < 6; ++c) a.PushBack(c);
  CodeColumn b = a;  // O(1): shares the chunk copy-on-write
  EXPECT_EQ(a.chunk_use_count(), 2);
  EXPECT_EQ(Contents(a), Contents(b));

  // Either side mutating must not leak into the other.
  b.Set(0, 100);
  EXPECT_EQ(a[0], 0u);
  EXPECT_EQ(b[0], 100u);
  a.Set(1, 200);
  EXPECT_EQ(a[1], 200u);
  EXPECT_EQ(b[1], 1u);

  // The copy does not own the shared tail: its first append relocates
  // instead of scribbling past the original's size.
  CodeColumn c = a;
  c.PushBack(42);
  EXPECT_EQ(a.size(), 6u);
  EXPECT_EQ(c.size(), 7u);
  EXPECT_EQ(c[6], 42u);
  EXPECT_EQ(Contents(a), (std::vector<Code>{0, 200, 2, 3, 4, 5}));
}

TEST(CodeColumnTest, CopyAssignReleasesOldChunk) {
  CodeColumn a;
  a.PushBack(1);
  CodeColumn b;
  b.PushBack(2);
  b = a;
  EXPECT_EQ(a.chunk_use_count(), 2);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 1u);
  b.PushBack(5);  // relocates: b never owned a's tail
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
}

TEST(CodeColumnTest, AssignAndAssignFillDetachFromShares) {
  CodeColumn col;
  for (Code c = 0; c < 5; ++c) col.PushBack(c);
  const CodeColumn frozen = col.ShareFrozen();

  const std::vector<Code> src = {9, 8, 7};
  col.Assign(src.data(), src.size());
  EXPECT_EQ(Contents(col), src);
  EXPECT_EQ(frozen.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(frozen[i], static_cast<Code>(i));

  const CodeColumn frozen2 = col.ShareFrozen();
  col.AssignFill(4, 11);
  EXPECT_EQ(Contents(col), std::vector<Code>(4, 11));
  EXPECT_EQ(Contents(frozen2), src);
}

TEST(CodeColumnTest, ExtendFillAppendsInPlace) {
  CodeColumn col;
  col.PushBack(1);
  const CodeColumn frozen = col.ShareFrozen();
  col.ExtendFill(6, 3);
  EXPECT_EQ(Contents(col), (std::vector<Code>{1, 3, 3, 3, 3, 3}));
  col.ExtendFill(2, 4);  // n <= size: no-op
  EXPECT_EQ(col.size(), 6u);
  EXPECT_EQ(frozen.size(), 1u);
  EXPECT_EQ(frozen[0], 1u);
}

TEST(CodeColumnTest, EqualityComparesLogicalContents) {
  CodeColumn a;
  CodeColumn b;
  for (Code c = 0; c < 3; ++c) {
    a.PushBack(c);
    b.PushBack(c);
  }
  EXPECT_EQ(a, b);
  b.PushBack(3);
  EXPECT_NE(a, b);
  // A frozen share equals its source at the shared prefix length.
  EXPECT_EQ(a.ShareFrozen(), a);
}

TEST(CodeColumnTest, ColumnBackedRelationDecodesItsRows) {
  // Two columns over shared dictionaries, one dead row in the middle.
  auto dict0 = std::make_shared<Dictionary>();
  auto dict1 = std::make_shared<Dictionary>();
  std::vector<std::vector<Value>> rows = {
      {Value::String("a"), Value::String("x")},
      {Value::String("b"), Value::Null()},
      {Value::String("a"), Value::String("y")},
  };
  std::vector<CodeColumn> columns(2);
  for (const auto& row : rows) {
    columns[0].PushBack(dict0->Encode(row[0]));
    columns[1].PushBack(dict1->Encode(row[1]));
  }
  const std::vector<uint8_t> live = {1, 0, 1};
  const Schema schema = Schema::AllStrings({"A", "B"});

  const Relation rel =
      Relation::FromColumns("t", schema, live, {dict0, dict1}, columns);
  ASSERT_EQ(rel.IdBound(), 3);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_FALSE(rel.IsLive(1));
  EXPECT_EQ(rel.row(0), rows[0]);
  EXPECT_EQ(rel.row(2), rows[2]);

  // Built over frozen shares of the columns (the server's epoch path), the
  // relation decodes the same rows, and the source columns stay untouched.
  std::vector<CodeColumn> frozen;
  frozen.push_back(columns[0].ShareFrozen());
  frozen.push_back(columns[1].ShareFrozen());
  const Relation shared =
      Relation::FromColumns("t", schema, live, {dict0, dict1}, frozen);
  EXPECT_EQ(shared.row(0), rows[0]);
  EXPECT_EQ(shared.row(2), rows[2]);
  EXPECT_EQ(columns[0].data(), shared.columns()[0].data());
}

}  // namespace
}  // namespace semandaq::relational
