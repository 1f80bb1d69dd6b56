#include <gtest/gtest.h>

#include "relational/update.h"
#include "test_util.h"

namespace semandaq::relational {
namespace {

Relation SampleRel() {
  return testing::MakeStringRelation("t", {"CNT", "ZIP", "CITY"},
                                     {
                                         {"UK", "EH2", "Edinburgh"},
                                         {"UK", "EH2", "Edinburgh"},
                                         {"UK", "W1", "London"},
                                         {"NL", "10", "Amsterdam"},
                                     });
}

TEST(UpdateTest, ToStringDescribes) {
  EXPECT_NE(Update::Insert({Value::String("x")}).ToString().find("INSERT"),
            std::string::npos);
  EXPECT_NE(Update::DeleteTuple(3).ToString().find("DELETE #3"), std::string::npos);
  EXPECT_NE(Update::Modify(2, 1, Value::String("v")).ToString().find("MODIFY #2"),
            std::string::npos);
}

TEST(ApplyUpdatesTest, AppliesInOrder) {
  Relation rel = SampleRel();
  std::vector<TupleId> inserted;
  UpdateBatch batch = {
      Update::Insert({Value::String("US"), Value::String("606"),
                      Value::String("Chicago")}),
      Update::Modify(0, 2, Value::String("Leith")),
      Update::DeleteTuple(3),
  };
  ASSERT_OK(ApplyUpdates(batch, &rel, &inserted));
  ASSERT_EQ(inserted.size(), 1u);
  EXPECT_EQ(inserted[0], 4);
  EXPECT_EQ(rel.cell(0, 2).AsString(), "Leith");
  EXPECT_FALSE(rel.IsLive(3));
  EXPECT_EQ(rel.size(), 4u);
}

TEST(ApplyUpdatesTest, StopsAtFirstError) {
  Relation rel = SampleRel();
  UpdateBatch batch = {
      Update::Modify(0, 2, Value::String("ok")),
      Update::DeleteTuple(99),  // fails
      Update::Modify(1, 2, Value::String("never applied")),
  };
  EXPECT_FALSE(ApplyUpdates(batch, &rel).ok());
  EXPECT_EQ(rel.cell(0, 2).AsString(), "ok");
  EXPECT_EQ(rel.cell(1, 2).AsString(), "Edinburgh");
}

}  // namespace
}  // namespace semandaq::relational
