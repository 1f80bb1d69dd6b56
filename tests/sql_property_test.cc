// Property tests for the SQL substrate: on randomized relations, executor
// results must agree with a naive reference evaluation done in the test
// (independent code path, no shared logic with the engine). Every property
// runs twice against the same reference: once on the row-built relations
// (the value paths) and once on their column-backed twins, saved and
// reopened (the code paths: string-literal filters, same-column joins and
// GROUP BY on dictionary codes).

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "relational/database.h"
#include "sql/engine.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace semandaq::sql {
namespace {

using relational::Database;
using relational::Relation;
using relational::Row;
using relational::Schema;
using relational::TupleId;
using relational::Value;

/// Random relation R(A, B, C) with small value domains (to force duplicate
/// keys, group collisions, and NULLs).
Relation RandomRelation(common::Rng* rng, size_t rows) {
  Relation rel{"r", Schema::AllStrings({"A", "B", "C"})};
  for (size_t i = 0; i < rows; ++i) {
    auto cell = [&](int domain) {
      if (rng->NextBool(0.1)) return Value::Null();
      return Value::String(std::string(1, static_cast<char>('a' + rng->NextBelow(
                                                                 domain))));
    };
    rel.MustInsert({cell(4), cell(3), cell(5)});
  }
  return rel;
}

/// Parameters: the seed, and whether the queries run on column-backed
/// twins of the generated relations.
class SqlProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {
 protected:
  uint64_t Seed() const { return std::get<0>(GetParam()); }

  /// Registers `rel` in `db` as generated, or as its reopened twin: saved
  /// as a snapshot and reopened, so the executor reads the loaded codes.
  /// Returns the generated relation, the reference's input.
  const Relation* Serve(Database* db, Relation rel) {
    generated_.push_back(std::make_unique<Relation>(std::move(rel)));
    const Relation& ref = *generated_.back();
    if (!std::get<1>(GetParam())) {
      EXPECT_OK(db->AddRelation(ref.Clone()));
      return &ref;
    }
    const std::string path = ::testing::TempDir() + "/sql_property_" +
                             ref.name() + "_" + std::to_string(Seed()) + ".sdq";
    EXPECT_OK(storage::SnapshotWriter::Write(ref, path).status());
    auto loaded = storage::SnapshotReader::Read(path);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_OK(db->AddRelation(std::move(loaded->relation)));
    return &ref;
  }

 private:
  std::vector<std::unique_ptr<Relation>> generated_;
};

TEST_P(SqlProperty, FilterEqualsReference) {
  common::Rng rng(Seed());
  Database db;
  const Relation* rel = Serve(&db, RandomRelation(&rng, 200));
  Engine engine(&db);

  ASSERT_OK_AND_ASSIGN(Relation got,
                       engine.Query("SELECT __tid FROM r WHERE A = 'a' AND "
                                    "(B = 'b' OR C IS NULL)"));
  std::set<TupleId> got_ids;
  got.ForEach([&](TupleId, const Row& row) { got_ids.insert(row[0].AsInt()); });

  std::set<TupleId> want_ids;
  rel->ForEach([&](TupleId tid, const Row& row) {
    const bool a = !row[0].is_null() && row[0].AsString() == "a";
    const bool b = !row[1].is_null() && row[1].AsString() == "b";
    const bool c_null = row[2].is_null();
    if (a && (b || c_null)) want_ids.insert(tid);
  });
  EXPECT_EQ(got_ids, want_ids);
}

TEST_P(SqlProperty, GroupCountEqualsReference) {
  common::Rng rng(Seed() ^ 0xABCD);
  Database db;
  const Relation* rel = Serve(&db, RandomRelation(&rng, 300));
  Engine engine(&db);

  ASSERT_OK_AND_ASSIGN(
      Relation got,
      engine.Query("SELECT A, COUNT(*) AS n, COUNT(DISTINCT B) AS d FROM r "
                   "WHERE A IS NOT NULL GROUP BY A"));

  std::map<std::string, std::pair<int64_t, std::set<std::string>>> want;
  rel->ForEach([&](TupleId, const Row& row) {
    if (row[0].is_null()) return;
    auto& slot = want[row[0].AsString()];
    ++slot.first;
    if (!row[1].is_null()) slot.second.insert(row[1].AsString());
  });

  EXPECT_EQ(got.size(), want.size());
  got.ForEach([&](TupleId, const Row& row) {
    auto it = want.find(row[0].AsString());
    ASSERT_NE(it, want.end());
    EXPECT_EQ(row[1].AsInt(), it->second.first);
    EXPECT_EQ(row[2].AsInt(), static_cast<int64_t>(it->second.second.size()));
  });
}

TEST_P(SqlProperty, JoinEqualsReference) {
  common::Rng rng(Seed() ^ 0x1234);
  Database db;
  const Relation* r = Serve(&db, RandomRelation(&rng, 120));
  // Second relation S(K, V) joining on r.A = s.K.
  Relation s{"s", Schema::AllStrings({"K", "V"})};
  for (size_t i = 0; i < 40; ++i) {
    s.MustInsert({rng.NextBool(0.1)
                      ? Value::Null()
                      : Value::String(std::string(1, static_cast<char>(
                                                         'a' + rng.NextBelow(5)))),
                  Value::String(std::to_string(i))});
  }
  const Relation* s2 = Serve(&db, std::move(s));
  Engine engine(&db);

  ASSERT_OK_AND_ASSIGN(
      Relation got,
      engine.Query("SELECT COUNT(*) FROM r, s WHERE r.A = s.K"));

  int64_t want = 0;
  r->ForEach([&](TupleId, const Row& rr) {
    if (rr[0].is_null()) return;
    s2->ForEach([&](TupleId, const Row& sr) {
      if (sr[0].is_null()) return;
      if (rr[0] == sr[0]) ++want;
    });
  });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.cell(0, 0).AsInt(), want);
}

TEST_P(SqlProperty, OrderByIsTotalAndStable) {
  common::Rng rng(Seed() ^ 0x77);
  Database db;
  Serve(&db, RandomRelation(&rng, 150));
  Engine engine(&db);
  ASSERT_OK_AND_ASSIGN(Relation got,
                       engine.Query("SELECT A, B FROM r ORDER BY A, B DESC"));
  // Verify the ordering invariant pairwise.
  Row prev;
  bool first = true;
  got.ForEach([&](TupleId, const Row& row) {
    if (!first) {
      const int ca = prev[0].Compare(row[0]);
      EXPECT_LE(ca, 0);
      if (ca == 0) {
        EXPECT_GE(prev[1].Compare(row[1]), 0);  // DESC on B
      }
    }
    prev = row;
    first = false;
  });
  EXPECT_EQ(got.size(), 150u);
}

TEST_P(SqlProperty, DistinctMatchesSetSemantics) {
  common::Rng rng(Seed() ^ 0x3141);
  Database db;
  const Relation* rel = Serve(&db, RandomRelation(&rng, 250));
  Engine engine(&db);
  ASSERT_OK_AND_ASSIGN(Relation got, engine.Query("SELECT DISTINCT A, B FROM r"));
  std::set<std::pair<std::string, std::string>> want;
  rel->ForEach([&](TupleId, const Row& row) {
    want.emplace(row[0].ToDisplayString(), row[1].ToDisplayString());
  });
  EXPECT_EQ(got.size(), want.size());
}

// The self-join shape of the Q_V detection query: both sides read the same
// columns of the same relation, so the code path joins on codes.
TEST_P(SqlProperty, SameColumnSelfJoinEqualsReference) {
  common::Rng rng(Seed() ^ 0x5E1F);
  Database db;
  const Relation* rel = Serve(&db, RandomRelation(&rng, 120));
  Engine engine(&db);
  ASSERT_OK_AND_ASSIGN(
      Relation got,
      engine.Query("SELECT t1.__tid, t2.__tid FROM r t1, r t2 WHERE "
                   "t1.A = t2.A AND t1.B = t2.B AND t1.C <> t2.C"));
  std::set<std::pair<TupleId, TupleId>> got_pairs;
  got.ForEach([&](TupleId, const Row& row) {
    got_pairs.emplace(row[0].AsInt(), row[1].AsInt());
  });
  EXPECT_EQ(got_pairs.size(), got.size());  // no pair twice

  std::set<std::pair<TupleId, TupleId>> want;
  rel->ForEach([&](TupleId t1, const Row& a) {
    rel->ForEach([&](TupleId t2, const Row& b) {
      const auto eq = [](const Value& x, const Value& y) {
        return !x.is_null() && !y.is_null() && x == y;
      };
      if (eq(a[0], b[0]) && eq(a[1], b[1]) && !a[2].is_null() &&
          !b[2].is_null() && a[2] != b[2]) {
        want.emplace(t1, t2);
      }
    });
  });
  EXPECT_EQ(got_pairs, want);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SqlProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u),
                       ::testing::Bool()));

}  // namespace
}  // namespace semandaq::sql
