#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "cfd_oracle.h"
#include "detect/native_detector.h"
#include "discovery/cfd_miner.h"
#include "discovery/fd_miner.h"
#include "discovery/partition.h"
#include "relational/encoded_relation.h"
#include "test_util.h"
#include "workload/customer_gen.h"

namespace semandaq::discovery {
namespace {

using relational::Relation;
using relational::Value;

// -------------------------------------------------------------- Partition --

/// Π_X over the encoded snapshot must be Π_X from the definition: the same
/// classes (stripped of singletons) in first-touch order, the same coverage,
/// and ClassOf giving every covered tuple, singletons included, the index
/// of its class in that order (-1 for the rest).
void ExpectOraclePartition(const Partition& p, const Relation& rel,
                           const std::vector<size_t>& cols) {
  const auto want = oracle::PartitionClasses(rel, cols);
  std::vector<std::vector<relational::TupleId>> stripped;
  std::vector<int32_t> class_of(static_cast<size_t>(rel.IdBound()) + 1, -1);
  size_t covered = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    covered += want[i].size();
    if (want[i].size() >= 2) stripped.push_back(want[i]);
    for (relational::TupleId t : want[i]) {
      class_of[static_cast<size_t>(t)] = static_cast<int32_t>(i);
    }
  }
  EXPECT_EQ(p.num_classes(), want.size());
  EXPECT_EQ(p.num_tuples(), covered);
  EXPECT_EQ(p.Error(), covered - want.size());
  EXPECT_EQ(p.classes(), stripped);
  for (size_t t = 0; t < class_of.size(); ++t) {
    EXPECT_EQ(p.ClassOf(static_cast<relational::TupleId>(t)), class_of[t])
        << "tid " << t;
  }
}

TEST(PartitionTest, BuildGroupsEqualValues) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "2"}, {"y", "1"}, {"x", "3"}});
  const relational::EncodedRelation enc(&rel);
  Partition p = Partition::Build(enc, {0});
  ExpectOraclePartition(p, rel, {0});
  EXPECT_EQ(p.num_classes(), 2u);
  EXPECT_EQ(p.num_tuples(), 4u);
  ASSERT_EQ(p.classes().size(), 1u);  // only {x} is non-singleton
  EXPECT_EQ(p.classes()[0].size(), 3u);
  EXPECT_EQ(p.ClassOf(0), p.ClassOf(1));
  EXPECT_NE(p.ClassOf(0), p.ClassOf(2));
}

TEST(PartitionTest, NullsExcluded) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A"}, {{"x"}, {""}, {"x"}});
  const relational::EncodedRelation enc(&rel);
  Partition p = Partition::Build(enc, {0});
  ExpectOraclePartition(p, rel, {0});
  EXPECT_EQ(p.num_tuples(), 2u);
  EXPECT_EQ(p.ClassOf(1), -1);
}

TEST(PartitionTest, IntersectIsProductPartition) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"x", "2"}, {"y", "1"}});
  const relational::EncodedRelation enc(&rel);
  Partition pa = Partition::Build(enc, {0});
  Partition pb = Partition::Build(enc, {1});
  ExpectOraclePartition(Partition::Intersect(pa, pb), rel, {0, 1});
  ExpectOraclePartition(Partition::Build(enc, {0, 1}), rel, {0, 1});
}

/// K and J are keys with NULLs in different rows, N is a key but for one
/// pair, and L has two values and NULLs; two tuples are deleted. So the
/// products below have operands whose classes are all, or all but one,
/// singletons, and each side leaves tuples the other covers uncovered.
Relation KeyLikeRelation() {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"K", "J", "N", "L"},
      {{"k0", "j0", "n0", "a"}, {"k1", "", "n1", "b"}, {"", "j2", "n2", "a"},
       {"k3", "j3", "n1", ""}, {"k4", "j4", "n4", "a"}, {"k5", "j5", "", "b"},
       {"", "", "n6", "a"}, {"k7", "j7", "n7", "b"}, {"k8", "j8", "n8", "a"},
       {"k9", "", "n9", ""}, {"k10", "j10", "n10", "a"}, {"k11", "j11", "n11", "b"}});
  EXPECT_OK(rel.Delete(4));
  EXPECT_OK(rel.Delete(7));
  return rel;
}

TEST(PartitionTest, IntersectWithKeyOperands) {
  const Relation rel = KeyLikeRelation();
  const relational::EncodedRelation enc(&rel);
  std::vector<Partition> base;
  for (size_t c = 0; c < 4; ++c) {
    base.push_back(Partition::Build(enc, {c}));
    ExpectOraclePartition(base.back(), rel, {c});
  }
  EXPECT_TRUE(base[0].classes().empty());
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = 0; b < 4; ++b) {
      if (a == b) continue;
      SCOPED_TRACE("Intersect(" + std::to_string(a) + ", " + std::to_string(b) + ")");
      const Partition product = Partition::Intersect(base[a], base[b]);
      ExpectOraclePartition(product, rel, {std::min(a, b), std::max(a, b)});
      // A product that is all singletons is a key operand in its turn.
      size_t c = 0;
      while (c == a || c == b) ++c;
      std::vector<size_t> cols = {a, b, c};
      std::sort(cols.begin(), cols.end());
      ExpectOraclePartition(Partition::Intersect(product, base[c]), rel, cols);
      ExpectOraclePartition(Partition::Intersect(base[c], product), rel, cols);
    }
  }
}

TEST(PartitionTest, RefinesDetectsFd) {
  // A -> B holds; B -> A does not (B=1 spans A=x and A=y).
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}, {"z", "1"}});
  const relational::EncodedRelation enc(&rel);
  const oracle::Pairs pairs(rel);
  Partition pa = Partition::Build(enc, {0});
  Partition pab = Partition::Build(enc, {0, 1});
  EXPECT_TRUE(pairs.FdHolds(0b01, 1));
  EXPECT_TRUE(pa.Refines(pab));
  Partition pb = Partition::Build(enc, {1});
  EXPECT_FALSE(pairs.FdHolds(0b10, 0));
  EXPECT_FALSE(pb.Refines(pab));
}

// ---------------------------------------------------------------- FdMiner --

TEST(FdMinerTest, MinesExactlyTheOracleFds) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}});
  EXPECT_EQ(oracle::FdsOf(FdMiner(&rel).Mine()),
            oracle::MinimalFds(oracle::Pairs(rel), 3));
  EXPECT_TRUE(oracle::Pairs(rel).FdHolds(0b01, 1));
  Relation bad = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "2"}});
  EXPECT_EQ(oracle::FdsOf(FdMiner(&bad).Mine()),
            oracle::MinimalFds(oracle::Pairs(bad), 3));
  EXPECT_FALSE(oracle::Pairs(bad).FdHolds(0b01, 1));
}

TEST(FdMinerTest, FindsPlantedFds) {
  // ZIP -> CITY and ZIP -> STATE planted; CITY does not determine ZIP.
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"ZIP", "CITY", "STATE"},
      {{"1", "a", "s1"}, {"1", "a", "s1"}, {"2", "a", "s1"}, {"3", "b", "s2"}});
  FdMiner miner(&rel);
  auto fds = miner.Mine();
  auto has_fd = [&](std::vector<size_t> lhs, size_t rhs) {
    for (const auto& fd : fds) {
      if (fd.lhs_cols == lhs && fd.rhs_col == rhs) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_fd({0}, 1));  // ZIP -> CITY
  EXPECT_TRUE(has_fd({0}, 2));  // ZIP -> STATE
  EXPECT_FALSE(has_fd({1}, 0)); // CITY -/-> ZIP
}

TEST(FdMinerTest, OnlyMinimalFdsEmitted) {
  // A -> C holds, so {A,B} -> C must not be emitted.
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C"},
      {{"x", "1", "c1"}, {"x", "2", "c1"}, {"y", "1", "c2"}});
  FdMiner miner(&rel);
  auto fds = miner.Mine();
  for (const auto& fd : fds) {
    if (fd.rhs_col == 2) {
      EXPECT_EQ(fd.lhs_cols.size(), 1u) << "non-minimal FD emitted";
    }
  }
}

TEST(FdMinerTest, MaxLhsBoundsSearch) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C", "D"},
      {{"1", "2", "3", "4"}, {"1", "2", "3", "4"}});
  FdMinerOptions opts;
  opts.max_lhs = 1;
  FdMiner miner(&rel, opts);
  for (const auto& fd : miner.Mine()) {
    EXPECT_LE(fd.lhs_cols.size(), 1u);
  }
}

// --------------------------------------------------------------- CfdMiner --

TEST(CfdMinerTest, EveryMinedCfdHoldsOnTheInstance) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 300;
  opts.noise_rate = 0.0;  // mine on clean reference data
  opts.seed = 21;
  auto wl = workload::CustomerGenerator::Generate(opts);

  CfdMinerOptions mopts;
  mopts.max_lhs = 2;
  mopts.min_support = 3;
  CfdMiner miner(&wl.clean, mopts);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());
  ASSERT_FALSE(mined.empty());

  // Re-verify with the detector: zero violations for every mined CFD.
  detect::NativeDetector detector(&wl.clean, mined);
  ASSERT_OK_AND_ASSIGN(auto table, detector.Detect());
  EXPECT_EQ(table.TotalVio(), 0);
}

TEST(CfdMinerTest, FindsThePapersConditionalDependency) {
  // In customer data, [CNT, ZIP] -> [STR] fails globally (US zips shared by
  // streets) but holds where CNT=UK — exactly the paper's phi2. The miner
  // must surface a variable CFD on (CNT,ZIP) -> STR conditioned on a UK-ish
  // constant.
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 400;
  opts.noise_rate = 0.0;
  opts.seed = 22;
  auto wl = workload::CustomerGenerator::Generate(opts);

  CfdMinerOptions mopts;
  mopts.max_lhs = 2;
  mopts.min_support = 3;
  CfdMiner miner(&wl.clean, mopts);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());

  bool found_phi2_shape = false;
  for (const auto& cfd : mined) {
    if (cfd.rhs_attr() != "STR") continue;
    for (const auto& pt : cfd.tableau()) {
      if (pt.rhs.is_wildcard()) {
        for (const auto& pv : pt.lhs) {
          if (pv.is_constant() && pv.constant() == Value::String("UK")) {
            found_phi2_shape = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(found_phi2_shape);
}

TEST(CfdMinerTest, NullRhsMembersAreNeitherEvidenceNorConflict) {
  // [C, B] -> A fails globally (c3, b1), and so do C -> A and B -> A. Under
  // C = c1 the classes of Π_{C,B} are {3 tuples, one with a NULL A} and
  // {2, one NULL}: 2 tuples of evidence, below support 3. Under C = c2 they
  // are {3 x} and {y, NULL}: 3 tuples of evidence and no conflict, as the
  // NULL is no value. Under B = b2 every class has one non-NULL A.
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"C", "B", "A"},
      {{"c1", "b1", "a1"}, {"c1", "b1", "a1"}, {"c1", "b1", ""},
       {"c1", "b2", "a2"}, {"c1", "b2", ""}, {"c2", "b1", "x"},
       {"c2", "b1", "x"}, {"c2", "b1", "x"}, {"c2", "b2", ""},
       {"c2", "b2", "y"}, {"c3", "b1", "p"}, {"c3", "b1", "q"},
       {"c3", "b2", "p"}});
  CfdMinerOptions mopts;
  mopts.max_lhs = 2;
  mopts.min_support = 3;
  ASSERT_OK_AND_ASSIGN(auto mined, CfdMiner(&rel, mopts).Mine());
  const std::vector<std::string> rows = oracle::RowsOf(mined);
  EXPECT_EQ(rows, oracle::MinedCfdRows(rel, mopts));

  auto conditioned = [](const char* c, const char* b) {
    cfd::PatternTuple pt;
    pt.lhs = {c[0] != 0 ? cfd::PatternValue::Constant(Value::String(c))
                        : cfd::PatternValue::Wildcard(),
              b[0] != 0 ? cfd::PatternValue::Constant(Value::String(b))
                        : cfd::PatternValue::Wildcard()};
    pt.rhs = cfd::PatternValue::Wildcard();
    return oracle::RowKey({"C", "B"}, "A", pt);
  };
  auto has = [&](const std::string& row) {
    return std::find(rows.begin(), rows.end(), row) != rows.end();
  };
  EXPECT_TRUE(has(conditioned("c2", "")));
  EXPECT_FALSE(has(conditioned("c1", "")));
  EXPECT_FALSE(has(conditioned("", "b2")));
}

TEST(CfdMinerTest, GlobalFdBecomesWildcardCfd) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}});
  CfdMinerOptions mopts;
  mopts.min_support = 2;
  CfdMiner miner(&rel, mopts);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());
  bool found_fd = false;
  for (const auto& cfd : mined) {
    if (cfd.IsStandardFd() && cfd.rhs_attr() == "B") found_fd = true;
  }
  EXPECT_TRUE(found_fd);
}

TEST(CfdMinerTest, SupportThresholdFiltersRarePatterns) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C"},
      {{"x", "1", "q"}, {"x", "1", "q"}, {"x", "1", "q"}, {"y", "2", "r"}});
  CfdMinerOptions strict;
  strict.min_support = 4;  // nothing has support 4 at constant level
  strict.include_global_fds = false;
  CfdMiner miner(&rel, strict);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());
  for (const auto& cfd : mined) {
    for (const auto& pt : cfd.tableau()) {
      EXPECT_TRUE(pt.is_pure_fd_row()) << cfd.ToString();
    }
  }
}

TEST(CfdMinerTest, MinedConstantsAreLeftReduced) {
  // C is constant wherever A=x, regardless of B; the miner should emit the
  // one-attribute pattern [A=x] -> [C=q], not [A=x, B=..] -> [C=q].
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C"},
      {{"x", "1", "q"}, {"x", "2", "q"}, {"x", "3", "q"},
       {"x", "1", "q"}, {"x", "2", "q"}, {"x", "3", "q"},
       {"y", "1", "r"}, {"y", "2", "s"}, {"y", "3", "t"}});
  CfdMinerOptions mopts;
  mopts.min_support = 2;
  mopts.include_global_fds = false;
  mopts.mine_variable = false;
  CfdMiner miner(&rel, mopts);
  ASSERT_OK_AND_ASSIGN(auto mined, miner.Mine());
  for (const auto& cfd : mined) {
    if (cfd.rhs_attr() != "C") continue;
    for (const auto& pt : cfd.tableau()) {
      size_t constants = 0;
      bool has_x = false;
      for (const auto& pv : pt.lhs) {
        if (pv.is_constant()) {
          ++constants;
          if (pv.constant() == Value::String("x")) has_x = true;
        }
      }
      if (has_x) {
        EXPECT_EQ(constants, 1u)
            << "left-reducible pattern emitted: " << cfd.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace semandaq::discovery
