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
/// classes (stripped of singletons) in first-touch order, the same coverage.
void ExpectOraclePartition(const Partition& p, const Relation& rel,
                           const std::vector<size_t>& cols) {
  const auto want = oracle::PartitionClasses(rel, cols);
  std::vector<std::vector<relational::TupleId>> stripped;
  size_t covered = 0;
  for (const auto& cls : want) {
    covered += cls.size();
    if (cls.size() >= 2) stripped.push_back(cls);
  }
  EXPECT_EQ(p.num_classes(), want.size());
  EXPECT_EQ(p.num_tuples(), covered);
  EXPECT_EQ(p.classes(), stripped);
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
