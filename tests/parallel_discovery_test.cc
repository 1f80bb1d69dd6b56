// Parallel level-wise discovery: FdMiner/CfdMiner fan each lattice level's
// candidates out over a ThreadPool (FdMinerOptions::num_threads / ::pool)
// and run their partition builds, intersects, and evidence scans on a SIMD
// kernel tier — and the mined output must be IDENTICAL to the serial
// scalar run — same FDs/CFDs in the same order — for every thread count ×
// tier combination, because candidates are validated into per-candidate
// slots and emitted in the serial sweep's exact lexicographic order. The
// serial reference must itself match the definition-level oracle
// (cfd_oracle.h). Also covers the two-generation PartitionCache
// (level-scoped residency, rebuild-on-demand after eviction, never stale).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfd_oracle.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "discovery/cfd_miner.h"
#include "discovery/fd_miner.h"
#include "discovery/partition.h"
#include "relational/encoded_relation.h"
#include "test_util.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::discovery {
namespace {

namespace simd = common::simd;
using relational::Relation;
using relational::TupleId;

const simd::Level kLevels[] = {simd::Level::kScalar, simd::Level::kSse2,
                               simd::Level::kAvx2};
const size_t kThreadCounts[] = {1, 2, 4, 0};  // 0 = all hardware threads

std::string FdToString(const DiscoveredFd& fd) {
  std::string s = "[";
  for (size_t c : fd.lhs_cols) s += std::to_string(c) + ",";
  s += "]->" + std::to_string(fd.rhs_col);
  return s;
}

/// One line per mined FD, in emission order — the byte-identity surface.
std::string FdSignature(const std::vector<DiscoveredFd>& fds) {
  std::string s;
  for (const auto& fd : fds) s += FdToString(fd) + "\n";
  return s;
}

/// One line per mined CFD (full tableau text), in emission order.
std::string CfdSignature(const Relation& rel, const CfdMinerOptions& opts) {
  auto mined = CfdMiner(&rel, opts).Mine();
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  std::string s;
  if (mined.ok()) {
    for (const auto& c : *mined) s += c.ToString() + "\n";
  }
  return s;
}

/// Mined FD and CFD output must be byte-identical to the serial scalar
/// sweep for every thread count × kernel tier (tiers above the host's
/// support clamp down, so the sweep is safe everywhere), and the serial
/// sweep must mine exactly what the oracle derives from the definitions.
void ExpectIdenticalMining(const Relation& rel) {
  FdMinerOptions serial_fd;
  serial_fd.simd_level = simd::Level::kScalar;
  const std::vector<DiscoveredFd> serial_fds = FdMiner(&rel, serial_fd).Mine();
  EXPECT_EQ(oracle::MinimalFds(oracle::Pairs(rel), serial_fd.max_lhs),
            oracle::FdsOf(serial_fds));
  const std::string fd_base = FdSignature(serial_fds);

  CfdMinerOptions uncapped;
  uncapped.simd_level = simd::Level::kScalar;
  uncapped.max_patterns_per_fd = SIZE_MAX;
  auto mined = CfdMiner(&rel, uncapped).Mine();
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_EQ(oracle::MinedCfdRows(rel, uncapped), oracle::RowsOf(*mined));

  CfdMinerOptions serial_cfd;
  serial_cfd.simd_level = simd::Level::kScalar;
  const std::string cfd_base = CfdSignature(rel, serial_cfd);

  for (size_t threads : kThreadCounts) {
    for (simd::Level level : kLevels) {
      SCOPED_TRACE(std::string("threads=") + std::to_string(threads) +
                   " level=" + std::string(simd::LevelName(level)));
      FdMinerOptions fo;
      fo.num_threads = threads;
      fo.simd_level = level;
      EXPECT_EQ(fd_base, FdSignature(FdMiner(&rel, fo).Mine()));

      CfdMinerOptions co;
      co.num_threads = threads;
      co.simd_level = level;
      EXPECT_EQ(cfd_base, CfdSignature(rel, co));
    }
  }

  // A borrowed pool must behave exactly like num_threads (the facade path).
  common::ThreadPool pool(4);
  FdMinerOptions pooled_fd;
  pooled_fd.pool = &pool;
  EXPECT_EQ(fd_base, FdSignature(FdMiner(&rel, pooled_fd).Mine()));
  CfdMinerOptions pooled_cfd;
  pooled_cfd.pool = &pool;
  EXPECT_EQ(cfd_base, CfdSignature(rel, pooled_cfd));
}

TEST(ParallelDiscoveryTest, PaperCustomerIdentical) {
  ExpectIdenticalMining(semandaq::testing::PaperCustomerRelation());
}

TEST(ParallelDiscoveryTest, GeneratedCustomerWithTombstonesIdentical) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 300;
  opts.noise_rate = 0.05;
  opts.seed = 9;
  auto wl = workload::CustomerGenerator::Generate(opts);
  for (TupleId tid = 0; tid < wl.dirty.IdBound(); ++tid) {
    if (tid % 9 == 2) ASSERT_OK(wl.dirty.Delete(tid));
  }
  ExpectIdenticalMining(wl.dirty);
}

TEST(ParallelDiscoveryTest, HospitalIdentical) {
  workload::HospitalWorkloadOptions opts;
  opts.num_tuples = 200;
  opts.noise_rate = 0.05;
  auto wl = workload::HospitalGenerator::Generate(opts);
  ExpectIdenticalMining(wl.clean);
}

TEST(ParallelDiscoveryTest, EmptyRelationIdentical) {
  Relation empty("empty", relational::Schema::AllStrings({"A", "B", "C"}));
  ExpectIdenticalMining(empty);
}

TEST(ParallelDiscoveryTest, NullHeavyIdentical) {
  // NULLs drop tuples out of partitions and evidence scans (a NULL cannot
  // witness equality), so a NULL-heavy relation exercises every mask path.
  ExpectIdenticalMining(semandaq::testing::MakeStringRelation(
      "nullish", {"A", "B", "C", "D"},
      {
          {"a", "", "x", "1"},
          {"a", "b", "", "1"},
          {"", "b", "x", "2"},
          {"a", "b", "x", ""},
          {"a", "", "x", "1"},
          {"c", "b", "", ""},
          {"", "", "", ""},
          {"a", "b", "x", "1"},
          {"c", "d", "y", "2"},
          {"c", "d", "y", "2"},
      }));
}

TEST(ParallelDiscoveryTest, SingleLanePoolAndEmptyRelation) {
  // Degenerate shapes: a 1-lane pool (fan-out disabled by the lane check)
  // and an empty relation (nothing to partition).
  Relation empty("empty", relational::Schema::AllStrings({"A", "B"}));
  const auto serial = FdMiner(&empty).Mine();

  common::ThreadPool one(1);
  FdMinerOptions opts;
  opts.pool = &one;
  EXPECT_EQ(serial.size(), FdMiner(&empty, opts).Mine().size());

  common::ThreadPool four(4);
  opts.pool = &four;
  EXPECT_EQ(serial.size(), FdMiner(&empty, opts).Mine().size());
}

// ---------------------------------------------------------------------------
// PartitionCache: two-generation, level-scoped partition memory.

void ExpectSamePartition(const Partition& a, const Partition& b) {
  EXPECT_EQ(a.num_classes(), b.num_classes());
  EXPECT_EQ(a.num_tuples(), b.num_tuples());
  EXPECT_EQ(a.Error(), b.Error());
  ASSERT_EQ(a.classes().size(), b.classes().size());
  for (size_t i = 0; i < a.classes().size(); ++i) {
    EXPECT_EQ(a.classes()[i], b.classes()[i]) << "class " << i;
  }
}

TEST(PartitionCacheTest, EvictedPartitionsRebuildOnDemandNeverStale) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  relational::EncodedRelation enc(&rel);
  PartitionCache cache(&enc);

  const Partition& first = cache.Get({1, 3});
  const Partition reference = Partition::Intersect(
      Partition::Build(enc, {1}), Partition::Build(enc, {3}));
  ExpectSamePartition(reference, first);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_EQ(cache.resident_bases(), 2u);  // singletons pin forever

  // Cached in the current generation, then in the previous one.
  cache.Get({1, 3});
  EXPECT_EQ(cache.builds(), 1u);
  cache.Rotate();
  cache.Get({1, 3});
  EXPECT_EQ(cache.builds(), 1u) << "previous generation must still serve";

  // Requests during the next level land in the new current generation;
  // the second rotate evicts the old product.
  cache.Rotate();
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(cache.resident_bases(), 2u);

  const Partition& rebuilt = cache.Get({1, 3});
  EXPECT_EQ(cache.builds(), 2u) << "evicted set must rebuild on demand";
  ExpectSamePartition(reference, rebuilt);
}

TEST(PartitionCacheTest, ResidencyStaysLevelScoped) {
  // Simulate the FD sweep's access pattern over 4 attributes: level k gets
  // its candidates (prefix products from the previous generation) plus the
  // level-(k+1) X∪A products, then rotates. Residency must never exceed
  // two lattice levels' worth of products.
  Relation rel = semandaq::testing::PaperCustomerRelation();
  relational::EncodedRelation enc(&rel);
  PartitionCache cache(&enc);
  const size_t ncols = 4;

  // Level 1: candidates are pinned bases; products of size 2 get built.
  for (size_t a = 0; a < ncols; ++a) {
    cache.Get({a});
    for (size_t b = a + 1; b < ncols; ++b) cache.Get({a, b});
  }
  EXPECT_EQ(cache.resident(), 6u);  // C(4,2)
  cache.Rotate();

  // Level 2: candidates hit the previous generation (no rebuilds);
  // size-3 products fill the current one.
  const size_t builds_before = cache.builds();
  for (size_t a = 0; a < ncols; ++a) {
    for (size_t b = a + 1; b < ncols; ++b) {
      cache.Get({a, b});
      for (size_t c = b + 1; c < ncols; ++c) cache.Get({a, b, c});
    }
  }
  EXPECT_EQ(cache.builds() - builds_before, 4u);  // only the C(4,3) triples
  EXPECT_EQ(cache.resident(), 10u);               // C(4,2) + C(4,3)
  cache.Rotate();
  EXPECT_EQ(cache.resident(), 4u);  // level-2 products evicted
}

TEST(PartitionCacheTest, AfterLevelHookSharesLevelPartitionsWithCfdSweep) {
  // The CFD miner rides FdMiner::Mine's after-level hook so its level-k
  // conditional sweep reads the level-k partitions the FD validation just
  // used out of the shared cache. Simulate both schedules over one
  // workload: the old back-to-back walk (FD sweep, then a second level
  // walk) must rebuild every level the FD rotations evicted, while inside
  // the hook the level's candidate partitions are still resident and cost
  // zero extra builds.
  workload::CustomerWorkloadOptions wopts;
  wopts.num_tuples = 300;
  wopts.noise_rate = 0.05;
  wopts.seed = 7;
  auto wl = workload::CustomerGenerator::Generate(wopts);
  const size_t ncols = wl.dirty.schema().size();
  constexpr size_t kMaxLhs = 3;
  FdMinerOptions opts;
  opts.max_lhs = kMaxLhs;
  FdMiner miner(&wl.dirty, opts);

  // The CFD sweep's per-level access: every level-k candidate partition.
  auto touch_level = [&](PartitionCache* cache, size_t level) {
    for (size_t a = 0; a < ncols; ++a) {
      if (level == 1) {
        cache->Get({a});
        continue;
      }
      for (size_t b = a + 1; b < ncols; ++b) {
        if (level == 2) {
          cache->Get({a, b});
          continue;
        }
        for (size_t c = b + 1; c < ncols; ++c) cache->Get({a, b, c});
      }
    }
  };

  // Old schedule: full FD run, then a separate level walk with its own
  // rotations (what CfdMiner::Mine did before the hook existed).
  relational::EncodedRelation enc_a(&wl.dirty);
  PartitionCache cache_a(&enc_a);
  const auto fds_a = miner.Mine(&cache_a, nullptr);
  for (size_t level = 1; level <= kMaxLhs && level < ncols; ++level) {
    touch_level(&cache_a, level);
    cache_a.Rotate();
  }
  const size_t sequential_builds = cache_a.builds();

  // Interleaved schedule: the same accesses inside the hook are all
  // resident hits.
  relational::EncodedRelation enc_b(&wl.dirty);
  PartitionCache cache_b(&enc_b);
  std::vector<size_t> hook_levels;
  const auto fds_b = miner.Mine(
      &cache_b, nullptr,
      [&](size_t level, const std::vector<DiscoveredFd>& found) {
        hook_levels.push_back(level);
        EXPECT_LE(found.size(), fds_a.size());
        const size_t before = cache_b.builds();
        touch_level(&cache_b, level);
        EXPECT_EQ(cache_b.builds(), before)
            << "level-" << level << " partitions must be resident in the hook";
      });

  EXPECT_EQ(FdSignature(fds_a), FdSignature(fds_b))
      << "the hook must not perturb the mined FDs";
  EXPECT_EQ(hook_levels, (std::vector<size_t>{1, 2, 3}));
  EXPECT_LT(cache_b.builds(), sequential_builds)
      << "interleaving must save the second sweep's rebuilds";
}

TEST(PartitionCacheTest, ConcurrentGetsAreSafeAndDeterministic) {
  workload::CustomerWorkloadOptions wopts;
  wopts.num_tuples = 400;
  wopts.noise_rate = 0.1;
  wopts.seed = 11;
  auto wl = workload::CustomerGenerator::Generate(wopts);
  relational::EncodedRelation enc(&wl.dirty);
  const size_t ncols = wl.dirty.schema().size();

  // Reference partitions, serially.
  std::vector<Partition> reference;
  for (size_t a = 0; a < ncols; ++a) {
    for (size_t b = a + 1; b < ncols; ++b) {
      reference.push_back(Partition::Intersect(Partition::Build(enc, {a}),
                                               Partition::Build(enc, {b})));
    }
  }

  common::ThreadPool pool(4);
  PartitionCache cache(&enc);
  std::vector<std::vector<size_t>> wanted;
  for (size_t a = 0; a < ncols; ++a) {
    for (size_t b = a + 1; b < ncols; ++b) wanted.push_back({a, b});
  }
  std::vector<const Partition*> got(wanted.size());
  pool.Run(wanted.size(), [&](size_t i) { got[i] = &cache.Get(wanted[i]); });
  for (size_t i = 0; i < wanted.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    ExpectSamePartition(reference[i], *got[i]);
  }
}

TEST(FdMinerTest, RefinesForFdMatchesOracle) {
  // The miner's validation test on every single-attribute candidate of the
  // paper instance, against the pairwise FD definition.
  const Relation rel = semandaq::testing::PaperCustomerRelation();
  const relational::EncodedRelation enc(&rel);
  const oracle::Pairs pairs(rel);
  for (size_t rhs = 0; rhs < rel.schema().size(); ++rhs) {
    for (size_t lhs = 0; lhs < rel.schema().size(); ++lhs) {
      if (lhs == rhs) continue;
      const Partition px = Partition::Build(enc, {lhs});
      const Partition pxa =
          Partition::Build(enc, {std::min(lhs, rhs), std::max(lhs, rhs)});
      EXPECT_EQ(pairs.FdHolds(uint64_t{1} << lhs, rhs), RefinesForFd(px, pxa))
          << "lhs=" << lhs << " rhs=" << rhs;
    }
  }
}

}  // namespace
}  // namespace semandaq::discovery
