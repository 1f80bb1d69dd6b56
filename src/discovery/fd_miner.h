#ifndef SEMANDAQ_DISCOVERY_FD_MINER_H_
#define SEMANDAQ_DISCOVERY_FD_MINER_H_

#include <functional>
#include <vector>

#include "common/cancel.h"
#include "discovery/partition.h"
#include "relational/relation.h"

namespace semandaq::common {
class ThreadPool;
}  // namespace semandaq::common

namespace semandaq::discovery {

/// A functional dependency X -> A discovered from data, by column ordinals.
struct DiscoveredFd {
  std::vector<size_t> lhs_cols;  // sorted ascending
  size_t rhs_col = 0;
};

struct FdMinerOptions {
  /// Maximum LHS size to explore (levelwise lattice depth).
  size_t max_lhs = 3;
  /// Lanes for the per-level candidate fan-out: 1 = serial sweep (the
  /// default), 0 = one lane per hardware thread, N = N lanes. When no
  /// borrowed `pool` is attached, the miner spins up its own pool for the
  /// Mine() call. Mined output is byte-identical for every thread count —
  /// candidates are validated into per-candidate slots and emitted in the
  /// serial sweep's exact lexicographic order.
  size_t num_threads = 1;
  /// Borrowed worker pool (e.g. a scheduler lease's). When attached with
  /// more than one lane it powers both the base-partition builds and the
  /// per-level candidate fan-out, overriding `num_threads`. nullptr =
  /// honor `num_threads`.
  common::ThreadPool* pool = nullptr;
  /// Kernel tier for the base partition builds (kAuto = the host's best;
  /// see docs/simd.md); products of partitions run no kernel. Every tier
  /// mines the identical output.
  common::simd::Level simd_level = common::simd::Level::kAuto;
  /// Cooperative cancellation (common/cancel.h), checked at level and
  /// candidate boundaries. Mine() returns a vector, so a tripped token
  /// makes the sweep stop early with a *partial* result — callers that
  /// pass a token must re-check it after Mine() and discard the output
  /// (CfdMiner turns it into Status::Cancelled). nullptr = not cancellable.
  common::CancelToken* cancel = nullptr;
};

/// TANE-style levelwise FD discovery on stripped partitions built from one
/// dictionary-encoded snapshot: candidate X -> A is valid iff Π_X refines
/// Π_{X∪{A}} (decided by RefinesForFd). Only minimal FDs are emitted (no
/// discovered FD's LHS contains another's for the same RHS).
///
/// The sweep fans each level's candidates out over a thread pool (one task
/// per candidate LHS; see FdMinerOptions::num_threads) and keeps partition
/// memory level-scoped through a two-generation PartitionCache. Mined
/// output is byte-identical to the serial sweep for every thread count and
/// kernel tier.
///
/// This is both a substrate of the CFD miner and the classical baseline the
/// constraint engine falls back to when no conditioning helps.
class FdMiner {
 public:
  explicit FdMiner(const relational::Relation* rel, FdMinerOptions options = {})
      : rel_(rel), options_(options) {}

  std::vector<DiscoveredFd> Mine();

  /// Invoked after each lattice level's minimal FDs are emitted and
  /// *before* the cache rotates past that level: `found` is every FD from
  /// levels 1..`level`. At that moment the level-k candidate partitions
  /// are still resident (level k in the previous generation, the freshly
  /// built level-(k+1) products in the current one, singleton bases
  /// pinned), so a caller piggybacking its own level-k pass — the CFD
  /// miner's conditional sweep — reads them out of the shared cache
  /// instead of rebuilding them after the FD run rotated them away.
  using LevelHook =
      std::function<void(size_t level, const std::vector<DiscoveredFd>& found)>;

  /// Mines through a caller-provided partition cache and lanes — the CFD
  /// miner shares its encode pass and PartitionCache with this embedded
  /// run instead of paying both twice. The cache is populated and
  /// Rotate()d by the sweep (call between your own levels only);
  /// `pool` may be null (serial sweep). Only `max_lhs` and `cancel` of
  /// the options apply — the cache already fixes the snapshot and kernel
  /// tier. Output is identical to Mine().
  std::vector<DiscoveredFd> Mine(PartitionCache* cache,
                                 common::ThreadPool* pool,
                                 const LevelHook& after_level = {});

 private:
  const relational::Relation* rel_;
  FdMinerOptions options_;
};

/// Calls fn with every size-k subset of {0..n-1}, each ascending, in
/// lexicographic order — the candidate order of both miners' level sweeps.
void ForEachSubset(size_t n, size_t k,
                   const std::function<void(const std::vector<size_t>&)>& fn);

}  // namespace semandaq::discovery

#endif  // SEMANDAQ_DISCOVERY_FD_MINER_H_
