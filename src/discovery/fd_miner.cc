#include "discovery/fd_miner.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>

#include "common/thread_pool.h"

namespace semandaq::discovery {

void ForEachSubset(size_t n, size_t k,
                   const std::function<void(const std::vector<size_t>&)>& fn) {
  if (k > n) return;
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    fn(idx);
    size_t i = k;
    bool advanced = false;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - k) {
        ++idx[i];
        for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) return;
  }
}

std::vector<DiscoveredFd> FdMiner::Mine() {
  // Base partitions come from the relation's code columns: singletons cost
  // one dense code->class array pass each, with the array sized directly
  // from the dictionary cardinality.
  std::unique_ptr<common::ThreadPool> local_pool;
  common::ThreadPool* pool =
      common::ResolvePool(options_.pool, options_.num_threads, &local_pool);
  // Two-generation partition memory: bases pinned, level k-1 products kept
  // for the intersect recurrence, level k products filling. Rotate() after
  // each level evicts everything older (rebuilt on demand if a pruning
  // path asks again).
  PartitionCache cache(rel_, options_.simd_level);
  return Mine(&cache, pool);
}

std::vector<DiscoveredFd> FdMiner::Mine(PartitionCache* cache,
                                        common::ThreadPool* pool,
                                        const LevelHook& after_level) {
  const size_t ncols = rel_->schema().size();
  std::vector<DiscoveredFd> found;
  // rhs -> list of minimal LHS sets found so far.
  std::map<size_t, std::vector<std::vector<size_t>>> minimal_lhs;

  const bool parallel = pool != nullptr && pool->num_threads() > 1 && ncols > 0;
  // Base partitions build fanned out up front — a no-op when the CFD miner
  // primed the cache.
  if (parallel) cache->BuildBases(ncols, pool);

  auto has_subset_fd = [&](const std::vector<size_t>& lhs, size_t rhs) {
    auto it = minimal_lhs.find(rhs);
    if (it == minimal_lhs.end()) return false;
    for (const auto& sub : it->second) {
      if (std::includes(lhs.begin(), lhs.end(), sub.begin(), sub.end())) return true;
    }
    return false;
  };

  common::CancelToken* cancel = options_.cancel;
  for (size_t level = 1; level <= options_.max_lhs && level < ncols; ++level) {
    if (cancel != nullptr && !cancel->Check().ok()) return found;
    // Materialize this level's candidates up front, in the lexicographic
    // order the serial sweep visits them.
    std::vector<std::vector<size_t>> cands;
    ForEachSubset(ncols, level,
                  [&](const std::vector<size_t>& lhs) { cands.push_back(lhs); });

    // Per-candidate work lists. Minimality pruning only depends on FDs from
    // strictly smaller levels (two same-size LHS sets never contain one
    // another), so the skip set is fixed before the fan-out and candidates
    // are mutually independent.
    struct Slot {
      std::vector<size_t> rhs;     // RHS columns to validate, ascending
      std::vector<uint8_t> holds;  // parallel to rhs
    };
    std::vector<Slot> slots(cands.size());
    for (size_t i = 0; i < cands.size(); ++i) {
      const std::vector<size_t>& lhs = cands[i];
      for (size_t rhs = 0; rhs < ncols; ++rhs) {
        if (std::find(lhs.begin(), lhs.end(), rhs) != lhs.end()) continue;
        if (has_subset_fd(lhs, rhs)) continue;  // not minimal
        slots[i].rhs.push_back(rhs);
      }
      slots[i].holds.assign(slots[i].rhs.size(), 0);
    }

    // Validate: one task per candidate, results into its slot. Every
    // Refines/error-test outcome is a pure function of the (deterministic)
    // partitions, so the fan-out cannot perturb the mined set.
    auto validate = [&](size_t i) {
      if (cancel != nullptr && !cancel->Check().ok()) return;
      const std::vector<size_t>& lhs = cands[i];
      Slot& slot = slots[i];
      if (slot.rhs.empty()) return;
      const Partition& px = cache->Get(lhs);
      std::vector<size_t> xa(lhs.size() + 1);
      for (size_t j = 0; j < slot.rhs.size(); ++j) {
        xa.assign(lhs.begin(), lhs.end());
        xa.push_back(slot.rhs[j]);
        std::sort(xa.begin(), xa.end());
        const Partition& pxa = cache->Get(xa);
        slot.holds[j] = RefinesForFd(px, pxa);
      }
    };
    if (parallel) {
      pool->Run(cands.size(), validate);
    } else {
      for (size_t i = 0; i < cands.size(); ++i) validate(i);
    }
    // A cancel mid-level left slots unvalidated; stop before emitting them
    // (the caller re-checks the token and discards the partial result).
    if (cancel != nullptr && !cancel->Check().ok()) return found;

    // Emit in the serial sweep's exact order: candidates lexicographic,
    // RHS ascending within each.
    for (size_t i = 0; i < cands.size(); ++i) {
      for (size_t j = 0; j < slots[i].rhs.size(); ++j) {
        if (!slots[i].holds[j]) continue;
        found.push_back(DiscoveredFd{cands[i], slots[i].rhs[j]});
        minimal_lhs[slots[i].rhs[j]].push_back(cands[i]);
      }
    }
    // The hook runs while this level's partitions are still resident —
    // only then does Rotate() retire them.
    if (after_level) after_level(level, found);
    cache->Rotate();
  }
  return found;
}

}  // namespace semandaq::discovery
