#include "discovery/cfd_miner.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "discovery/fd_miner.h"
#include "discovery/partition.h"
#include "relational/encoded_relation.h"

namespace semandaq::discovery {

namespace {

namespace simd = common::simd;

using cfd::Cfd;
using cfd::PatternTuple;
using cfd::PatternValue;
using relational::Code;
using relational::kNullCode;
using relational::TupleId;
using relational::Value;

/// Gather block size for the evidence scans: big enough to amortize the
/// kernel dispatch, small enough that a candidate failing on its first
/// tuples stops after one block.
constexpr size_t kGatherBlock = 1024;

/// Is attribute `rhs` constant (and non-NULL) over the given tuples? When
/// yes, the shared value lands in *value. Runs in kernel blocks: the class
/// members' RHS codes gather blockwise into a dense scratch array and a
/// CountEq32 pass per block decides "all equal to the first code" (which
/// also rejects NULLs, since the first code must be non-NULL itself); the
/// first disagreeing block exits.
bool ConstantOnEncoded(const relational::EncodedRelation& enc,
                       const simd::Kernels& kn,
                       const std::vector<TupleId>& tids, size_t rhs,
                       Value* value, std::vector<Code>* scratch) {
  const relational::CodeColumn& codes = enc.column(rhs);
  const size_t n = tids.size();
  if (n == 0) return false;
  const Code shared = codes[static_cast<size_t>(tids[0])];
  if (shared == kNullCode) return false;
  scratch->resize(std::min(n, kGatherBlock));
  Code* buf = scratch->data();
  for (size_t lo = 0; lo < n; lo += kGatherBlock) {
    const size_t m = std::min(kGatherBlock, n - lo);
    for (size_t i = 0; i < m; ++i) {
      buf[i] = codes[static_cast<size_t>(tids[lo + i])];
    }
    if (kn.CountEq32(buf, m, shared) != m) return false;
  }
  *value = enc.Decode(rhs, shared);
  return true;
}

/// Reused gather/mask buffers for one candidate task's evidence scans.
struct EvidenceScratch {
  std::vector<std::vector<Code>> lhs_cols;  // gathered LHS code columns
  std::vector<Code> rhs;                    // gathered RHS codes
  std::vector<Code> constant;               // ConstantOnEncoded's buffer
  std::vector<uint64_t> mask;
  std::vector<uint64_t> packed;
};

/// Does X -> A hold within the conditioning class `cls`, and over how much
/// evidence (tuples in X-groups of size >= 2)? Class members' X and A codes
/// gather into dense scratch columns, MaskNeAnd32 builds the non-NULL
/// eligibility mask, and for |X| == 2 PackKeys2x32 pre-packs the group keys
/// so the hash grouping runs on one uint64 per tuple. A block after a
/// conflict exits early; (holds, evidence) — the only outputs — do not
/// depend on where the conflict was seen, and evidence is only consumed
/// when no conflict exists at all.
void VariableEvidenceEncoded(const relational::EncodedRelation& enc,
                             const simd::Kernels& kn,
                             const std::vector<TupleId>& cls,
                             const std::vector<size_t>& lhs, size_t rhs,
                             EvidenceScratch* s, bool* holds,
                             size_t* evidence) {
  const size_t n = cls.size();
  const size_t nlhs = lhs.size();
  *holds = true;
  *evidence = 0;
  if (n == 0) return;

  const size_t block = std::min(n, kGatherBlock);
  if (s->lhs_cols.size() < nlhs) s->lhs_cols.resize(nlhs);
  for (size_t k = 0; k < nlhs; ++k) s->lhs_cols[k].resize(block);
  s->rhs.resize(block);
  s->mask.resize(simd::MaskWords(block));
  if (nlhs == 2) s->packed.resize(block);
  const relational::CodeColumn& rhs_col = enc.column(rhs);

  std::unordered_map<uint64_t, std::pair<Code, int>> groups2;
  std::unordered_map<std::vector<Code>, std::pair<Code, int>,
                     relational::CodeVecHash>
      groups_wide;
  std::vector<Code> key(nlhs);

  // Blockwise: gather this block's X and A codes into dense scratch
  // columns, fold the scalar walk's NULL skips into one bitmap with
  // MaskNeAnd32, and group; the block after a conflict exits, so a
  // failing candidate does O(block) work like the scalar walk's
  // first-conflict break did.
  for (size_t lo = 0; lo < n && *holds; lo += kGatherBlock) {
    const size_t m = std::min(kGatherBlock, n - lo);
    for (size_t k = 0; k < nlhs; ++k) {
      const relational::CodeColumn& col = enc.column(lhs[k]);
      for (size_t i = 0; i < m; ++i) {
        s->lhs_cols[k][i] = col[static_cast<size_t>(cls[lo + i])];
      }
    }
    for (size_t i = 0; i < m; ++i) {
      s->rhs[i] = rhs_col[static_cast<size_t>(cls[lo + i])];
    }
    const size_t mwords = simd::MaskWords(m);
    std::fill_n(s->mask.data(), mwords, ~uint64_t{0});
    if (m % 64 != 0) s->mask[mwords - 1] = ~uint64_t{0} >> (64 - m % 64);
    for (size_t k = 0; k < nlhs; ++k) {
      kn.MaskNeAnd32(s->lhs_cols[k].data(), m, kNullCode, s->mask.data());
    }
    kn.MaskNeAnd32(s->rhs.data(), m, kNullCode, s->mask.data());

    if (nlhs == 2) {
      kn.PackKeys2x32(s->lhs_cols[0].data(), s->lhs_cols[1].data(), m,
                      s->packed.data());
      simd::ForEachSetBit(s->mask.data(), mwords, [&](size_t i) {
        if (!*holds) return;
        auto [it, fresh] =
            groups2.emplace(s->packed[i], std::make_pair(s->rhs[i], 0));
        if (!fresh && it->second.first != s->rhs[i]) {
          *holds = false;
          return;
        }
        ++it->second.second;
      });
    } else {
      simd::ForEachSetBit(s->mask.data(), mwords, [&](size_t i) {
        if (!*holds) return;
        for (size_t k = 0; k < nlhs; ++k) key[k] = s->lhs_cols[k][i];
        auto [it, fresh] = groups_wide.emplace(key, std::make_pair(s->rhs[i], 0));
        if (!fresh && it->second.first != s->rhs[i]) {
          *holds = false;
          return;
        }
        ++it->second.second;
      });
    }
  }
  if (!*holds) return;
  // Evidence = tuples in groups of size >= 2.
  for (const auto& [k2, g] : groups2) {
    if (g.second >= 2) *evidence += static_cast<size_t>(g.second);
  }
  for (const auto& [k2, g] : groups_wide) {
    if (g.second >= 2) *evidence += static_cast<size_t>(g.second);
  }
}

}  // namespace

common::Result<std::vector<Cfd>> CfdMiner::Mine() {
  const auto& schema = rel_->schema();
  const size_t ncols = schema.size();
  std::vector<Cfd> out;

  // One set of code columns (adopted from a column-backed relation, else
  // encoded once) feeds every partition and evidence scan and every
  // pattern constant below; the miner never reads a row.
  const relational::EncodedRelation encoded(rel_, options_.cancel);

  // Lane resolution is shared with the embedded FdMiner run below.
  std::unique_ptr<common::ThreadPool> local_pool;
  common::ThreadPool* pool =
      common::ResolvePool(options_.pool, options_.num_threads, &local_pool);
  const bool parallel = pool != nullptr && pool->num_threads() > 1 && ncols > 0;

  // Two-generation partition memory (bases pinned): at level k the
  // candidates fill the current generation from the previous one's
  // prefixes, and the left-reduction's (k-1)-subsets all sit in the
  // previous generation, so Rotate() after each level keeps residency
  // bounded without forcing rebuilds.
  PartitionCache cache(&encoded, options_.simd_level);
  if (parallel) cache.BuildBases(ncols, pool);
  const simd::Kernels& kn = simd::KernelsFor(options_.simd_level);

  // During the interleaved sweep below this holds every minimal FD from
  // levels <= the one being mined — exactly the set that can prune a
  // level-k conditional candidate, since a larger FD's LHS is never a
  // subset of a same-or-smaller candidate's. After the sweep it is the
  // complete list.
  std::vector<DiscoveredFd> global_fds;
  auto fd_holds_globally = [&](const std::vector<size_t>& lhs, size_t rhs) {
    for (const DiscoveredFd& fd : global_fds) {
      if (fd.rhs_col != rhs) continue;
      if (std::includes(lhs.begin(), lhs.end(), fd.lhs_cols.begin(),
                        fd.lhs_cols.end())) {
        return true;
      }
    }
    return false;
  };

  auto attr_names = [&](const std::vector<size_t>& cols) {
    std::vector<std::string> names;
    names.reserve(cols.size());
    for (size_t c : cols) names.push_back(schema.attr(c).name);
    return names;
  };

  // Mines every constant and variable CFD for one candidate LHS into
  // `local`, in the serial sweep's (rhs-ascending, constant-then-variable)
  // emission order. Pure function of the candidate plus read-only shared
  // state (partitions are deterministic, the cache is thread-safe), so
  // candidates fan out freely.
  auto mine_candidate = [&](const std::vector<size_t>& lhs,
                            std::vector<Cfd>* local) {
    if (options_.cancel != nullptr && !options_.cancel->Check().ok()) return;
    const Partition& px = cache.Get(lhs);
    EvidenceScratch scratch;
    for (size_t rhs = 0; rhs < ncols; ++rhs) {
      if (std::find(lhs.begin(), lhs.end(), rhs) != lhs.end()) continue;
      const bool global = fd_holds_globally(lhs, rhs);

      // ---- Constant CFDs: per class of Π_X with support, A constant.
      if (options_.mine_constant && !global) {
        std::vector<PatternTuple> rows;
        for (const auto& cls : px.classes()) {
          if (cls.size() < options_.min_support) continue;
          Value shared;
          if (!ConstantOnEncoded(encoded, kn, cls, rhs, &shared,
                                 &scratch.constant)) {
            continue;
          }
          // Left-reduction: skip when dropping any one LHS attribute
          // still yields a constant class with the same value.
          bool reducible = false;
          if (lhs.size() > 1) {
            for (size_t drop = 0; drop < lhs.size() && !reducible; ++drop) {
              std::vector<size_t> sub;
              for (size_t i = 0; i < lhs.size(); ++i) {
                if (i != drop) sub.push_back(lhs[i]);
              }
              const Partition& psub = cache.Get(sub);
              const int32_t cid = psub.ClassOf(cls.front());
              if (cid < 0) continue;
              // Find the materialized class (non-singleton) with this id.
              for (const auto& sup : psub.classes()) {
                if (psub.ClassOf(sup.front()) != cid) continue;
                Value sub_shared;
                if (sup.size() >= options_.min_support &&
                    ConstantOnEncoded(encoded, kn, sup, rhs, &sub_shared,
                                      &scratch.constant) &&
                    sub_shared == shared) {
                  reducible = true;
                }
                break;
              }
            }
          }
          if (reducible) continue;
          PatternTuple pt;
          for (size_t c : lhs) {
            pt.lhs.push_back(PatternValue::Constant(
                encoded.Decode(c, encoded.code(cls.front(), c))));
          }
          pt.rhs = PatternValue::Constant(shared);
          rows.push_back(std::move(pt));
          if (rows.size() >= options_.max_patterns_per_fd) break;
        }
        if (!rows.empty()) {
          local->emplace_back(rel_->name(), attr_names(lhs),
                              schema.attr(rhs).name, std::move(rows));
        }
      }

      // ---- Variable CFDs: condition one LHS attribute on a constant.
      if (options_.mine_variable && !global && lhs.size() >= 2) {
        std::vector<PatternTuple> rows;
        for (size_t cond = 0; cond < lhs.size() && rows.size() <
                                                      options_.max_patterns_per_fd;
             ++cond) {
          const Partition& pc = cache.Get({lhs[cond]});
          for (const auto& cls : pc.classes()) {
            if (cls.size() < options_.min_support) continue;
            // Does X -> A hold within σ_{C=c}? Group the class members by
            // their full X projection and require constant A per group.
            // Evidence = tuples sitting in X-groups of size >= 2, i.e. the
            // tuples the conditioned FD actually constrains. Requiring
            // min_support *evidence* (not just a populous conditioning
            // class) is what separates domain rules from sampling
            // coincidences.
            bool holds = true;
            size_t evidence = 0;
            VariableEvidenceEncoded(encoded, kn, cls, lhs, rhs, &scratch,
                                    &holds, &evidence);
            if (!holds || evidence < options_.min_support) continue;
            PatternTuple pt;
            const Value& c_value =
                encoded.Decode(lhs[cond], encoded.code(cls.front(), lhs[cond]));
            for (size_t i = 0; i < lhs.size(); ++i) {
              pt.lhs.push_back(i == cond ? PatternValue::Constant(c_value)
                                         : PatternValue::Wildcard());
            }
            pt.rhs = PatternValue::Wildcard();
            rows.push_back(std::move(pt));
            if (rows.size() >= options_.max_patterns_per_fd) break;
          }
        }
        if (!rows.empty()) {
          local->emplace_back(rel_->name(), attr_names(lhs),
                              schema.attr(rhs).name, std::move(rows));
        }
      }
    }
  };

  // Mines one lattice level: candidates materialize in lexicographic order
  // into per-candidate slots (fanned out when parallel) and the slots replay
  // in order into the level's buffer — byte-identical to the serial sweep
  // for every thread count.
  std::vector<std::vector<Cfd>> level_cfds(options_.max_lhs + 1);
  auto run_level = [&](size_t level) {
    std::vector<std::vector<size_t>> cands;
    ForEachSubset(ncols, level,
                  [&](const std::vector<size_t>& lhs) { cands.push_back(lhs); });
    std::vector<std::vector<Cfd>> slots(cands.size());
    if (parallel) {
      pool->Run(cands.size(),
                [&](size_t i) { mine_candidate(cands[i], &slots[i]); });
    } else {
      for (size_t i = 0; i < cands.size(); ++i) {
        mine_candidate(cands[i], &slots[i]);
      }
    }
    for (std::vector<Cfd>& slot : slots) {
      for (Cfd& c : slot) level_cfds[level].push_back(std::move(c));
    }
  };

  // The embedded FD run shares this miner's encode pass, partition cache,
  // and lanes — and its after-level hook runs the conditional sweep for
  // level k while the level-k partitions the FD validation just used are
  // still resident (level k in the cache's previous generation, singleton
  // bases pinned). The old back-to-back sweeps rebuilt every level's
  // partitions a second time after the FD rotations evicted them; the
  // interleaved sweep pays only the left-reduction's (k-1)-subset rebuilds
  // at k >= 3. Global FDs both seed all-wildcard CFDs and prune redundant
  // conditional forms.
  FdMinerOptions fd_opts;
  fd_opts.max_lhs = options_.max_lhs;
  fd_opts.cancel = options_.cancel;
  FdMiner fd_miner(rel_, fd_opts);
  global_fds = fd_miner.Mine(
      &cache, pool, [&](size_t level, const std::vector<DiscoveredFd>& found) {
        global_fds = found;
        run_level(level);
      });
  // A tripped token made the interleaved sweep stop early with partial
  // buffers; discard them and surface the cancellation instead.
  SEMANDAQ_RETURN_IF_CANCELLED(options_.cancel);

  // Assemble in the historical order: all-wildcard global FDs first, then
  // the buffered conditional levels ascending.
  if (options_.include_global_fds) {
    for (const DiscoveredFd& fd : global_fds) {
      PatternTuple pt;
      pt.lhs.assign(fd.lhs_cols.size(), PatternValue::Wildcard());
      pt.rhs = PatternValue::Wildcard();
      out.emplace_back(rel_->name(), attr_names(fd.lhs_cols),
                       schema.attr(fd.rhs_col).name,
                       std::vector<PatternTuple>{std::move(pt)});
    }
  }
  for (std::vector<Cfd>& buffered : level_cfds) {
    for (Cfd& c : buffered) out.push_back(std::move(c));
  }
  return out;
}

}  // namespace semandaq::discovery
