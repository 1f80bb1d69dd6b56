#include "discovery/cfd_miner.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "discovery/fd_miner.h"
#include "discovery/partition.h"

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

/// Gather block size for the constant scan: big enough to amortize the
/// kernel dispatch, small enough that a class failing on its first tuples
/// stops after one block.
constexpr size_t kGatherBlock = 1024;

/// Is attribute `rhs` constant (and non-NULL) over the given tuples? When
/// yes, the shared value lands in *value. Runs in kernel blocks: the class
/// members' RHS codes gather blockwise into a dense scratch array and a
/// CountEq32 pass per block decides "all equal to the first code" (which
/// also rejects NULLs, since the first code must be non-NULL itself); the
/// first disagreeing block exits.
bool ConstantOnEncoded(const relational::Relation& rel,
                       const simd::Kernels& kn,
                       const std::vector<TupleId>& tids, size_t rhs,
                       Value* value, std::vector<Code>* scratch) {
  const relational::CodeColumn& codes = rel.columns()[rhs];
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
  *value = rel.dictionary(rhs).Decode(shared);
  return true;
}

/// What one class of Π_X says about an attribute A: how many of its
/// members hold a non-NULL A, and whether those all hold the same code.
struct ClassRhs {
  uint32_t non_null = 0;
  bool agree = true;
};

/// One pass over Π_X's materialized classes: the ClassRhs of each, in
/// class order. A class that disagrees stops at the first conflict, since
/// neither pattern kind reads its count then.
void SummarizeRhs(const Code* rhs_codes,
                  const std::vector<std::vector<TupleId>>& classes,
                  std::vector<ClassRhs>* out) {
  out->resize(classes.size());
  for (size_t k = 0; k < classes.size(); ++k) {
    ClassRhs s;
    Code shared = kNullCode;
    for (TupleId t : classes[k]) {
      const Code c = rhs_codes[static_cast<size_t>(t)];
      if (c == kNullCode) continue;
      if (s.non_null++ == 0) {
        shared = c;
      } else if (c != shared) {
        s.agree = false;
        break;
      }
    }
    (*out)[k] = s;
  }
}

}  // namespace

common::Result<std::vector<Cfd>> CfdMiner::Mine() {
  const auto& schema = rel_->schema();
  const size_t ncols = schema.size();
  std::vector<Cfd> out;

  // The relation's code columns feed every partition and evidence scan and
  // every pattern constant below; the miner never reads a row.
  const relational::Relation& rel = *rel_;

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
  PartitionCache cache(rel_, options_.simd_level);
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
    const bool variable = options_.mine_variable && lhs.size() >= 2;
    if (!options_.mine_constant && !variable) return;
    const Partition& px = cache.Get(lhs);
    const auto& xclasses = px.classes();
    std::vector<ClassRhs> summary;
    std::vector<Code> constant_scratch;
    // Variable-CFD evidence per class id of one conditioning partition
    // Π_C: tuples of evidence, or -1 once a class of Π_X inside it
    // disagrees on A. Sized for the largest Π_C; entries go back to 0
    // after each use.
    std::vector<int64_t> evidence;
    if (variable) {
      size_t most = 0;
      for (size_t c : lhs) most = std::max(most, cache.Get({c}).num_classes());
      evidence.assign(most, 0);
    }
    for (size_t rhs = 0; rhs < ncols; ++rhs) {
      if (std::find(lhs.begin(), lhs.end(), rhs) != lhs.end()) continue;
      if (fd_holds_globally(lhs, rhs)) continue;
      SummarizeRhs(rel.columns()[rhs].data(), xclasses, &summary);

      // ---- Constant CFDs: per class of Π_X with support, A constant.
      if (options_.mine_constant) {
        std::vector<PatternTuple> rows;
        for (size_t k = 0; k < xclasses.size(); ++k) {
          const auto& cls = xclasses[k];
          if (cls.size() < options_.min_support) continue;
          if (summary[k].non_null != cls.size() || !summary[k].agree) continue;
          const Value shared = rel.cell(cls.front(), rhs);
          // Left-reduction: skip when dropping any one LHS attribute
          // still yields a constant class with the same value. The
          // superclass has two or more members, as it contains `cls`.
          bool reducible = false;
          if (lhs.size() > 1) {
            for (size_t drop = 0; drop < lhs.size() && !reducible; ++drop) {
              std::vector<size_t> sub;
              for (size_t i = 0; i < lhs.size(); ++i) {
                if (i != drop) sub.push_back(lhs[i]);
              }
              const Partition& psub = cache.Get(sub);
              const std::vector<TupleId>* sup =
                  psub.Members(psub.ClassOf(cls.front()));
              Value sub_shared;
              reducible = sup != nullptr &&
                          sup->size() >= options_.min_support &&
                          ConstantOnEncoded(rel, kn, *sup, rhs,
                                            &sub_shared, &constant_scratch) &&
                          sub_shared == shared;
            }
          }
          if (reducible) continue;
          PatternTuple pt;
          for (size_t c : lhs) {
            pt.lhs.push_back(PatternValue::Constant(rel.cell(cls.front(), c)));
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
      // X -> A holds within σ_{C=c} iff every X-group inside that class
      // agrees on A, and its evidence is the tuples sitting in X-groups of
      // two or more, i.e. the tuples the conditioned FD actually
      // constrains. Requiring min_support *evidence* (not just a populous
      // conditioning class) is what separates domain rules from sampling
      // coincidences. An X-group (members with non-NULL X) is one class of
      // Π_X, and lies inside one class of Π_C as C ∈ X; restricted to its
      // non-NULL A members it has ClassRhs::non_null tuples, so a class
      // with fewer than two is neither evidence nor a conflict.
      if (variable) {
        std::vector<PatternTuple> rows;
        for (size_t cond = 0; cond < lhs.size() && rows.size() <
                                                      options_.max_patterns_per_fd;
             ++cond) {
          const Partition& pc = cache.Get({lhs[cond]});
          for (size_t k = 0; k < xclasses.size(); ++k) {
            if (summary[k].non_null < 2) continue;
            int64_t& e = evidence[static_cast<size_t>(
                pc.ClassOf(xclasses[k].front()))];
            if (!summary[k].agree) {
              e = -1;
            } else if (e >= 0) {
              e += summary[k].non_null;
            }
          }
          for (const auto& cls : pc.classes()) {
            if (cls.size() < options_.min_support) continue;
            const int64_t e =
                evidence[static_cast<size_t>(pc.ClassOf(cls.front()))];
            if (e < 0 || static_cast<size_t>(e) < options_.min_support) continue;
            PatternTuple pt;
            const Value c_value = rel.cell(cls.front(), lhs[cond]);
            for (size_t i = 0; i < lhs.size(); ++i) {
              pt.lhs.push_back(i == cond ? PatternValue::Constant(c_value)
                                         : PatternValue::Wildcard());
            }
            pt.rhs = PatternValue::Wildcard();
            rows.push_back(std::move(pt));
            if (rows.size() >= options_.max_patterns_per_fd) break;
          }
          for (const auto& cls : xclasses) {
            evidence[static_cast<size_t>(pc.ClassOf(cls.front()))] = 0;
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
