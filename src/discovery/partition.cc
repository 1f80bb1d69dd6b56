#include "discovery/partition.h"

#include <algorithm>
#include <unordered_map>

#include "common/thread_pool.h"

namespace semandaq::discovery {

using relational::TupleId;

Partition Partition::Build(const relational::EncodedRelation& enc,
                           const std::vector<size_t>& cols,
                           common::simd::Level level) {
  using relational::Code;
  using relational::kNullCode;
  namespace simd = common::simd;

  Partition p;
  const size_t bound = static_cast<size_t>(enc.IdBound());
  p.class_of_.assign(bound, -1);
  std::vector<std::vector<TupleId>> members;

  // Class ids are issued densely in first-touch order, so a fresh id is
  // always exactly members.size().
  auto place = [&](TupleId tid, int32_t cid) {
    if (static_cast<size_t>(cid) == members.size()) members.emplace_back();
    members[static_cast<size_t>(cid)].push_back(tid);
    p.class_of_[static_cast<size_t>(tid)] = cid;
    ++p.covered_;
  };

  // The refinement pass runs in kernel blocks: MaskLive fuses the liveness
  // filter with the per-column non-NULL test into one bitmap per block, and
  // PackKeys2x32 pre-packs the two-column group keys — the scalar loop that
  // remains is pure first-touch class placement over the surviving bits.
  const simd::Kernels& kn = simd::KernelsFor(level);
  const uint8_t* live = enc.relation().live_data();
  constexpr size_t kBlock = 4096;
  std::vector<uint64_t> elig(simd::MaskWords(kBlock));
  std::vector<const Code*> colptrs(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    colptrs[k] = enc.column(cols[k]).data();
  }

  auto for_each_eligible = [&](const auto& fn) {
    std::vector<const Code*> block_ptrs(cols.size());
    for (size_t lo = 0; lo < bound; lo += kBlock) {
      const size_t n = std::min(kBlock, bound - lo);
      for (size_t k = 0; k < cols.size(); ++k) {
        block_ptrs[k] = colptrs[k] + lo;
      }
      if (kn.MaskLive(live + lo, block_ptrs.data(), cols.size(), kNullCode,
                      n, elig.data()) == 0) {
        continue;
      }
      fn(lo, n);
    }
  };

  if (cols.size() == 1) {
    // Codes are dense 1..|dict|: the class of a tuple is a direct array
    // lookup, with ids renumbered in first-touch order.
    const Code* codes = colptrs[0];
    std::vector<int32_t> class_of_code(enc.dictionary(cols[0]).size() + 1, -1);
    int32_t next = 0;
    for_each_eligible([&](size_t lo, size_t n) {
      simd::ForEachSetBit(elig.data(), simd::MaskWords(n), [&](size_t i) {
        int32_t& cid = class_of_code[codes[lo + i]];
        if (cid < 0) cid = next++;
        place(static_cast<TupleId>(lo + i), cid);
      });
    });
    p.num_classes_ = static_cast<size_t>(next);
  } else if (cols.size() == 2) {
    std::vector<uint64_t> packed(kBlock);
    std::unordered_map<uint64_t, int32_t> ids;
    for_each_eligible([&](size_t lo, size_t n) {
      kn.PackKeys2x32(colptrs[0] + lo, colptrs[1] + lo, n, packed.data());
      simd::ForEachSetBit(elig.data(), simd::MaskWords(n), [&](size_t i) {
        auto [it, fresh] =
            ids.emplace(packed[i], static_cast<int32_t>(ids.size()));
        place(static_cast<TupleId>(lo + i), it->second);
      });
    });
    p.num_classes_ = ids.size();
  } else {
    std::unordered_map<std::vector<Code>, int32_t, relational::CodeVecHash> ids;
    std::vector<Code> key(cols.size());
    for_each_eligible([&](size_t lo, size_t n) {
      simd::ForEachSetBit(elig.data(), simd::MaskWords(n), [&](size_t i) {
        for (size_t k = 0; k < cols.size(); ++k) key[k] = colptrs[k][lo + i];
        auto [it, fresh] = ids.emplace(key, static_cast<int32_t>(ids.size()));
        place(static_cast<TupleId>(lo + i), it->second);
      });
    });
    p.num_classes_ = ids.size();
  }

  for (auto& m : members) {
    if (m.size() >= 2) p.classes_.push_back(std::move(m));
  }
  return p;
}

Partition Partition::Intersect(const Partition& a, const Partition& b,
                               common::simd::Level level) {
  namespace simd = common::simd;
  Partition p;
  const size_t bound = std::max(a.class_of_.size(), b.class_of_.size());
  p.class_of_.assign(bound, -1);
  std::unordered_map<uint64_t, int32_t> ids;
  std::vector<std::vector<TupleId>> members;

  // Beyond the shorter class_of_ array one side is uncovered, so only the
  // common prefix can contribute. The probe loop runs in kernel blocks:
  // the int32 class ids reinterpret as uint32 columns (-1 = 0xFFFFFFFF),
  // MaskNeAnd32 drops the not-covered tuples of either side, and
  // PackKeys2x32 packs the surviving (class_a, class_b) pairs into the
  // same 64-bit keys the scalar loop built — first-touch class ids over
  // the ascending bit order make every tier's result identical.
  const size_t common_bound = std::min(a.class_of_.size(), b.class_of_.size());
  const auto* ca = reinterpret_cast<const uint32_t*>(a.class_of_.data());
  const auto* cb = reinterpret_cast<const uint32_t*>(b.class_of_.data());
  constexpr uint32_t kNotCovered = 0xFFFFFFFFu;  // bit pattern of int32 -1
  constexpr size_t kBlock = 4096;
  const simd::Kernels& kn = simd::KernelsFor(level);
  std::vector<uint64_t> mask(simd::MaskWords(kBlock));
  std::vector<uint64_t> packed(kBlock);
  for (size_t lo = 0; lo < common_bound; lo += kBlock) {
    const size_t n = std::min(kBlock, common_bound - lo);
    const size_t nwords = simd::MaskWords(n);
    std::fill(mask.begin(), mask.begin() + nwords, ~uint64_t{0});
    if (n % 64 != 0) mask[nwords - 1] = ~uint64_t{0} >> (64 - n % 64);
    kn.MaskNeAnd32(ca + lo, n, kNotCovered, mask.data());
    kn.MaskNeAnd32(cb + lo, n, kNotCovered, mask.data());
    kn.PackKeys2x32(ca + lo, cb + lo, n, packed.data());
    simd::ForEachSetBit(mask.data(), nwords, [&](size_t i) {
      auto [it, fresh] =
          ids.emplace(packed[i], static_cast<int32_t>(ids.size()));
      if (fresh) members.emplace_back();
      members[static_cast<size_t>(it->second)].push_back(
          static_cast<TupleId>(lo + i));
      p.class_of_[lo + i] = it->second;
      ++p.covered_;
    });
  }
  p.num_classes_ = ids.size();
  for (auto& m : members) {
    if (m.size() >= 2) p.classes_.push_back(std::move(m));
  }
  return p;
}

namespace {

/// Releases a PartitionCache build claim on scope exit — also on unwind,
/// so a throwing build (OOM) cannot leave waiters parked forever.
template <typename Set, typename Key>
class ClaimGuard {
 public:
  ClaimGuard(std::mutex* mu, std::condition_variable* cv, Set* set, Key key)
      : mu_(mu), cv_(cv), set_(set), key_(std::move(key)) {}
  ~ClaimGuard() {
    std::lock_guard<std::mutex> lock(*mu_);
    set_->erase(key_);
    cv_->notify_all();
  }
  ClaimGuard(const ClaimGuard&) = delete;
  ClaimGuard& operator=(const ClaimGuard&) = delete;

 private:
  std::mutex* mu_;
  std::condition_variable* cv_;
  Set* set_;
  Key key_;
};

}  // namespace

const Partition& PartitionCache::Get(const std::vector<size_t>& cols) {
  // Builds run outside the lock; the building_* sets claim a key so that
  // concurrent lanes wanting the same set wait for the one builder
  // instead of redoing the work (same-level candidates always share
  // products, so the stampede would be the common case, not a rare
  // race). Waits cannot cycle: a build only recurses into strict subsets.
  if (cols.size() <= 1) {
    const size_t col = cols.empty() ? SIZE_MAX : cols[0];
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (true) {
        auto it = bases_.find(col);
        if (it != bases_.end()) return it->second;
        if (building_bases_.count(col) == 0) {
          building_bases_.insert(col);
          break;
        }
        built_cv_.wait(lock);
      }
    }
    ClaimGuard<std::set<size_t>, size_t> guard(&mu_, &built_cv_,
                                               &building_bases_, col);
    Partition p = Partition::Build(*enc_, cols, level_);
    std::lock_guard<std::mutex> lock(mu_);
    return bases_.try_emplace(col, std::move(p)).first->second;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (auto it = cur_.find(cols); it != cur_.end()) return it->second;
      if (auto it = prev_.find(cols); it != prev_.end()) return it->second;
      if (building_.count(cols) == 0) {
        building_.insert(cols);
        break;
      }
      built_cv_.wait(lock);
    }
  }
  ClaimGuard<std::set<std::vector<size_t>>, std::vector<size_t>> guard(
      &mu_, &built_cv_, &building_, cols);
  std::vector<size_t> prefix(cols.begin(), cols.end() - 1);
  const Partition& pa = Get(prefix);
  const Partition& pb = Get({cols.back()});
  Partition p = Partition::Intersect(pa, pb, level_);
  std::lock_guard<std::mutex> lock(mu_);
  ++builds_;
  return cur_.try_emplace(cols, std::move(p)).first->second;
}

void PartitionCache::BuildBases(size_t ncols, common::ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1 || ncols == 0) {
    for (size_t c = 0; c < ncols; ++c) Get({c});
    return;
  }
  pool->Run(ncols, [this](size_t c) { Get({c}); });
}

void PartitionCache::Rotate() {
  prev_ = std::move(cur_);
  cur_.clear();
}

bool Partition::Refines(const Partition& other) const {
  // Every non-singleton class must sit inside one class of `other`;
  // singleton classes refine trivially. Tuples `other` does not cover
  // (NULL in its attributes) cannot witness a difference and are skipped.
  for (const auto& cls : classes_) {
    int32_t target = -1;
    for (TupleId tid : cls) {
      const int32_t c = other.ClassOf(tid);
      if (c < 0) continue;
      if (target < 0) {
        target = c;
      } else if (c != target) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace semandaq::discovery
