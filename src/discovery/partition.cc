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
  // Group sizes by label; each covered tuple's class_of_ entry holds its
  // label until Finish renumbers the labels into first-touch class ids.
  // Hashed labels are issued densely, so a fresh one is sizes.size().
  std::vector<uint32_t> sizes;
  auto place = [&](size_t tid, size_t label) {
    if (label == sizes.size()) sizes.push_back(0);
    ++sizes[label];
    p.class_of_[tid] = static_cast<int32_t>(label);
  };

  // The refinement pass runs in kernel blocks: MaskLive fuses the liveness
  // filter with the per-column non-NULL test into one bitmap per block, and
  // PackKeys2x32 pre-packs the two-column group keys — the scalar loop that
  // remains is pure group labelling over the surviving bits.
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
    // Codes are dense 1..|dict|: the code is the label, counted in a dense
    // array.
    const Code* codes = colptrs[0];
    sizes.assign(enc.dictionary(cols[0]).size() + 1, 0);
    for_each_eligible([&](size_t lo, size_t n) {
      simd::ForEachSetBit(elig.data(), simd::MaskWords(n), [&](size_t i) {
        place(lo + i, codes[lo + i]);
      });
    });
  } else if (cols.size() == 2) {
    std::vector<uint64_t> packed(kBlock);
    std::unordered_map<uint64_t, int32_t> ids;
    for_each_eligible([&](size_t lo, size_t n) {
      kn.PackKeys2x32(colptrs[0] + lo, colptrs[1] + lo, n, packed.data());
      simd::ForEachSetBit(elig.data(), simd::MaskWords(n), [&](size_t i) {
        place(lo + i, static_cast<size_t>(
                          ids.emplace(packed[i], static_cast<int32_t>(ids.size()))
                              .first->second));
      });
    });
  } else {
    std::unordered_map<std::vector<Code>, int32_t, relational::CodeVecHash> ids;
    std::vector<Code> key(cols.size());
    for_each_eligible([&](size_t lo, size_t n) {
      simd::ForEachSetBit(elig.data(), simd::MaskWords(n), [&](size_t i) {
        for (size_t k = 0; k < cols.size(); ++k) key[k] = colptrs[k][lo + i];
        place(lo + i, static_cast<size_t>(
                          ids.emplace(key, static_cast<int32_t>(ids.size()))
                              .first->second));
      });
    });
  }
  p.Finish(sizes);
  return p;
}

Partition Partition::Intersect(const Partition& a, const Partition& b,
                               common::simd::Level /*level*/) {
  Partition p;
  const size_t bound = std::max(a.class_of_.size(), b.class_of_.size());
  // Beyond the shorter class_of_ array one side is uncovered, so only the
  // common prefix can be covered. A tuple both operands cover starts as a
  // singleton of the product; the walk below labels the ones that share a
  // class with another tuple.
  const size_t common_bound = std::min(a.class_of_.size(), b.class_of_.size());
  p.class_of_.resize(bound);
  for (size_t t = 0; t < common_bound; ++t) {
    p.class_of_[t] = (a.class_of_[t] | b.class_of_[t]) < 0 ? -1 : kSingleton;
  }
  std::fill(p.class_of_.begin() + common_bound, p.class_of_.end(), -1);

  // A class of the product lies inside one class of each operand, so only
  // the walked operand's materialized classes can hold one of size >= 2:
  // each is split by the other operand's class id. `label_of` is indexed by
  // that id and holds the label it was last given. Labels only grow, so an
  // entry below the first label of the class being split is left over from
  // an earlier class, and one array serves the whole walk without a reset.
  // A label that ends with one member is a singleton of the product.
  const Partition& walk =
      a.stripped_tuples() <= b.stripped_tuples() ? a : b;
  const Partition& probe = &walk == &a ? b : a;
  std::vector<int32_t> label_of(probe.num_classes_, -1);
  std::vector<uint32_t> sizes;
  for (const std::vector<TupleId>& cls : walk.classes_) {
    const auto first = static_cast<int32_t>(sizes.size());
    for (TupleId t : cls) {
      const int32_t c = probe.ClassOf(t);
      if (c < 0) continue;
      int32_t& label = label_of[static_cast<size_t>(c)];
      if (label < first) {
        label = static_cast<int32_t>(sizes.size());
        sizes.push_back(0);
      }
      ++sizes[static_cast<size_t>(label)];
      p.class_of_[static_cast<size_t>(t)] = label;
    }
  }
  p.Finish(sizes);
  return p;
}

void Partition::Finish(const std::vector<uint32_t>& sizes) {
  // Per label: its class id once touched (-1 before) and, for a class of
  // two or more, where its next member goes in the member list sized to it.
  struct Issued {
    int32_t id = -1;
    TupleId* next = nullptr;
  };
  std::vector<Issued> issued(sizes.size());
  int32_t next = 0;
  for (size_t t = 0; t < class_of_.size(); ++t) {
    const int32_t label = class_of_[t];
    if (label == -1) continue;
    ++covered_;
    if (label == kSingleton || sizes[static_cast<size_t>(label)] == 1) {
      class_of_[t] = next++;
      continue;
    }
    Issued& is = issued[static_cast<size_t>(label)];
    if (is.id < 0) {
      is.id = next++;
      is.next = classes_.emplace_back(sizes[static_cast<size_t>(label)]).data();
    }
    class_of_[t] = is.id;
    *is.next++ = static_cast<TupleId>(t);
  }
  num_classes_ = static_cast<size_t>(next);
}

const std::vector<TupleId>* Partition::Members(int32_t cid) const {
  auto it = std::lower_bound(
      classes_.begin(), classes_.end(), cid,
      [this](const std::vector<TupleId>& cls, int32_t id) {
        return ClassOf(cls.front()) < id;
      });
  if (it == classes_.end() || ClassOf(it->front()) != cid) return nullptr;
  return &*it;
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
