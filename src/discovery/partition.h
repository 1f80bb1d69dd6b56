#ifndef SEMANDAQ_DISCOVERY_PARTITION_H_
#define SEMANDAQ_DISCOVERY_PARTITION_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/simd/simd.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"

namespace semandaq::common {
class ThreadPool;
}  // namespace semandaq::common

namespace semandaq::discovery {

/// The equivalence-class partition Π_X of a relation's live tuples under
/// equality on an attribute set X — the workhorse of TANE-family dependency
/// discovery. Tuples with NULL in any X attribute are excluded (NULLs
/// cannot witness equality, matching the detector's semantics).
///
/// The partition is stripped (TANE): every covered tuple has a class id,
/// but only the classes of two or more tuples are materialized as member
/// lists. A singleton class costs one class_of_ entry and nothing else.
class Partition {
 public:
  /// Builds Π_X from a dictionary-encoded snapshot: a counting/group pass
  /// over code columns. Single attributes index a dense code->count array
  /// sized by the dictionary cardinality (no hash table at all); wider sets
  /// group on packed code keys. Class ids are assigned in first-touch
  /// (tuple id) order.
  ///
  /// The liveness + non-NULL filter and the two-column key packing run on
  /// the common::simd kernel tier `level` (kAuto = the host's best; see
  /// docs/simd.md) — every tier builds the identical partition; the knob
  /// exists for A/B benches and the scalar-floor equivalence tests.
  static Partition Build(const relational::EncodedRelation& enc,
                         const std::vector<size_t>& cols,
                         common::simd::Level level = common::simd::Level::kAuto);

  /// Product partition Π_{X ∪ Y} = Π_X · Π_Y, the stripped product: it
  /// walks only the materialized classes of whichever operand holds fewer
  /// tuples in them and splits each by the other operand's class id, with
  /// no hash table; only the member lists of classes of two or more are
  /// allocated, one each. Class ids are issued in first-touch order, so
  /// the result equals Build over X ∪ Y. `level` is accepted for source
  /// compatibility and unused: no kernel runs here.
  static Partition Intersect(const Partition& a, const Partition& b,
                             common::simd::Level level =
                                 common::simd::Level::kAuto);

  /// Number of classes (singletons included).
  size_t num_classes() const { return num_classes_; }

  /// Tuples covered (live tuples without NULL in X), singletons included.
  size_t num_tuples() const { return covered_; }

  /// The stripped-partition error measure e(X) = |covered| - |Π_X|: how
  /// many tuples sit on top of another tuple of their class (0 when X is a
  /// key over the covered tuples). This is the TANE validation measure:
  /// when Π_X and Π_{X∪A} cover the same tuples, X -> A holds iff
  /// e(X) == e(X∪A) — see RefinesForFd below.
  size_t Error() const { return covered_ - num_classes_; }

  /// Class id for a tuple, or -1 when the tuple is not covered. Every
  /// covered tuple has one, a singleton's included.
  int32_t ClassOf(relational::TupleId tid) const {
    const auto i = static_cast<size_t>(tid);
    return i < class_of_.size() ? class_of_[i] : -1;
  }

  /// Members of every class of size >= 2, in class-id order. Singleton
  /// classes are counted but not materialized ("stripped" representation).
  const std::vector<std::vector<relational::TupleId>>& classes() const {
    return classes_;
  }

  /// The members of class `cid` when it has two or more, else nullptr (a
  /// singleton, or no such class). A binary search over classes(), which
  /// are in id order.
  const std::vector<relational::TupleId>* Members(int32_t cid) const;

  /// True when this partition refines `other`: every class of this is
  /// contained in one class of `other` (restricted to commonly covered
  /// tuples). Π_X refines Π_{X∪A}  <=>  FD X -> A holds.
  bool Refines(const Partition& other) const;

 private:
  /// Tuples in materialized classes: the covered tuples minus singletons.
  size_t stripped_tuples() const {
    return covered_ - (num_classes_ - classes_.size());
  }

  /// Turns group labels into the final partition. On entry class_of_ holds,
  /// per tuple, -1 (not covered), kSingleton (covered, alone in its class)
  /// or a label whose class has sizes[label] members (a label of size 1 is
  /// a singleton too). One pass over the tuple ids issues class ids in
  /// first-touch order and fills the member lists of the classes of size
  /// >= 2, each allocated once at its size.
  void Finish(const std::vector<uint32_t>& sizes);

  static constexpr int32_t kSingleton = -2;

  std::vector<int32_t> class_of_;  // indexed by tuple id; -1 = not covered
  std::vector<std::vector<relational::TupleId>> classes_;  // size >= 2 only
  size_t num_classes_ = 0;
  size_t covered_ = 0;
};

/// The FD validation test X -> A given px = Π_X and pxa = Π_{X∪A}.
///
/// Fast path: Π_{X∪A} always refines Π_X on the tuples both cover, and
/// cover(X∪A) ⊆ cover(X) (adding A can only exclude more NULL tuples), so
/// when the cover *counts* match the covers are equal and px.Refines(pxa)
/// collapses to partition equality — decided by the classic TANE error
/// test e(X) == e(X∪A) in O(1) instead of walking every class. When A's
/// NULLs shrink pxa's cover, fall back to the class walk.
inline bool RefinesForFd(const Partition& px, const Partition& pxa) {
  if (px.num_tuples() == pxa.num_tuples()) return px.Error() == pxa.Error();
  return px.Refines(pxa);
}

/// Level-scoped partition memory for the levelwise lattice sweep.
///
/// The miners' old per-Mine() std::map cache retained every partition ever
/// built — O(Σ_k C(ncols, k)) resident partitions over a full sweep. The
/// sweep only ever reads three slices, though: the pinned single-attribute
/// bases (the Intersect recurrence always ends in one), the previous
/// lattice level's products, and the products being built for the next
/// level. PartitionCache keeps exactly those: bases forever, plus two
/// rotating generations. Rotate() seals the current generation and drops
/// the older one between levels, so peak residency is bounded to two
/// lattice levels regardless of sweep depth. A Get() for an evicted set is
/// rebuilt on demand from the bases (never served stale) into the current
/// generation.
///
/// Get() is thread-safe — the per-level candidate fan-out calls it from
/// pool lanes concurrently. Builds run outside the lock, and an
/// in-flight set deduplicates them: same-level candidates request the
/// same products (every (k+1)-set is wanted by k+1 candidates), so a
/// lane that finds its set under construction waits for the builder
/// instead of redoing the dominant Intersect work. Waits cannot cycle —
/// a build only ever waits on strict subsets of its own set. A returned
/// reference is only guaranteed until the next Rotate(): an entry served
/// from the previous generation dies right there (Rotate destroys that
/// map), so hold references within one level only. Base references live
/// as long as the cache (std::map nodes are address-stable). Rotate()
/// itself must not race with Get() — call it between levels, after the
/// fan-out joined.
class PartitionCache {
 public:
  /// `enc` is borrowed: the snapshot every base partition is built from.
  /// `level` is the kernel tier every base build runs on.
  explicit PartitionCache(const relational::EncodedRelation* enc,
                          common::simd::Level level = common::simd::Level::kAuto)
      : enc_(enc), level_(level) {}

  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  /// The partition for the sorted attribute set `cols`, built (and cached
  /// in the current generation) if absent. Thread-safe.
  const Partition& Get(const std::vector<size_t>& cols);

  /// Builds all `ncols` single-attribute base partitions up front, fanned
  /// out over `pool` when it has lanes to spare (they are mutually
  /// independent; class ids are first-touch-ordered per partition, so the
  /// result is identical to the lazy serial build). Call once before a
  /// parallel sweep; harmless to skip (bases then build lazily).
  void BuildBases(size_t ncols, common::ThreadPool* pool);

  /// Seals the current generation and evicts the previous one. Call
  /// between lattice levels; not thread-safe against Get().
  void Rotate();

  /// Resident non-base partitions (both generations) — what the eviction
  /// tests bound.
  size_t resident() const { return prev_.size() + cur_.size(); }

  /// Resident pinned base partitions.
  size_t resident_bases() const { return bases_.size(); }

  /// Total non-base builds so far (each Intersect counts once). An evicted
  /// set re-requested later increments this again — the rebuild-on-demand
  /// path the eviction tests assert.
  size_t builds() const { return builds_; }

 private:
  const relational::EncodedRelation* enc_;
  common::simd::Level level_;

  std::mutex mu_;
  std::condition_variable built_cv_;                  // in-flight completions
  std::map<size_t, Partition> bases_;                 // pinned singletons
  std::map<std::vector<size_t>, Partition> prev_;     // sealed level k-1
  std::map<std::vector<size_t>, Partition> cur_;      // level k, filling
  std::set<std::vector<size_t>> building_;            // claimed, not yet done
  std::set<size_t> building_bases_;
  size_t builds_ = 0;
};

}  // namespace semandaq::discovery

#endif  // SEMANDAQ_DISCOVERY_PARTITION_H_
