#ifndef SEMANDAQ_DETECT_INCREMENTAL_DETECTOR_H_
#define SEMANDAQ_DETECT_INCREMENTAL_DETECTOR_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "cfd/cfd.h"
#include "common/simd/simd.h"
#include "common/status.h"
#include "detect/pattern_scan.h"
#include "detect/violation.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"
#include "relational/update.h"

namespace semandaq::detect {

/// Incremental CFD violation detection (paper §2, Data Monitor: "invoking an
/// incremental detection module ... using the incremental SQL-based
/// detection techniques developed in [3]").
///
/// The detector owns per-embedded-FD-group hash state: for every LHS key,
/// the member tuples matching a variable-RHS pattern together with counts
/// of their RHS codes, so that applying an update touches only the affected
/// buckets — O(|Δ|) work instead of a full re-scan. Snapshot() reconstitutes
/// a ViolationTable that is value-identical to a from-scratch NativeDetector
/// run (a test invariant).
///
/// It runs NativeDetector's scan (detect/pattern_scan.h): tableau rows
/// compile to codes through the same rule, Initialize() builds the buckets
/// by scanning the relation's code columns in kernel blocks, and every
/// inserted or rewritten tuple is entered by scanning its one-tuple block,
/// after rebinding the scan's column and liveness pointers to the relation
/// as the write left it. Pattern constants are first interned into the
/// relation's dictionaries (Relation::Intern), so a constant that first
/// appears in a later insert still carries the code it was compiled to.
///
/// The detector applies updates to the relation itself so its state can
/// never drift from the data: route all mutations through ApplyAndDetect.
class IncrementalDetector {
 public:
  /// `cfds` are resolved internally against rel's schema. `simd_level`
  /// selects the kernel tier of the scan (kAuto = the host's best); every
  /// tier builds byte-identical bucket state.
  IncrementalDetector(relational::Relation* rel, std::vector<cfd::Cfd> cfds,
                      common::simd::Level simd_level =
                          common::simd::Level::kAuto)
      : rel_(rel), cfds_(std::move(cfds)), simd_level_(simd_level) {}

  /// Builds the initial state with one full pass of the kernel-block scan.
  /// Must be called once before ApplyAndDetect.
  common::Status Initialize();

  /// Applies the batch to the relation and updates violation state.
  /// Freshly inserted tuple ids are appended to `inserted` when non-null.
  common::Status ApplyAndDetect(const relational::UpdateBatch& batch,
                                std::vector<relational::TupleId>* inserted = nullptr);

  /// Current violations, equivalent to a full re-detection.
  ViolationTable Snapshot() const;

  /// Current vio(t) without materializing a snapshot.
  int64_t Vio(relational::TupleId tid) const;

  /// True when no tuple currently violates any CFD.
  bool Clean() const;

  /// Buckets examined by Initialize and all ApplyAndDetect calls so far — a
  /// work measure to set against full re-detection.
  size_t buckets_touched() const { return buckets_touched_; }

  const std::vector<cfd::Cfd>& cfds() const { return cfds_; }

  /// (cfd, pattern) pairs for which `tid` is currently a single-tuple
  /// violator. O(1) lookup — this is what makes delta-local repair cheap.
  std::vector<std::pair<size_t, size_t>> SinglesOf(relational::TupleId tid) const;

  /// Read-only view of one violating multi-tuple bucket containing a tuple.
  struct GroupView {
    size_t fd_group = 0;
    size_t rhs_col = 0;
    size_t escape_lhs_col = 0;  ///< last LHS column (the NULL-escape target)
    const std::vector<relational::TupleId>* members = nullptr;
    /// Members per non-NULL RHS code (codes of column rhs_col).
    const std::unordered_map<relational::Code, int>* rhs_counts = nullptr;
  };

  /// The violating buckets `tid` belongs to right now (empty when none).
  std::vector<GroupView> ViolatingGroupsOf(relational::TupleId tid) const;

 private:
  struct Bucket {
    std::vector<relational::TupleId> members;
    /// Members per non-NULL RHS code, and members with a NULL RHS.
    std::unordered_map<relational::Code, int> rhs_counts;
    int null_rhs = 0;

    void AddRhs(relational::Code c);
    void RemoveRhs(relational::Code c);
    bool violating() const { return rhs_counts.size() >= 2; }
    /// Members whose RHS code is `c`; NULLs agree with each other.
    int64_t SameRhs(relational::Code c) const;
  };

  struct GroupState {
    /// The group compiled for the scan; its pointers are rebound before
    /// every scan, since a write may move the columns it reads.
    GroupScan scan;
    ScanScratch scratch;
    std::unordered_map<std::vector<relational::Code>, Bucket,
                       relational::CodeVecHash>
        buckets;
  };

  /// Fills `key` with the tuple's LHS codes; false when any is NULL.
  bool LhsKeyOf(const GroupState& gs, relational::TupleId tid,
                std::vector<relational::Code>* key) const;

  /// The violating bucket of `gs` that holds `tid`, or nullptr. `key` is
  /// scratch.
  const Bucket* ViolatingBucketOf(const GroupState& gs, relational::TupleId tid,
                                  std::vector<relational::Code>* key) const;

  /// Registers a live tuple in singles and group buckets: the scan of its
  /// one-tuple block.
  void EnterTuple(relational::TupleId tid);
  /// Unregisters a live tuple (must run before the row changes/dies).
  void LeaveTuple(relational::TupleId tid);

  relational::Relation* rel_;
  /// The code view of *rel_.
  const relational::EncodedRelation enc_{rel_};
  std::vector<cfd::Cfd> cfds_;
  common::simd::Level simd_level_ = common::simd::Level::kAuto;
  std::vector<GroupState> groups_;
  bool initialized_ = false;

  /// tid -> (cfd, pattern) single violations.
  std::unordered_map<relational::TupleId, std::vector<std::pair<size_t, size_t>>>
      singles_;
  size_t buckets_touched_ = 0;
};

}  // namespace semandaq::detect

#endif  // SEMANDAQ_DETECT_INCREMENTAL_DETECTOR_H_
