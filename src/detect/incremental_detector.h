#ifndef SEMANDAQ_DETECT_INCREMENTAL_DETECTOR_H_
#define SEMANDAQ_DETECT_INCREMENTAL_DETECTOR_H_

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cfd/cfd.h"
#include "common/simd/simd.h"
#include "common/status.h"
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
/// the member tuples matching a variable-RHS pattern together with RHS value
/// counts, so that applying an update touches only the affected buckets —
/// O(|Δ|) work instead of a full re-scan. Snapshot() reconstitutes a
/// ViolationTable that is value-identical to a from-scratch NativeDetector
/// run (a test invariant).
///
/// Internally the detector runs on a dictionary-encoded columnar snapshot
/// (relational::EncodedRelation) that it keeps warm through the delta hooks:
/// bucket keys are LHS code vectors and pattern tableaux are precompiled to
/// codes at Initialize (pattern constants are *encoded into* the
/// dictionaries, so a constant that first appears in a later insert still
/// compiles to the same stable code).
///
/// The detector applies updates to the relation itself so its state can
/// never drift from the data: route all mutations through ApplyAndDetect.
class IncrementalDetector {
 public:
  /// `cfds` are resolved internally against rel's schema. `simd_level`
  /// selects the kernel tier of Initialize()'s bulk bucket build (kAuto =
  /// the host's best); every tier builds byte-identical bucket state.
  IncrementalDetector(relational::Relation* rel, std::vector<cfd::Cfd> cfds,
                      common::simd::Level simd_level =
                          common::simd::Level::kAuto)
      : rel_(rel), cfds_(std::move(cfds)), simd_level_(simd_level) {}

  /// Builds the initial state with one full pass. The pass runs in SIMD
  /// kernel blocks (MaskLive liveness/non-NULL masks, FilterEqMulti32
  /// pattern-constant narrowing, PackKeys2x32 packed bucket keys) instead
  /// of tuple-at-a-time EnterTuple calls; the resulting buckets, singles,
  /// and counters are identical to the per-tuple build on every tier.
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

  /// Buckets examined by all ApplyAndDetect calls so far — the work measure
  /// bench_incremental_detect reports against full re-detection.
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
    const std::unordered_map<relational::Value, int, relational::ValueHash>*
        rhs_counts = nullptr;
  };

  /// The violating buckets `tid` belongs to right now (empty when none).
  std::vector<GroupView> ViolatingGroupsOf(relational::TupleId tid) const;

 private:
  struct Bucket {
    std::vector<relational::TupleId> members;
    std::unordered_map<relational::Value, int, relational::ValueHash> rhs_counts;
    size_t distinct_nonnull = 0;

    void AddRhs(const relational::Value& v);
    void RemoveRhs(const relational::Value& v);
    bool violating() const { return distinct_nonnull >= 2; }
    /// Members with a NULL RHS: rhs_counts holds only the non-NULL values.
    int64_t null_rhs() const {
      int64_t n = static_cast<int64_t>(members.size());
      for (const auto& [v, count] : rhs_counts) n -= count;
      return n;
    }
  };

  /// A tableau row compiled to codes: (LHS position, required code) pairs
  /// for the constants, plus the RHS code for constant-RHS rows.
  struct CompiledRow {
    size_t ci = 0;
    size_t pi = 0;
    std::vector<std::pair<uint32_t, relational::Code>> lhs_consts;
    relational::Code rhs_code = relational::kNullCode;
  };

  struct GroupState {
    std::vector<size_t> lhs_cols;
    size_t rhs_col = 0;
    /// (cfd, pattern) of the feasible variable-RHS rows (Snapshot needs a
    /// representative CFD index for each group).
    std::vector<std::pair<size_t, size_t>> var_rows;
    /// Tableau rows compiled to codes (compiled_var parallel to var_rows).
    std::vector<CompiledRow> compiled_const;
    std::vector<CompiledRow> compiled_var;
    std::unordered_map<std::vector<relational::Code>, Bucket,
                       relational::CodeVecHash>
        buckets;
  };

  /// Members of bucket `b` whose RHS equals tid's, tid included; NULLs
  /// agree with each other. `nulls` is b.null_rhs().
  int64_t SameRhs(const GroupState& gs, const Bucket& b, relational::TupleId tid,
                  int64_t nulls) const;

  /// Fills `key` with the tuple's LHS codes; false when any is NULL.
  bool LhsKeyOf(const GroupState& gs, relational::TupleId tid,
                std::vector<relational::Code>* key) const;

  /// Registers a live tuple in singles and group buckets.
  void EnterTuple(relational::TupleId tid);
  /// Unregisters a live tuple (must run before the row changes/dies).
  void LeaveTuple(relational::TupleId tid);
  /// Kernel-block twin of calling EnterTuple for every live tuple — the
  /// Initialize() bulk path.
  void BulkEnter();

  relational::Relation* rel_;
  std::vector<cfd::Cfd> cfds_;
  common::simd::Level simd_level_ = common::simd::Level::kAuto;
  std::vector<GroupState> groups_;
  /// Columnar code mirror of *rel_, kept warm by the delta hooks.
  std::optional<relational::EncodedRelation> enc_;
  bool initialized_ = false;

  /// tid -> (cfd, pattern) single violations.
  std::unordered_map<relational::TupleId, std::vector<std::pair<size_t, size_t>>>
      singles_;
  size_t buckets_touched_ = 0;
};

}  // namespace semandaq::detect

#endif  // SEMANDAQ_DETECT_INCREMENTAL_DETECTOR_H_
