#ifndef SEMANDAQ_DETECT_NATIVE_DETECTOR_H_
#define SEMANDAQ_DETECT_NATIVE_DETECTOR_H_

#include <cstddef>
#include <vector>

#include "cfd/cfd.h"
#include "common/cancel.h"
#include "common/simd/simd.h"
#include "common/status.h"
#include "detect/violation.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"

namespace semandaq::common {
class ThreadPool;
}  // namespace semandaq::common

namespace semandaq::detect {

struct DetectorOptions {
  /// Ignored: detection runs on the calling thread (docs/architecture.md,
  /// "Where lanes are used"). Kept so existing callers still compile.
  size_t num_threads = 1;

  /// Instruction-set tier of the scan's kernels (pattern match,
  /// liveness/NULL filtering, group-key packing — see docs/simd.md).
  /// kAuto (the default) resolves to the best tier the host supports,
  /// clamped by the SEMANDAQ_SIMD environment override; any explicit tier
  /// is clamped to what the host can run. Every tier produces byte-identical
  /// ViolationTables — this knob exists for A/B measurement and for forcing
  /// the scalar dispatch floor in tests.
  common::simd::Level simd_level = common::simd::Level::kAuto;

  /// Cooperative cancellation (common/cancel.h): checked once per kernel
  /// block and per CFD group. A tripped token turns Detect into
  /// Status::Cancelled / Status::DeadlineExceeded with nothing published —
  /// detection writes only its local ViolationTable, so stopping is free.
  /// nullptr (the default) = not cancellable.
  common::CancelToken* cancel = nullptr;
};

/// In-process CFD violation detector: one scan per embedded-FD group over a
/// dictionary-encoded columnar snapshot (relational::EncodedRelation).
/// Pattern constants compile to integer codes once per Detect, and grouping
/// runs on packed LHS code keys.
///
/// Semantics are value-for-value identical to the SQL-based detector (the
/// cross-check is a test invariant):
///  * single-tuple: t matches a constant-RHS pattern's LHS and t[A] is
///    non-NULL and != the RHS constant (NULL cells are "unknown, not
///    wrong", mirroring SQL's three-valued `t.A <> c`);
///  * multi-tuple: tuples matching ANY variable-RHS row of the group, with
///    no NULL among their LHS values, grouped by the LHS projection; a group
///    violates when it carries >= 2 distinct non-NULL RHS values.
///
/// Multi-tuple groups are emitted in deterministic first-touch order, on
/// the calling thread. A group's only per-member output is its partner
/// count, taken from RHS codes; only the LHS key is decoded. tests/
/// cfd_oracle_test.cc checks every SIMD tier against a definition-level
/// oracle.
class NativeDetector {
 public:
  /// `cfds` are resolved internally against rel's schema (copies; the input
  /// vector is untouched).
  NativeDetector(const relational::Relation* rel, std::vector<cfd::Cfd> cfds,
                 DetectorOptions options = {})
      : rel_(rel), cfds_(std::move(cfds)), options_(options) {}

  /// Attaches an externally owned, already-synced encoded snapshot of the
  /// relation so repeated Detect calls skip the encode pass (the warm-scan
  /// production pattern). Without one, or with a stale one, Detect builds
  /// a local EncodedRelation, which adopts the codes of a column-backed
  /// relation instead of encoding. The snapshot is never written during
  /// Detect.
  void set_encoded(const relational::EncodedRelation* encoded) {
    encoded_ = encoded;
  }

  /// Ignored, like DetectorOptions::num_threads. Kept so existing callers
  /// still compile.
  void set_thread_pool(common::ThreadPool* /*pool*/) {}

  /// Full-relation detection pass.
  common::Result<ViolationTable> Detect();

  /// The resolved CFDs in detector order (index space of SingleViolation).
  const std::vector<cfd::Cfd>& cfds() const { return cfds_; }

 private:
  common::Result<ViolationTable> DetectEncoded(
      const relational::EncodedRelation& enc);

  const relational::Relation* rel_;
  std::vector<cfd::Cfd> cfds_;
  DetectorOptions options_;
  const relational::EncodedRelation* encoded_ = nullptr;
};

}  // namespace semandaq::detect

#endif  // SEMANDAQ_DETECT_NATIVE_DETECTOR_H_
