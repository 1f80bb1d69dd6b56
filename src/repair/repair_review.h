#ifndef SEMANDAQ_REPAIR_REPAIR_REVIEW_H_
#define SEMANDAQ_REPAIR_REPAIR_REVIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "cfd/cfd.h"
#include "common/status.h"
#include "detect/incremental_detector.h"
#include "relational/relation.h"
#include "repair/batch_repair.h"

namespace semandaq::repair {

/// Interactive review of a candidate repair (paper §3, "Data cleansing
/// review" / Fig. 5): compare repaired vs. original with modified cells
/// highlighted, inspect ranked alternatives per cell, override a suggestion,
/// and watch the override trigger background incremental detection that
/// surfaces newly conflicting tuples.
class RepairReview {
 public:
  /// `original` is the repair's input and must outlive the review.
  RepairReview(const relational::Relation* original, RepairResult result,
               std::vector<cfd::Cfd> cfds);

  /// Builds the repaired relation the review owns (a clone of the original
  /// with the changes applied) and arms the incremental detector over it.
  /// Call once before repaired() or OverrideCell.
  common::Status Start();

  const relational::Relation& repaired() const { return repaired_; }
  const std::vector<CellChange>& changes() const { return result_.changes; }

  /// The full repair under review, including the audit counters
  /// (remaining_violations, null_escapes — see RepairResult). Overrides
  /// applied through OverrideCell are reflected in its change log.
  const RepairResult& result() const { return result_; }

  /// The change record for a cell, or nullptr when the cleanser left it
  /// untouched.
  const CellChange* FindChange(relational::TupleId tid, size_t col) const;

  /// Replaces the repaired value of one cell with the user's choice and runs
  /// incremental detection; returns the tuples that NOW conflict as a
  /// consequence (empty when the override is safe).
  common::Result<std::vector<relational::TupleId>> OverrideCell(
      relational::TupleId tid, size_t col, relational::Value v);

  /// Side-by-side diff of original vs. repaired for the first `max_rows`
  /// tuples; modified cells are rendered as [old -> new] (the red highlight
  /// of Fig. 5).
  std::string RenderDiff(size_t max_rows = 20) const;

 private:
  const relational::Relation* original_;
  RepairResult result_;
  relational::Relation repaired_;  // built by Start()
  std::vector<cfd::Cfd> cfds_;
  std::unique_ptr<detect::IncrementalDetector> detector_;
};

}  // namespace semandaq::repair

#endif  // SEMANDAQ_REPAIR_REPAIR_REVIEW_H_
