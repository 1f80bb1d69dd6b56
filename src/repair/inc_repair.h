#ifndef SEMANDAQ_REPAIR_INC_REPAIR_H_
#define SEMANDAQ_REPAIR_INC_REPAIR_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "cfd/cfd.h"
#include "common/status.h"
#include "detect/incremental_detector.h"
#include "relational/relation.h"
#include "relational/update.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"

namespace semandaq::repair {

/// Outcome of one incremental-repair batch (stateful engine).
struct IncBatchResult {
  /// Cell edits applied to the delta, with ranked alternatives.
  std::vector<CellChange> changes;
  double total_cost = 0;
  /// Violations still involving delta tuples (non-zero only when the
  /// immutable clean data pins irreconcilable values).
  size_t remaining_violations = 0;
  size_t null_escapes = 0;
  /// Tuple ids the batch introduced or modified.
  std::vector<relational::TupleId> delta_tids;
};

/// Incremental repair (IncRepair of Cong et al. [VLDB'07]; paper §2, Data
/// Monitor mode (2)). Precondition: the relation satisfies Σ. Each update
/// batch is applied and only the inserted/modified tuples may be edited;
/// the existing clean data is immutable and pins multi-tuple targets.
///
/// The engine is *stateful*: Start() pays one O(|D|) pass to build the
/// incremental detector's group state, after which every ApplyAndRepair
/// costs O(|Δ|) — violations of delta tuples are read directly from the
/// detector's buckets, never by re-scanning the relation. This is the
/// |Δ|-vs-|D| separation the companion paper's IncRepair experiment shows.
///
/// Unlike BatchRepair, it edits the relation it is given in place (run it
/// over a clone to keep an input untouched), one cell per update through
/// the detector. It tallies RHS values as dictionary codes and decodes only
/// the cells it costs, compares or writes: the per-batch work is already
/// delta-local, so BatchRepair's round machinery (see docs/repair.md) has
/// nothing to amortize here. Of RepairOptions only `max_iterations` and
/// `alternatives_k` apply. Every decision is deterministic — consensus
/// candidates are Compare-ordered before cost ties break first-wins,
/// matching the batch engine's guarantee.
class IncRepairEngine {
 public:
  /// The relation must outlive the engine; all mutations must go through
  /// ApplyAndRepair so the internal detector stays in sync.
  IncRepairEngine(relational::Relation* rel, std::vector<cfd::Cfd> cfds,
                  CostModel cost_model, RepairOptions options = {});

  /// Builds detector state (one full pass). Call once.
  common::Status Start();

  /// Applies the batch, then repairs the delta tuples in place.
  common::Result<IncBatchResult> ApplyAndRepair(const relational::UpdateBatch& batch);

  /// The live detector (for violation snapshots).
  detect::IncrementalDetector* detector() { return detector_.get(); }

 private:
  /// Resolves all current violations of one delta tuple. Returns the number
  /// of edits applied.
  common::Result<size_t> RepairTuple(relational::TupleId tid, IncBatchResult* result);

  relational::Relation* rel_;
  std::vector<cfd::Cfd> cfds_;
  CostModel cost_model_;
  RepairOptions options_;
  std::unique_ptr<detect::IncrementalDetector> detector_;
  std::unordered_set<relational::TupleId> delta_;
};

}  // namespace semandaq::repair

#endif  // SEMANDAQ_REPAIR_INC_REPAIR_H_
