#ifndef SEMANDAQ_REPAIR_BATCH_REPAIR_H_
#define SEMANDAQ_REPAIR_BATCH_REPAIR_H_

#include <utility>
#include <vector>

#include "cfd/cfd.h"
#include "common/cancel.h"
#include "common/simd/simd.h"
#include "common/status.h"
#include "detect/violation.h"
#include "relational/relation.h"
#include "repair/cost_model.h"

namespace semandaq::common {
class ThreadPool;
}  // namespace semandaq::common

namespace semandaq::repair {

/// Tuning knobs of the heuristic repair algorithm.
struct RepairOptions {
  /// Detection/resolution rounds before the NULL-escape pass that
  /// guarantees termination (the role nulls play in Cong et al. [VLDB'07]).
  int max_iterations = 16;

  /// Allow breaking a pattern match by editing an LHS cell (otherwise only
  /// RHS cells are repaired).
  bool enable_lhs_repairs = true;

  /// How many ranked alternative values to keep per changed cell for the
  /// cleansing-review UI (paper Fig. 5).
  size_t alternatives_k = 3;

  /// Ignored: repair runs on the calling thread (docs/architecture.md,
  /// "Where lanes are used"). Kept so existing callers still compile.
  size_t num_threads = 1;

  /// Kernel tier of the encoded scans (see docs/simd.md); every tier
  /// repairs identically.
  common::simd::Level simd_level = common::simd::Level::kAuto;

  /// Ignored, like `num_threads`.
  common::ThreadPool* pool = nullptr;

  /// Cooperative cancellation (common/cancel.h), checked by the initial
  /// encode of a row-built input, at round boundaries and by the per-round
  /// re-detection scans (kernel blocks). The engine writes only its private
  /// copy-on-write codes, and the relation is untouched until the caller
  /// applies the change list, so a tripped token turns Run() into
  /// Status::Cancelled / Status::DeadlineExceeded with no observable state
  /// change. nullptr = not cancellable.
  common::CancelToken* cancel = nullptr;
};

/// One cell edit made by the cleanser, with its ranked alternatives.
struct CellChange {
  relational::TupleId tid = -1;
  size_t col = 0;
  relational::Value original;
  relational::Value repaired;
  double cost = 0;
  /// Other candidate values considered for this cell, ranked by cost
  /// ascending (the pop-up list of the paper's Fig. 5).
  std::vector<std::pair<relational::Value, double>> alternatives;
};

/// Outcome of a repair run: the candidate repair as its change list (the
/// attribute-value modifications the cleansing review shows), plus its
/// counters. ApplyChanges writes the list into a relation; applied to a
/// copy of the input, it yields the repaired relation.
struct RepairResult {
  /// One entry per cell Run() changed, in (tid, col) order.
  std::vector<CellChange> changes;
  double total_cost = 0;
  int iterations = 0;
  /// Violations the final re-detection still finds. The NULL-escape pass
  /// clears whatever the rounds leave, so this is 0 — also for an
  /// unsatisfiable Σ (tests/cfd_oracle_test.cc checks it).
  size_t remaining_violations = 0;
  /// Number of cells forced to NULL by the termination escape.
  size_t null_escapes = 0;
};

/// Writes each change's `repaired` value into `rel`, in order, stopping at
/// the first write that fails (a dead tuple or an unknown column). This is
/// how a plan is applied (Semandaq::ApplyRepair) and how callers that want
/// the repaired relation get it: apply the plan to a clone of the input.
common::Status ApplyChanges(const std::vector<CellChange>& changes,
                            relational::Relation* rel);

/// The cost-based heuristic repair algorithm of Cong et al. [VLDB'07]
/// ("BatchRepair"), the engine behind the paper's data cleanser (§2: "a
/// candidate repair is obtained from the original data using attribute value
/// modifications on the violations ... the repair algorithm aims to find a
/// repair that minimally differs from the original data").
///
/// The working state is a copy of the input, which shares its dictionaries
/// and code chunks and so costs O(columns) plus the liveness bytes. Every
/// edit writes a code into it through Relation::SetCell, which detaches
/// what it touches first, so re-detection, matching and candidate costs
/// run on integer codes, and the input is neither written nor decoded row
/// by row.
///
/// Each round: detect violations; resolve every single-tuple violation by
/// the cheaper of (RHS := pattern constant) and (break the LHS match);
/// resolve every multi-tuple group by assigning its members' RHS cells the
/// value that minimizes total weighted change cost (or break a minority
/// member's LHS match when cheaper). Rounds repeat until clean; a
/// NULL-escape pass bounds the worst case.
class BatchRepair {
 public:
  /// `cfds` are resolved internally against rel's schema.
  BatchRepair(const relational::Relation* rel, std::vector<cfd::Cfd> cfds,
              CostModel cost_model, RepairOptions options = {});

  common::Result<RepairResult> Run();

 private:
  const relational::Relation* rel_;
  std::vector<cfd::Cfd> cfds_;
  CostModel cost_model_;
  RepairOptions options_;
};

}  // namespace semandaq::repair

#endif  // SEMANDAQ_REPAIR_BATCH_REPAIR_H_
