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

  /// Cooperative cancellation (common/cancel.h), checked at round
  /// boundaries and inherited by the per-round re-detection scans (kernel
  /// blocks). The engine repairs a private clone of the relation and the
  /// master copy is untouched until the caller publishes the RepairResult,
  /// so a tripped token turns Run() into Status::Cancelled /
  /// Status::DeadlineExceeded with no observable state change. nullptr =
  /// not cancellable.
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

/// Outcome of a repair run.
struct RepairResult {
  relational::Relation repaired;
  std::vector<CellChange> changes;
  double total_cost = 0;
  int iterations = 0;
  /// Violations the final re-detection still finds. The NULL-escape pass
  /// clears whatever the rounds leave, so this is 0 — also for an
  /// unsatisfiable Σ (tests/cfd_oracle_test.cc checks it).
  size_t remaining_violations = 0;
  /// Number of cells forced to NULL by the termination escape.
  size_t null_escapes = 0;
  /// Number of multi-cell equivalence classes the resolved groups merged
  /// (repair::EquivalenceClasses over the RHS code columns) — the
  /// repair-complexity statistic of the [SIGMOD'05] framework.
  size_t merged_classes = 0;
};

/// The cost-based heuristic repair algorithm of Cong et al. [VLDB'07]
/// ("BatchRepair"), the engine behind the paper's data cleanser (§2: "a
/// candidate repair is obtained from the original data using attribute value
/// modifications on the violations ... the repair algorithm aims to find a
/// repair that minimally differs from the original data").
///
/// The working relation is mirrored by one dictionary-encoded snapshot,
/// kept warm across rounds (every applied cell edit re-encodes exactly that
/// cell), so re-detection and candidate costs run on integer codes.
///
/// Each round: detect violations; resolve every single-tuple violation by
/// the cheaper of (RHS := pattern constant) and (break the LHS match);
/// resolve every multi-tuple group by merging the members' RHS cells and
/// assigning the value that minimizes total weighted change cost (or break
/// a minority member's LHS match when cheaper). Rounds repeat until clean;
/// a NULL-escape pass bounds the worst case.
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
