#ifndef SEMANDAQ_CORE_EXPLORER_H_
#define SEMANDAQ_CORE_EXPLORER_H_

#include <string>
#include <utility>
#include <vector>

#include "cfd/cfd.h"
#include "common/status.h"
#include "detect/violation.h"
#include "relational/relation.h"

namespace semandaq::core {

/// The data explorer's CFD drill-down (paper §3, "Data exploration" and
/// Fig. 2): select an embedded FD, see its pattern tuples, the distinct LHS
/// values matching a pattern, the distinct RHS values for one LHS, and
/// finally the tuples — with violation counts guiding every step.
///
/// The explorer is a pure read API over one relation, a CFD set, and a
/// detection result (the GUI of the paper renders exactly these tables). It
/// owns the CFDs and the detection result and borrows the relation.
class DataExplorer {
 public:
  struct CfdEntry {
    int cfd_index = -1;
    std::string display;        ///< "[CNT, ZIP] -> [STR]"
    size_t num_patterns = 0;
    int64_t violation_count = 0;  ///< sum of vio over tuples this CFD flags
  };

  struct PatternEntry {
    int pattern_index = -1;
    std::string display;  ///< "(UK, _ || _)"
    size_t matching_tuples = 0;
    int64_t violation_count = 0;
  };

  struct LhsEntry {
    relational::Row lhs;
    size_t tuple_count = 0;
    size_t distinct_rhs = 0;
    int64_t violation_count = 0;
  };

  struct RhsEntry {
    relational::Value rhs;
    size_t tuple_count = 0;
    int64_t violation_count = 0;
  };

  /// `rel` must outlive the explorer. `cfds` must be resolved against its
  /// schema and `table` must be a detection result for (rel, cfds) —
  /// violation counts are read from it.
  DataExplorer(const relational::Relation* rel, std::vector<cfd::Cfd> cfds,
               detect::ViolationTable table)
      : rel_(rel), cfds_(std::move(cfds)), table_(std::move(table)) {}

  /// Step 1: the CFDs (embedded FDs) to explore.
  common::Result<std::vector<CfdEntry>> ListCfds() const;

  /// Step 2: the pattern tuples of one CFD.
  common::Result<std::vector<PatternEntry>> PatternsOf(int cfd_index) const;

  /// Step 3: distinct LHS projections of tuples matching one pattern.
  common::Result<std::vector<LhsEntry>> LhsMatches(int cfd_index,
                                                   int pattern_index) const;

  /// Step 4: distinct RHS values among tuples with the given LHS.
  common::Result<std::vector<RhsEntry>> RhsValues(int cfd_index, int pattern_index,
                                                  const relational::Row& lhs) const;

  /// Step 5: the tuples behind one (LHS, RHS) choice.
  common::Result<std::vector<relational::TupleId>> TuplesFor(
      int cfd_index, int pattern_index, const relational::Row& lhs,
      const relational::Value& rhs) const;

  /// Reverse exploration (paper §3: "the user selects a tuple ... and is
  /// provided with all CFDs and pattern tuples relevant to that tuple"):
  /// (cfd_index, pattern_index) pairs whose LHS pattern matches the tuple.
  common::Result<std::vector<std::pair<int, int>>> CfdsForTuple(
      relational::TupleId tid) const;

  /// Renders the full Fig. 2 drill-down as four ASCII tables for a given
  /// selection path (used by the fig2 binary and examples).
  std::string RenderDrilldown(int cfd_index, int pattern_index,
                              const relational::Row& lhs) const;

 private:
  common::Status CheckCfdIndex(int cfd_index) const;
  common::Status CheckPattern(int cfd_index, int pattern_index) const;

  const relational::Relation* rel_;
  std::vector<cfd::Cfd> cfds_;
  detect::ViolationTable table_;
};

}  // namespace semandaq::core

#endif  // SEMANDAQ_CORE_EXPLORER_H_
