#ifndef SEMANDAQ_CFD_SATISFIABILITY_H_
#define SEMANDAQ_CFD_SATISFIABILITY_H_

#include <string>
#include <utility>
#include <vector>

#include "cfd/cfd.h"
#include "common/status.h"
#include "relational/schema.h"

namespace semandaq::cfd {

/// Outcome of the consistency (satisfiability) analysis of a CFD set.
struct SatisfiabilityReport {
  bool satisfiable = false;

  /// When satisfiable: a one-tuple witness over `witness_attrs` (parallel
  /// vectors). By Proposition 2.2-style reasoning in Fan et al. [TODS'08],
  /// a CFD set is satisfiable iff some single tuple satisfies it, so the
  /// witness is a complete certificate.
  std::vector<std::string> witness_attrs;
  relational::Row witness;

  /// When unsatisfiable: pairs of CFD indices that are already jointly
  /// unsatisfiable (best-effort explanation; empty if the conflict needs
  /// three or more CFDs).
  std::vector<std::pair<size_t, size_t>> conflicting_pairs;

  /// Human-readable summary for the UI layer.
  std::string explanation;

  /// Number of candidate-assignment nodes the search explored (a work
  /// measure).
  size_t nodes_explored = 0;
};

/// Decides whether a set of CFDs over one relation schema "makes sense"
/// (paper §2, Constraint Engine): is there a non-empty instance satisfying
/// all of them?
///
/// Algorithm: reduce to the one-tuple-witness test of [TODS'08] and run a
/// backtracking search over, per attribute, the constants mentioned by the
/// CFD set plus one fresh "other" value — restricted to the declared domain
/// for finite-domain attributes (the case that makes the problem
/// NP-complete). Constraint propagation prunes a prefix assignment as soon
/// as a fully-assigned CFD is violated.
class SatisfiabilityChecker {
 public:
  explicit SatisfiabilityChecker(const relational::Schema& schema)
      : schema_(schema) {}

  /// All CFDs must target the same relation and resolve against the schema.
  /// (Resolve() is invoked on copies; the input is untouched.)
  common::Result<SatisfiabilityReport> Check(const std::vector<Cfd>& cfds) const;

 private:
  const relational::Schema& schema_;
};

}  // namespace semandaq::cfd

#endif  // SEMANDAQ_CFD_SATISFIABILITY_H_
