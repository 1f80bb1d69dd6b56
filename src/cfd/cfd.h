#ifndef SEMANDAQ_CFD_CFD_H_
#define SEMANDAQ_CFD_CFD_H_

#include <string>
#include <vector>

#include "cfd/pattern.h"
#include "common/status.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace semandaq::cfd {

/// One row of a CFD's pattern tableau: a pattern over the LHS attributes
/// plus a pattern for the RHS attribute.
struct PatternTuple {
  std::vector<PatternValue> lhs;  ///< parallel to Cfd::lhs_attrs()
  PatternValue rhs;

  /// True when the RHS is a constant (single-tuple semantics apply).
  bool is_constant_rhs() const { return rhs.is_constant(); }

  /// True when every position (LHS and RHS) is the wildcard — the row then
  /// expresses the plain embedded FD.
  bool is_pure_fd_row() const;

  /// "(UK, _ || _)" in the paper's tableau notation.
  std::string ToString() const;
};

/// A conditional functional dependency φ = (R : X → A, Tp) in the formalism
/// of Fan, Geerts, Jia, Kementsietsidis [TODS'08]: an embedded FD X → A over
/// relation R together with a pattern tableau Tp. Each tableau row whose LHS
/// pattern a tuple matches conditions the FD onto that tuple, and the tuple
/// (pair) must additionally match the row's RHS pattern.
///
/// Worked example (the paper's φ2): over customer, [CNT=UK, ZIP=_] → [STR=_]
/// reads "for UK customers, zip code determines street" — the constant UK
/// conditions the dependency onto a subset of the data, which is exactly
/// what classical FDs cannot express. A row with a *constant* RHS (e.g.
/// [CC=44] → [CNT=UK]) is checkable one tuple at a time ("single-tuple
/// semantics"); a wildcard RHS needs a pair of tuples to witness a
/// violation ("multi-tuple semantics"). src/detect implements both, and
/// cfd_parser.h accepts the bracket notation used above.
///
/// Lifecycle: construct (or parse) → Resolve against a schema (fills the
/// column ordinals and coerces constants to attribute types) → hand copies
/// to detectors/repairers. A Cfd is plain data; resolution is the only
/// step that ties it to a concrete relation.
class Cfd {
 public:
  Cfd() = default;
  Cfd(std::string relation, std::vector<std::string> lhs_attrs, std::string rhs_attr,
      std::vector<PatternTuple> tableau)
      : relation_(std::move(relation)),
        lhs_attrs_(std::move(lhs_attrs)),
        rhs_attr_(std::move(rhs_attr)),
        tableau_(std::move(tableau)) {}

  const std::string& relation() const { return relation_; }
  const std::vector<std::string>& lhs_attrs() const { return lhs_attrs_; }
  const std::string& rhs_attr() const { return rhs_attr_; }
  const std::vector<PatternTuple>& tableau() const { return tableau_; }
  std::vector<PatternTuple>& mutable_tableau() { return tableau_; }

  /// Appends a tableau row (arity must match; asserted).
  void AddPattern(PatternTuple pt);

  /// Resolves attribute names against `schema`: fills the column ordinals
  /// and coerces string-typed pattern constants to the attribute types
  /// (e.g. "44" to INT 44 for an INT attribute). Fails on unknown
  /// attributes, arity mismatches, or non-coercible constants.
  common::Status Resolve(const relational::Schema& schema);

  bool resolved() const { return !lhs_cols_.empty() || lhs_attrs_.empty(); }
  const std::vector<size_t>& lhs_cols() const { return lhs_cols_; }
  size_t rhs_col() const { return rhs_col_; }

  /// True when the whole tableau is wildcard-only, i.e. the CFD degenerates
  /// to the classical FD X → A.
  bool IsStandardFd() const;

  /// "customer: [CNT, ZIP] -> [CITY] { (UK, _ || _) }".
  std::string ToString() const;

 private:
  std::string relation_;
  std::vector<std::string> lhs_attrs_;
  std::string rhs_attr_;
  std::vector<PatternTuple> tableau_;

  std::vector<size_t> lhs_cols_;  // filled by Resolve
  size_t rhs_col_ = 0;
};

/// Tableau rows of several CFDs that share an embedded FD (same relation,
/// same LHS attribute list, same RHS attribute). The SQL generator of
/// [TODS'08] merges such rows into a single tableau relation so one Q_C/Q_V
/// query pair covers all of them.
struct EmbeddedFdGroup {
  std::string relation;
  std::vector<std::string> lhs_attrs;
  std::string rhs_attr;

  /// (index into the CFD vector, index into that CFD's tableau).
  std::vector<std::pair<size_t, size_t>> members;
};

/// Groups the tableau rows of `cfds` by embedded FD, in order of first
/// appearance. Names compare case-insensitively, but LHS lists compare in
/// order: [A, B] -> C and [B, A] -> C land in different groups, which keeps
/// every member's pattern positions aligned with the group's LHS list.
std::vector<EmbeddedFdGroup> GroupByEmbeddedFd(const std::vector<Cfd>& cfds);

/// Resolves every CFD in the set against the schemas in `db`-like lookup:
/// the caller supplies a resolver from relation name to schema.
common::Status ResolveAll(std::vector<Cfd>* cfds, const relational::Schema& schema);

}  // namespace semandaq::cfd

#endif  // SEMANDAQ_CFD_CFD_H_
