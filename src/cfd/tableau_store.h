#ifndef SEMANDAQ_CFD_TABLEAU_STORE_H_
#define SEMANDAQ_CFD_TABLEAU_STORE_H_

#include <string>
#include <vector>

#include "cfd/cfd.h"
#include "common/status.h"
#include "relational/database.h"

namespace semandaq::cfd {

/// Relational encoding of CFD pattern tableaux (paper §2: "CFDs allow for a
/// relational representation, [so] the constraint engine maximally leverages
/// ... the DBMS in the storage and manipulation of CFDs").
///
/// Encoding: one relation per embedded-FD group, named
/// `__cfd_tableau_<i>`, with one STRING column per LHS attribute, one for
/// the RHS attribute, `__cfd_id` / `__pattern_id` provenance columns, and
/// the INT marker `__null_const`. Wildcards are stored as SQL NULL — the
/// convention the generated detection queries rely on — and so are NULL
/// constants, which the marker tells apart:
///   0 = every NULL in the row is a wildcard;
///   1 = an LHS constant is NULL, so the row selects no tuple;
///   2 = the RHS is the constant NULL (and no LHS constant is).
/// A catalog relation `__cfd_meta` records (tableau_name, target_relation,
/// lhs_attrs ';'-joined, rhs_attr) so the CFD set can be decoded back.
class TableauStore {
 public:
  static constexpr const char* kMetaRelation = "__cfd_meta";
  static constexpr const char* kTableauPrefix = "__cfd_tableau_";
  static constexpr const char* kNullConstColumn = "__null_const";

  /// Encodes `cfds` into `db`, replacing any previous encoding. On success
  /// `tableau_names` (optional) receives the created tableau relation names
  /// in embedded-FD-group order.
  static common::Status Store(const std::vector<Cfd>& cfds, relational::Database* db,
                              std::vector<std::string>* tableau_names = nullptr);

  /// Decodes the CFD set previously written by Store. Each embedded-FD
  /// group comes back as a single CFD whose tableau holds all of the
  /// group's pattern rows (a semantics-preserving normal form: a row
  /// marked 1 comes back with every NULL LHS entry a NULL constant, which
  /// selects no tuple either).
  static common::Result<std::vector<Cfd>> Load(const relational::Database& db);

  /// Drops all tableau relations and the meta relation from `db`.
  static void Clear(relational::Database* db);
};

}  // namespace semandaq::cfd

#endif  // SEMANDAQ_CFD_TABLEAU_STORE_H_
