#ifndef SEMANDAQ_DETECT_SQL_GENERATOR_H_
#define SEMANDAQ_DETECT_SQL_GENERATOR_H_

#include <string>
#include <vector>

#include "cfd/cfd.h"

namespace semandaq::detect {

/// The SQL text pair that detects all violations of one embedded-FD tableau
/// group, following the query-generation technique of Fan et al. [TODS'08]
/// (wildcards encoded as NULL in the tableau relation, NULL constants told
/// apart by its `__null_const` marker — see cfd::TableauStore):
///
///  * `qc` flags single-tuple violations — tuples matching a constant-RHS
///    pattern's LHS whose RHS differs from the constant;
///  * `qv_keys` computes the LHS keys of multi-tuple violations via
///    GROUP BY / HAVING COUNT(DISTINCT rhs) > 1 over the variable-RHS rows;
///  * `qv_members` joins the keys back to enumerate the violating tuples
///    (the key relation is materialized under `keys_relation` first).
struct DetectionQueries {
  int fd_group = -1;
  std::string tableau_relation;
  std::string keys_relation;
  std::string qc;
  std::string qv_keys;
  std::string qv_members;
  bool has_constant_rows = false;
  bool has_variable_rows = false;
};

/// Generates the Q_C / Q_V query texts for every embedded-FD group of
/// `cfds`. `tableau_names` must come from cfd::TableauStore::Store (same
/// group order). `relation` is the data relation under test.
std::vector<DetectionQueries> GenerateDetectionSql(
    const std::vector<cfd::Cfd>& cfds, const std::string& relation,
    const std::vector<std::string>& tableau_names);

}  // namespace semandaq::detect

#endif  // SEMANDAQ_DETECT_SQL_GENERATOR_H_
