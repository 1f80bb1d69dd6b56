#ifndef SEMANDAQ_SQL_BINDER_H_
#define SEMANDAQ_SQL_BINDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/database.h"
#include "sql/ast.h"

namespace semandaq::sql {

/// Name of the pseudo-column exposing a tuple's stable id to SQL. The CFD
/// detection queries select it so violations can be mapped back to tuples.
/// A FROM table's own attribute of the same name hides it.
inline constexpr const char* kTidPseudoColumn = "__tid";

/// One output column of a bound query: an expression plus its result name.
struct OutputColumn {
  std::unique_ptr<Expr> expr;  ///< owned (stars are expanded into fresh refs)
  std::string name;
};

/// A SELECT statement after semantic analysis: tables resolved, column
/// references bound to (table ordinal, column ordinal), aggregates collected,
/// stars expanded.
struct BoundQuery {
  SelectStmt stmt;
  std::vector<const relational::Relation*> tables;  ///< parallel to stmt.from
  bool is_aggregate = false;

  /// Every aggregate call in the select list / HAVING / ORDER BY, in
  /// discovery order; Expr::agg_index points here.
  std::vector<Expr*> aggregates;

  std::vector<OutputColumn> outputs;
};

/// Performs name resolution and semantic checks against `db`.
///
/// Rules enforced: FROM tables must exist and have unique effective names;
/// column refs must resolve uniquely; only COUNT/SUM/AVG/MIN/MAX calls are
/// known, they may not nest, and they may not appear in WHERE or GROUP BY;
/// aggregate queries may not select bare stars.
common::Result<BoundQuery> Bind(SelectStmt stmt, const relational::Database& db);

}  // namespace semandaq::sql

#endif  // SEMANDAQ_SQL_BINDER_H_
