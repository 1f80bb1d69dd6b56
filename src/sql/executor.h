#ifndef SEMANDAQ_SQL_EXECUTOR_H_
#define SEMANDAQ_SQL_EXECUTOR_H_

#include <string>
#include <string_view>

#include "common/cancel.h"
#include "common/status.h"
#include "relational/relation.h"
#include "sql/binder.h"

namespace semandaq::sql {

/// Evaluates a bound query and materializes the result as a relation.
///
/// Physical strategy: left-deep join in FROM order. Equality conjuncts
/// between the joined prefix and the next table become composite-key hash
/// joins (SQL NULL semantics: null keys never match); everything else is a
/// nested-loop filter applied as soon as all referenced tables are joined.
/// Aggregation is hash-based with per-group states for COUNT / COUNT
/// DISTINCT / SUM / AVG / MIN / MAX. NULL comparison follows three-valued
/// logic throughout.
///
/// Every FROM table is scanned on its code columns, and a joined row is one
/// tuple id per FROM table; a column reference decodes its one cell when
/// an expression or the output needs it. Code-compiled paths:
///  * `col = 'string literal'` conjuncts on a base scan compile to one
///    dictionary lookup + a FilterEqMulti32 kernel pass over the code
///    column, after a MaskLive pass over the liveness bytes (only non-NULL
///    string literals: a numeric literal can cross-type equal a
///    differently-coded cell, which codes cannot see); the residual
///    conjuncts run per surviving tuple;
///  * hash joins whose every key pair references the same column of the
///    same relation (the self-join shape of detection queries) key on
///    uint32 codes instead of hashed Values;
///  * GROUP BY over plain column refs keys on codes too, so the group
///    emission order of an un-ORDER-BY'd aggregate follows code numbers.
/// Other join and group keys (expressions, columns of different relations)
/// hash decoded Values.
///
/// `cancel` (common/cancel.h) is checked every few thousand rows in the
/// scan, join, aggregation, and projection loops; a tripped token turns
/// the query into Status::Cancelled / Status::DeadlineExceeded. Queries
/// only read the database and materialize a private result, so stopping
/// publishes nothing.
common::Result<relational::Relation> Execute(const BoundQuery& query,
                                             std::string_view result_name = "result",
                                             common::CancelToken* cancel = nullptr);

}  // namespace semandaq::sql

#endif  // SEMANDAQ_SQL_EXECUTOR_H_
