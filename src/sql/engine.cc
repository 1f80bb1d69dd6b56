#include "sql/engine.h"

#include "sql/binder.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace semandaq::sql {

common::Result<relational::Relation> Engine::Query(std::string_view sql,
                                                   std::string_view result_name) const {
  SEMANDAQ_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
  SEMANDAQ_ASSIGN_OR_RETURN(BoundQuery bound, Bind(std::move(stmt), *db_));
  return Execute(bound, result_name, cancel_);
}

}  // namespace semandaq::sql
