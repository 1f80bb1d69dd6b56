#ifndef SEMANDAQ_SQL_ENGINE_H_
#define SEMANDAQ_SQL_ENGINE_H_

#include <functional>
#include <string_view>

#include "common/status.h"
#include "relational/database.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"
#include "sql/executor.h"

namespace semandaq::sql {

/// Front door of the SQL substrate: parse + bind + execute against a
/// database. This is the component the error detector hands its generated
/// detection queries to, standing in for the DBMS of the paper's
/// architecture.
class Engine {
 public:
  /// The database must outlive the engine. Not owned.
  explicit Engine(const relational::Database* db) : db_(db) {}

  /// Ignored; kept only because perfbench/ compiles against it.
  void set_encoded_provider(
      std::function<const relational::EncodedRelation*(const relational::Relation*)>) {}

  /// Attaches a cooperative cancellation token (common/cancel.h) checked
  /// at the executor's batch boundaries. nullptr = not cancellable.
  void set_cancel(common::CancelToken* cancel) { cancel_ = cancel; }

  /// Runs one SELECT and materializes the result relation.
  common::Result<relational::Relation> Query(
      std::string_view sql, std::string_view result_name = "result") const;

 private:
  const relational::Database* db_;
  common::CancelToken* cancel_ = nullptr;
};

}  // namespace semandaq::sql

#endif  // SEMANDAQ_SQL_ENGINE_H_
