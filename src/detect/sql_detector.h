#ifndef SEMANDAQ_DETECT_SQL_DETECTOR_H_
#define SEMANDAQ_DETECT_SQL_DETECTOR_H_

#include <string>
#include <vector>

#include "cfd/cfd.h"
#include "common/status.h"
#include "detect/sql_generator.h"
#include "detect/violation.h"
#include "relational/database.h"

namespace semandaq::detect {

/// SQL-based CFD violation detection, the technique the paper demonstrates
/// (§2, Error Detector: "efficient SQL-based detection techniques developed
/// in [3]").
///
/// Pipeline per embedded-FD group: encode the pattern tableau as a relation
/// (wildcard = NULL), run the generated Q_C for single-tuple violations, run
/// Q_V (GROUP BY / HAVING COUNT(DISTINCT) > 1) for the violating keys,
/// materialize them, and join back for the member tuples. All SQL runs
/// through sql::Engine — the code path a DBMS would execute.
class SqlDetector {
 public:
  /// `db` must contain `relation`; tableau and key relations are
  /// materialized into it during Detect and removed before Detect returns,
  /// on success and failure alike. Detect fails with InvalidArgument when
  /// the relation has an attribute named `__tid`, or a CFD names one called
  /// `__cfd_id` or `__pattern_id`: the generated SQL reserves those names.
  SqlDetector(relational::Database* db, std::string relation,
              std::vector<cfd::Cfd> cfds)
      : db_(db), relation_(std::move(relation)), cfds_(std::move(cfds)) {}

  common::Result<ViolationTable> Detect();

  /// The generated SQL of the last Detect() call, for inspection and tests.
  const std::vector<DetectionQueries>& queries() const { return queries_; }

  const std::vector<cfd::Cfd>& cfds() const { return cfds_; }

 private:
  relational::Database* db_;
  std::string relation_;
  std::vector<cfd::Cfd> cfds_;
  std::vector<DetectionQueries> queries_;
};

}  // namespace semandaq::detect

#endif  // SEMANDAQ_DETECT_SQL_DETECTOR_H_
