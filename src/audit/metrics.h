#ifndef SEMANDAQ_AUDIT_METRICS_H_
#define SEMANDAQ_AUDIT_METRICS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "cfd/cfd.h"
#include "common/status.h"
#include "detect/violation.h"
#include "relational/relation.h"

namespace semandaq::audit {

/// The cleanliness grades of the paper's data quality report (§3), from
/// worst to best. The three "clean" grades nest: verified => probably =>
/// arguably; a tuple's grade is the strongest that applies.
enum class CleanGrade : uint8_t {
  kDirty = 0,
  /// Probably clean, OR in a multi-tuple violation where the bulk (strict
  /// majority) of the jointly violating tuples agree with it.
  kArguablyClean = 1,
  /// Violates no CFD.
  kProbablyClean = 2,
  /// Violates no CFD AND some constant-RHS CFD applies to and confirms it.
  kVerifiedClean = 3,
};

const char* CleanGradeToString(CleanGrade g);

/// Per-attribute cell-grade tallies (counts of live cells at each grade).
/// A cell is implicated by a single-tuple violation (its RHS cell and every
/// constant-LHS cell of the violated row) and by each multi-tuple group
/// whose RHS it is. It is dirty when some violation implicates it other
/// than as a member of a group's strict majority; arguably clean when every
/// implicating violation is such a group; verified clean when nothing
/// implicates it and a constant-RHS row confirms it (the row's RHS cell or
/// one of its constant-LHS cells); probably clean otherwise.
struct AttributeStats {
  std::array<int64_t, 4> counts = {0, 0, 0, 0};

  int64_t total() const { return counts[0] + counts[1] + counts[2] + counts[3]; }
  /// Cumulative shares, matching the paper's bar chart semantics
  /// (verified <= probably <= arguably since the grades nest).
  double pct_verified() const;
  double pct_probably() const;
  double pct_arguably() const;
};

/// Everything the data auditor derives from a detection pass (paper §2:
/// "vio(t) is enriched with statistical information w.r.t. the occurrences
/// of violations in the data, at both the tuple and the attribute level").
struct AuditOutcome {
  // Tuple level: one grade per tuple id in [0, IdBound()); dead ids read
  // probably clean. Query through GradeOf.
  std::vector<CleanGrade> tuple_grades;
  size_t num_tuples = 0;
  std::array<int64_t, 4> tuple_counts = {0, 0, 0, 0};

  // Attribute-value level, indexed by column ordinal.
  std::vector<AttributeStats> attr_stats;

  // vio(t) distribution (over violating tuples).
  int64_t total_vio = 0;
  int64_t max_vio = 0;
  int64_t min_vio_nonzero = 0;
  double avg_vio_violating = 0;

  // Violation composition (the pie chart of Fig. 4).
  size_t tuples_clean = 0;
  size_t tuples_single_only = 0;
  size_t tuples_multi_only = 0;
  size_t tuples_both = 0;

  // Multi-tuple group statistics.
  size_t num_groups = 0;
  size_t max_group_size = 0;
  size_t min_group_size = 0;
  double avg_group_size = 0;

  /// The tuple's grade; an unknown or dead id is probably clean.
  CleanGrade GradeOf(relational::TupleId tid) const;
};

/// The data auditor: summarizes a detector's ViolationTable into the grades
/// and statistics above. It reads the table, Σ and the relation's
/// dictionary codes, never a row: a group member holds the strict majority
/// iff 2·(n − member_partners) > n, and the confirmations behind "verified
/// clean" come from one scan of the code columns per constant-RHS row. The
/// codes come from a local EncodedRelation, which adopts a column-backed
/// relation's codes (a published epoch's or a freshly opened relation's)
/// and encodes any other relation.
class DataAuditor {
 public:
  /// `cfds` are resolved internally against rel's schema; the relation and
  /// violation table must describe the same instance.
  DataAuditor(const relational::Relation* rel, std::vector<cfd::Cfd> cfds)
      : rel_(rel), cfds_(std::move(cfds)) {}

  common::Result<AuditOutcome> Audit(const detect::ViolationTable& table);

 private:
  const relational::Relation* rel_;
  std::vector<cfd::Cfd> cfds_;
};

}  // namespace semandaq::audit

#endif  // SEMANDAQ_AUDIT_METRICS_H_
