#ifndef SEMANDAQ_DETECT_VIOLATION_H_
#define SEMANDAQ_DETECT_VIOLATION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "relational/relation.h"
#include "relational/value.h"

namespace semandaq::detect {

/// A tuple that conflicts with a constant-RHS pattern all by itself
/// (paper §2: "single-tuple violations").
struct SingleViolation {
  relational::TupleId tid = -1;
  int cfd_index = -1;      ///< index into the detector's CFD vector
  int pattern_index = -1;  ///< tableau row within that CFD
};

/// Tuples that jointly conflict with a variable-RHS pattern: they agree on
/// the LHS under the pattern but disagree on the RHS (paper §2:
/// "multi-tuple violations"). Following the merged-tableau SQL semantics of
/// Fan et al. [TODS'08], one group exists per (embedded-FD group, LHS key),
/// not per tableau row.
struct ViolationGroup {
  int fd_group = -1;   ///< index into GroupByEmbeddedFd(cfds)
  int cfd_index = -1;  ///< representative CFD (first contributing member)
  relational::Row lhs_key;
  std::vector<relational::TupleId> members;
  /// Parallel to `members`, required: the number of group members whose
  /// RHS disagrees with this member's (two NULL RHS cells agree). Producers
  /// count it on what they group by — dictionary codes, or values in the
  /// SQL detector — and AddGroup credits vio(t) with it. The data auditor
  /// reads the majority from it: member i agrees with n − member_partners[i]
  /// of the n members.
  std::vector<int64_t> member_partners;
};

/// The error detector's output: per-tuple violation counts vio(t) plus the
/// full violation records (paper §2: "the error detector records additional
/// information ... e.g. which CFDs are violated by which tuple").
///
/// vio(t) accounting follows the paper exactly: vio(t) starts at 0, gains 1
/// per CFD for which t is a single-tuple violation (deduplicated per CFD,
/// even if several tableau rows flag it), and gains, per multi-tuple
/// violation group containing t, the number of group members whose RHS value
/// differs from t's.
class ViolationTable {
 public:
  ViolationTable() = default;

  /// Records a single-tuple violation. Returns true when it was new at the
  /// (tid, cfd) granularity, i.e. it contributed +1 to vio(tid).
  bool AddSingle(SingleViolation v);

  /// Records a multi-tuple violation group and credits every member's
  /// vio(t) with its number of disagreeing partners (member_partners, which
  /// must be parallel to members).
  void AddGroup(ViolationGroup g);

  int64_t vio(relational::TupleId tid) const;
  bool IsViolating(relational::TupleId tid) const { return vio(tid) > 0; }

  const std::vector<SingleViolation>& singles() const { return singles_; }
  const std::vector<ViolationGroup>& groups() const { return groups_; }

  /// Distinct tuples with vio(t) > 0.
  size_t NumViolatingTuples() const { return num_violating_; }
  /// Sum of vio(t) over all tuples.
  int64_t TotalVio() const { return total_; }

  /// CFD indices violated by `tid` (singles) plus fd-group indices of the
  /// multi-tuple groups containing it, for the explorer drill-down. The
  /// index behind both is built lazily on first query (and rebuilt after
  /// further Add* calls) — detection itself never pays for it.
  std::vector<int> SingleCfdsOf(relational::TupleId tid) const;
  std::vector<int> GroupsOf(relational::TupleId tid) const;

  /// All violating tuple ids, ascending.
  std::vector<relational::TupleId> ViolatingTuples() const;

  std::string Summary() const;

 private:
  /// Grows the dense per-tuple vio array to cover `tid`.
  void EnsureTid(relational::TupleId tid);
  /// Adds to vio(tid), maintaining the violating-tuple count.
  void AddVio(relational::TupleId tid, int64_t amount);
  /// Builds the drill-down index from singles_/groups_ if stale.
  void EnsureDrilldownIndex() const;

  std::vector<SingleViolation> singles_;
  std::vector<ViolationGroup> groups_;
  // Dense per-tuple vio counts, indexed by tid (tuple ids are dense by
  // construction; a hash map here dominated emission cost at scale).
  std::vector<int64_t> vio_;
  // The explorer's drill-down index, derived from singles_/groups_ on
  // first SingleCfdsOf/GroupsOf query. It used to be maintained eagerly as
  // dense vector-of-vectors, whose grow-and-reallocate churn cost more
  // than the entire kernel scan (gprof: ~2/3 of a warm Detect); per-member
  // hash upkeep during emission is no better when variable-CFD groups span
  // most of the relation. Deriving it on demand keeps emission pure array
  // work and queries O(results).
  mutable std::unordered_map<relational::TupleId, std::vector<int>>
      single_cfds_;
  mutable std::unordered_map<relational::TupleId, std::vector<int>>
      group_membership_;
  mutable bool drilldown_built_ = false;
  size_t num_violating_ = 0;
  // (tid, cfd) pairs already counted toward vio.
  std::unordered_set<uint64_t> counted_singles_;
  int64_t total_ = 0;
};

}  // namespace semandaq::detect

#endif  // SEMANDAQ_DETECT_VIOLATION_H_
