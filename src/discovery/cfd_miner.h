#ifndef SEMANDAQ_DISCOVERY_CFD_MINER_H_
#define SEMANDAQ_DISCOVERY_CFD_MINER_H_

#include <vector>

#include "cfd/cfd.h"
#include "common/cancel.h"
#include "common/simd/simd.h"
#include "common/status.h"
#include "relational/relation.h"

namespace semandaq::common {
class ThreadPool;
}  // namespace semandaq::common

namespace semandaq::discovery {

struct CfdMinerOptions {
  /// Maximum LHS size explored.
  size_t max_lhs = 3;
  /// Minimum number of tuples a pattern must cover to be emitted (the
  /// support threshold of CTANE-style discovery; filters coincidences).
  size_t min_support = 3;
  /// Mine variable CFDs ([C=c, rest=_] -> [A=_]).
  bool mine_variable = true;
  /// Mine constant CFDs ([X=x] -> [A=a]).
  bool mine_constant = true;
  /// Also emit plain FDs (all-wildcard tableau rows) that hold globally.
  bool include_global_fds = true;
  /// Cap on tableau rows per embedded FD (keeps Σ reviewable).
  size_t max_patterns_per_fd = 64;
  /// Lanes for the per-level candidate fan-out (and the embedded FdMiner
  /// run): 1 = serial sweep (the default), 0 = one lane per hardware
  /// thread, N = N lanes. Without a borrowed `pool`, the miner spins up
  /// its own pool for the Mine() call. Mined output is byte-identical for
  /// every thread count — see FdMinerOptions::num_threads.
  size_t num_threads = 1;
  /// Borrowed worker pool (e.g. a scheduler lease's, shared with the
  /// embedded FdMiner run). When attached with more than one lane it
  /// powers the base-partition builds and the candidate fan-out,
  /// overriding `num_threads`. Mined output is identical to serial.
  common::ThreadPool* pool = nullptr;
  /// Kernel tier for the scans that still run kernels: the base partition
  /// builds (MaskLive) and the left reduction's constant check on a
  /// superclass (CountEq32). Products of partitions and the Π_X pass that
  /// decides constant and variable patterns are scalar. kAuto = the host's
  /// best; every tier mines the identical output.
  common::simd::Level simd_level = common::simd::Level::kAuto;
  /// Cooperative cancellation (common/cancel.h), checked at level and
  /// candidate boundaries (shared with the embedded FdMiner run). A
  /// tripped token turns Mine() into Status::Cancelled /
  /// Status::DeadlineExceeded; the miner writes nothing but its local
  /// output, so nothing is published. nullptr = not cancellable.
  common::CancelToken* cancel = nullptr;
};

/// CTANE-style CFD discovery from reference data (paper §2, Constraint
/// Engine: constraints "may either be explicitly specified by users or
/// automatically discovered from reference data").
///
/// Levelwise over the attribute lattice (partitions shared with FdMiner,
/// all built from one dictionary-encoded snapshot):
///  * a global FD X -> A becomes an all-wildcard CFD;
///  * when a mined global FD implies X -> A (its LHS is a subset of X),
///    neither pattern kind below is mined for X -> A;
///  * a class of Π_X with support >= k on which A is constant becomes a
///    constant CFD ([X=x] -> [A=a]), pruned when an immediate-subset class
///    already implies the same constant (left-reduction). Only stripped
///    classes, which have >= 2 tuples, can support a constant pattern, so a
///    min_support below 2 acts as 2;
///  * when X -> A fails globally, each conditioning attribute C in X whose
///    value c restricts the data so that X -> A holds on σ_{C=c} with
///    support >= k yields a variable CFD ([C=c, X\C=_] -> [A=_]).
///
/// Every emitted CFD holds on the mined instance by construction, and
/// tests/cfd_oracle_test.cc checks the mined tableau against a brute-force
/// enumeration of these rules.
///
/// Per candidate X and attribute A, one pass over Π_X's materialized
/// classes decides both pattern kinds: a class is constant on A when all
/// its members hold one non-NULL A, and its members with a non-NULL A are
/// one X-group of every variable pattern conditioned on an attribute of X
/// (a class of Π_X lies inside one class of each Π_C, C ∈ X).
///
/// Like the FD miner, the sweep fans each level's candidate LHS sets out
/// over a thread pool (one task per candidate, per-candidate result slots,
/// serial lexicographic emission) — output is byte-identical across thread
/// counts and kernel tiers (tests/parallel_discovery_test).
class CfdMiner {
 public:
  explicit CfdMiner(const relational::Relation* rel, CfdMinerOptions options = {})
      : rel_(rel), options_(options) {}

  common::Result<std::vector<cfd::Cfd>> Mine();

 private:
  const relational::Relation* rel_;
  CfdMinerOptions options_;
};

}  // namespace semandaq::discovery

#endif  // SEMANDAQ_DISCOVERY_CFD_MINER_H_
