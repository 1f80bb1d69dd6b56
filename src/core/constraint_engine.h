#ifndef SEMANDAQ_CORE_CONSTRAINT_ENGINE_H_
#define SEMANDAQ_CORE_CONSTRAINT_ENGINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "cfd/cfd.h"
#include "cfd/satisfiability.h"
#include "common/status.h"
#include "discovery/cfd_miner.h"
#include "relational/database.h"

namespace semandaq::core {

/// The constraint engine, "the core of SEMANDAQ" (paper §2): manages the
/// CFD set, validates that it "makes sense" (satisfiability analysis),
/// discovers constraints from reference data, and persists CFDs relationally
/// through cfd::TableauStore.
class ConstraintEngine {
 public:
  /// The database must outlive the engine. Not owned.
  explicit ConstraintEngine(relational::Database* db) : db_(db) {}

  /// Adds one CFD; it must resolve against its target relation's schema.
  common::Status AddCfd(cfd::Cfd cfd);

  /// Parses and adds CFDs in the textual notation of cfd/cfd_parser.h.
  common::Status AddCfdsFromText(std::string_view text);

  /// Discovers CFDs from a (reference) relation and adds them to the set.
  /// Returns how many were added. When `options.pool` is unset, the lanes
  /// follow `options.num_threads`: 1 (default) mines serially, 0 (all
  /// hardware threads) or N >= 2 runs a private pool of that width inside
  /// the miner — and the levelwise sweep fans out per candidate; mined
  /// output is byte-identical either way (docs/discovery.md).
  common::Result<size_t> DiscoverFrom(const std::string& relation,
                                      discovery::CfdMinerOptions options = {});

  /// Runs the consistency analysis over the CFDs targeting `relation` —
  /// "users are informed whether the specified set of CFDs makes sense".
  common::Result<cfd::SatisfiabilityReport> Validate(
      const std::string& relation) const;

  /// All managed CFDs (resolved), in insertion order.
  const std::vector<cfd::Cfd>& cfds() const { return cfds_; }

  /// The subset targeting one relation.
  std::vector<cfd::Cfd> CfdsFor(const std::string& relation) const;

  /// Drops CFDs and tableau rows that are syntactically implied by other
  /// members of the set (see cfd/subsumption.h) — mined sets in particular
  /// carry many redundant rows. Returns how many CFDs were removed.
  size_t PruneRedundant();

  /// Writes the tableaux into the database (relational CFD storage).
  common::Status Persist();

  /// Reloads the CFD set from a previously persisted encoding, replacing
  /// the in-memory set.
  common::Status LoadPersisted();

  void Clear() { cfds_.clear(); }
  size_t size() const { return cfds_.size(); }

 private:
  relational::Database* db_;
  std::vector<cfd::Cfd> cfds_;
};

}  // namespace semandaq::core

#endif  // SEMANDAQ_CORE_CONSTRAINT_ENGINE_H_
