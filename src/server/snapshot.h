#ifndef SEMANDAQ_SERVER_SNAPSHOT_H_
#define SEMANDAQ_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "relational/encoded_relation.h"
#include "relational/relation.h"

namespace semandaq::server {

/// One published epoch of a relation: an immutable, self-contained replica
/// that concurrent sessions pin and read without ever blocking the writer.
///
/// The replica is cheap because nothing in it is a second copy of the data:
///
///   * `relation` is built by Relation::FromColumns over frozen views of
///     the master's code chunks and its shared dictionaries, plus a copy of
///     the liveness bytes. The master's later appends land past these
///     views' sizes, and its overwrites and new values detach
///     (copy-on-write) first, so the bytes a pinned epoch sees never change;
///   * `encoded` is the code view of `relation` (EncodedRelation).
///
/// Lifetime: snapshots are handed out as shared_ptr<const RelationSnapshot>
/// and published via atomic shared_ptr swaps (SemandaqService); a session
/// that pinned epoch k keeps it alive for as long as it computes, no matter
/// how many epochs the writer publishes meanwhile.
struct RelationSnapshot {
  uint64_t epoch = 0;
  std::string name;
  relational::Relation relation;
  std::optional<relational::EncodedRelation> encoded;
};

using SnapshotPtr = std::shared_ptr<const RelationSnapshot>;

/// Captures `master` as epoch `epoch`. The caller must hold the writer
/// lock: the master must not mutate during the capture. `warm` is unused
/// (the master's own columns are captured); it stays for existing callers.
SnapshotPtr BuildRelationSnapshot(const relational::Relation& master,
                                  const relational::EncodedRelation& warm,
                                  uint64_t epoch);

}  // namespace semandaq::server

#endif  // SEMANDAQ_SERVER_SNAPSHOT_H_
