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
///     the master's warm encoded chunks and its shared dictionaries — a
///     liveness bitmap plus the columns, decoded into rows only on first
///     row access (hydration is thread-safe, so racing readers may hydrate
///     it). The master's later appends land past these views' sizes and
///     its overwrites detach (copy-on-write), so the bytes a pinned epoch
///     sees never change;
///   * `encoded` adopts the same columns (EncodedRelation(&relation)), as
///     does every engine that builds its own EncodedRelation over the
///     epoch or over a clone of it.
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

/// Captures `master` (and its warm, in-sync encoded form) as epoch `epoch`.
/// The caller must hold the writer lock: the master must not mutate during
/// the capture, and `warm` must be Sync'd to it (same IdBound).
SnapshotPtr BuildRelationSnapshot(const relational::Relation& master,
                                  const relational::EncodedRelation& warm,
                                  uint64_t epoch);

}  // namespace semandaq::server

#endif  // SEMANDAQ_SERVER_SNAPSHOT_H_
