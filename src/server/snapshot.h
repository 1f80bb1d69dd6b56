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
/// `relation` is a copy of the master, which shares the master's
/// dictionaries and code chunks and copies only the liveness bytes. The
/// master's later appends land past the copy's column sizes, and its
/// overwrites and new values detach (copy-on-write) first, so the bytes a
/// pinned epoch sees never change.
///
/// Lifetime: snapshots are handed out as shared_ptr<const RelationSnapshot>
/// and published via atomic shared_ptr swaps (SemandaqService); a session
/// that pinned epoch k keeps it alive for as long as it computes, no matter
/// how many epochs the writer publishes meanwhile.
struct RelationSnapshot {
  uint64_t epoch = 0;
  std::string name;
  relational::Relation relation;
  /// Holds nothing; kept only because perfbench/ compiles against it.
  std::optional<relational::EncodedRelation> encoded{std::in_place, &relation};
};

using SnapshotPtr = std::shared_ptr<const RelationSnapshot>;

/// Captures a copy of `master` as epoch `epoch`. The caller must hold the
/// writer lock: the master must not mutate during the copy.
SnapshotPtr BuildRelationSnapshot(const relational::Relation& master,
                                  uint64_t epoch);

/// The two-argument form; kept only because perfbench/ compiles against it.
inline SnapshotPtr BuildRelationSnapshot(
    const relational::Relation& master,
    const relational::EncodedRelation& /*warm*/, uint64_t epoch) {
  return BuildRelationSnapshot(master, epoch);
}

}  // namespace semandaq::server

#endif  // SEMANDAQ_SERVER_SNAPSHOT_H_
