#include "server/snapshot.h"

#include <vector>

namespace semandaq::server {

SnapshotPtr BuildRelationSnapshot(const relational::Relation& master,
                                  const relational::EncodedRelation& warm,
                                  uint64_t epoch) {
  auto snap = std::make_shared<RelationSnapshot>();
  snap->epoch = epoch;
  snap->name = master.name();

  // The epoch's relation is built over frozen views of the warm encoded
  // form's chunks and shared references to its dictionaries. The master
  // may relocate chunks or clone dictionaries later; these views keep the
  // epoch's bytes alive and unchanged by refcount.
  const size_t bound = static_cast<size_t>(master.IdBound());
  snap->relation = relational::Relation::FromColumns(
      master.name(), master.schema(),
      std::vector<uint8_t>(master.live_data(), master.live_data() + bound),
      warm.dictionaries(), warm.columns());
  snap->encoded.emplace(&snap->relation);  // adopts the same columns
  return snap;
}

}  // namespace semandaq::server
