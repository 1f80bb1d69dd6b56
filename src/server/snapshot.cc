#include "server/snapshot.h"

#include <vector>

namespace semandaq::server {

SnapshotPtr BuildRelationSnapshot(const relational::Relation& master,
                                  const relational::EncodedRelation& /*warm*/,
                                  uint64_t epoch) {
  auto snap = std::make_shared<RelationSnapshot>();
  snap->epoch = epoch;
  snap->name = master.name();

  // The epoch's relation is built over frozen views of the master's own
  // chunks and shared references to its dictionaries. The master's later
  // appends land past these views and its overwrites and new values detach
  // first, so the epoch's bytes stay alive and unchanged by refcount.
  std::vector<relational::CodeColumn> columns;
  columns.reserve(master.columns().size());
  for (const relational::CodeColumn& col : master.columns()) {
    columns.push_back(col.ShareFrozen());
  }
  const size_t bound = static_cast<size_t>(master.IdBound());
  snap->relation = relational::Relation::FromColumns(
      master.name(), master.schema(),
      std::vector<uint8_t>(master.live_data(), master.live_data() + bound),
      master.dictionaries(), std::move(columns));
  snap->encoded.emplace(&snap->relation);
  return snap;
}

}  // namespace semandaq::server
