#include "server/snapshot.h"

namespace semandaq::server {

SnapshotPtr BuildRelationSnapshot(const relational::Relation& master,
                                  uint64_t epoch) {
  auto snap = std::make_shared<RelationSnapshot>();
  snap->epoch = epoch;
  snap->name = master.name();
  snap->relation = master;
  return snap;
}

}  // namespace semandaq::server
