#include "core/semandaq.h"

#include "audit/render.h"
#include "common/string_util.h"
#include "detect/native_detector.h"
#include "detect/sql_detector.h"
#include "storage/catalog.h"
#include "storage/wal.h"

namespace semandaq::core {

using common::Status;

relational::EncodedRelation* Semandaq::WarmOrEncode(const std::string& relation) {
  static relational::EncodedRelation view(nullptr);
  return db_.FindRelation(relation) == nullptr ? nullptr : &view;
}

storage::WalAttachment* Semandaq::AttachedWal(const std::string& relation) {
  const relational::Relation* rel = db_.FindRelation(relation);
  if (rel == nullptr) return nullptr;
  auto it = wals_.find(common::ToLower(relation));
  if (it == wals_.end()) return nullptr;
  // A replaced relation never fires the old attachment (copies drop the
  // observer); report it gone rather than returning a zombie.
  if (rel->observer() != it->second.get()) return nullptr;
  return it->second.get();
}

common::Status Semandaq::AttachWal(const std::string& relation,
                                   relational::Relation* rel,
                                   const std::string& path,
                                   uint64_t snapshot_checksum,
                                   storage::SyncPolicy sync) {
  auto att = storage::WalAttachment::Open(storage::WalPathFor(path),
                                          snapshot_checksum, sync);
  if (!att.ok()) {
    // Disarm any previous attachment rather than leaving it in place: the
    // snapshot write just replaced the sidecar it was appending to, so
    // further appends would land in the unlinked old file and vanish —
    // a silent journal gap, the one failure mode the sticky-error
    // discipline exists to prevent. With the observer detached and the
    // entry gone, AttachedWal() truthfully reports "no live journal".
    rel->set_observer(nullptr);
    wals_.erase(common::ToLower(relation));
    return att.status();
  }
  rel->set_observer(att->get());
  wals_[common::ToLower(relation)] = std::move(*att);  // replaces any stale one
  return Status::OK();
}

common::Result<detect::ViolationTable> Semandaq::DetectErrors(
    const std::string& relation, DetectorKind kind,
    detect::DetectorOptions options) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  std::vector<cfd::Cfd> cfds = engine_.CfdsFor(relation);
  if (kind == DetectorKind::kNative) {
    detect::NativeDetector detector(rel, std::move(cfds), options);
    return detector.Detect();
  }
  detect::SqlDetector detector(&db_, relation, std::move(cfds));
  return detector.Detect();
}

common::Result<storage::SnapshotStats> Semandaq::SaveRelation(
    const std::string& relation, const std::string& path, size_t compact_after,
    std::optional<storage::SyncPolicy> sync) {
  relational::Relation* rel = db_.FindMutableRelation(relation);
  if (rel == nullptr) return Status::NotFound("no relation named " + relation);
  const storage::SyncPolicy policy = sync.value_or(wal_sync_policy_);
  SEMANDAQ_ASSIGN_OR_RETURN(storage::SnapshotStats stats,
                            storage::SnapshotWriter::Write(*rel, path));
  // Arm the live journal: the write left a fresh, empty sidecar stamped
  // with this snapshot; from here on every committed mutation appends to
  // it, keeping the on-disk state one replay away from the live one.
  SEMANDAQ_RETURN_IF_ERROR(
      AttachWal(relation, rel, path, stats.manifest_checksum, policy));
  save_policies_[common::ToLower(relation)] =
      SavePolicy{path, compact_after, policy};
  return stats;
}

common::Result<bool> Semandaq::CompactIfDue(const std::string& relation) {
  auto it = save_policies_.find(common::ToLower(relation));
  if (it == save_policies_.end() || it->second.compact_after == 0) {
    return false;
  }
  storage::WalAttachment* wal = AttachedWal(relation);
  if (wal == nullptr || wal->records_appended() < it->second.compact_after) {
    return false;
  }
  // Re-saving rewrites the snapshot with the journaled mutations folded in
  // and re-arms a fresh, empty sidecar — the attachment's record count
  // restarts at zero, so the policy naturally re-triggers every
  // `compact_after` further mutations.
  const SavePolicy policy = it->second;
  SEMANDAQ_RETURN_IF_ERROR(
      SaveRelation(relation, policy.path, policy.compact_after, policy.sync)
          .status());
  return true;
}

common::Result<Semandaq::SaveDbStats> Semandaq::SaveDatabase(
    const std::string& dir) {
  SEMANDAQ_RETURN_IF_ERROR(storage::EnsureDirectory(dir));
  std::vector<storage::CatalogEntry> entries;
  for (const std::string& key : db_.RelationNames()) {
    const relational::Relation* rel = db_.FindRelation(key);
    storage::CatalogEntry entry;
    entry.name = rel->name();
    entry.file = storage::SanitizeFileStem(rel->name()) + ".sdq";
    // Keep a previously armed compaction threshold and sync policy; the
    // policy's path moves with the database directory.
    size_t compact_after = 0;
    std::optional<storage::SyncPolicy> sync;
    auto pit = save_policies_.find(common::ToLower(entry.name));
    if (pit != save_policies_.end()) {
      compact_after = pit->second.compact_after;
      sync = pit->second.sync;
    }
    SEMANDAQ_ASSIGN_OR_RETURN(
        storage::SnapshotStats stats,
        SaveRelation(entry.name, dir + "/" + entry.file, compact_after, sync));
    entry.snapshot_checksum = stats.manifest_checksum;
    entries.push_back(std::move(entry));
  }
  SEMANDAQ_RETURN_IF_ERROR(storage::WriteCatalog(dir, entries));
  SaveDbStats stats;
  stats.relations = entries.size();
  stats.manifest_path = dir + "/" + storage::kCatalogFileName;
  return stats;
}

common::Result<Semandaq::OpenDbStats> Semandaq::OpenDatabase(
    const std::string& dir, common::CancelToken* cancel) {
  SEMANDAQ_ASSIGN_OR_RETURN(std::vector<storage::CatalogEntry> entries,
                            storage::ReadCatalog(dir));
  for (const storage::CatalogEntry& e : entries) {
    if (db_.HasRelation(e.name)) {
      return Status::AlreadyExists("relation already connected: " + e.name);
    }
  }
  OpenDbStats stats;
  std::vector<std::string> opened;
  for (const storage::CatalogEntry& e : entries) {
    auto one = OpenRelation(e.name, dir + "/" + e.file, cancel);
    if (!one.ok()) {
      for (const std::string& name : opened) (void)db_.DropRelation(name);
      return one.status();
    }
    opened.push_back(e.name);
    stats.live_rows += one->live_rows;
    stats.wal_records += one->wal_records;
  }
  stats.relations = entries.size();
  return stats;
}

common::Result<Semandaq::OpenStats> Semandaq::OpenRelation(
    const std::string& name, const std::string& path,
    common::CancelToken* cancel) {
  if (db_.HasRelation(name)) {
    return Status::AlreadyExists("relation already connected: " + name);
  }
  SEMANDAQ_ASSIGN_OR_RETURN(storage::LoadedSnapshot snap,
                            storage::SnapshotReader::Read(path));
  // The load is the long step; a token tripped during it stops the open
  // before anything is registered.
  SEMANDAQ_RETURN_IF_CANCELLED(cancel);
  snap.relation.set_name(name);
  SEMANDAQ_RETURN_IF_ERROR(db_.AddRelation(std::move(snap.relation)));
  relational::Relation* rel = db_.FindMutableRelation(name);
  // The WAL tail replays through the relation's ordinary mutators, which
  // write codes into the loaded columns. A bad WAL (or a tripped token)
  // unwinds the registration.
  auto wal = storage::ReplayWal(storage::WalPathFor(path),
                                snap.manifest_checksum, rel, cancel);
  if (!wal.ok()) {
    (void)db_.DropRelation(name);
    return wal.status();
  }

  // Arm the live journal AFTER the replay above — the replayed records are
  // already in the sidecar; the attachment appends only new mutations.
  const common::Status attached =
      AttachWal(name, rel, path, snap.manifest_checksum, wal_sync_policy_);
  if (!attached.ok()) {
    (void)db_.DropRelation(name);
    return attached;
  }

  OpenStats stats;
  stats.live_rows = rel->size();
  stats.num_columns = static_cast<uint32_t>(rel->schema().size());
  stats.wal_records = *wal;
  return stats;
}

common::Result<audit::AuditOutcome> Semandaq::Audit(const std::string& relation) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  SEMANDAQ_ASSIGN_OR_RETURN(detect::ViolationTable table, DetectErrors(relation));
  audit::DataAuditor auditor(rel, engine_.CfdsFor(relation));
  return auditor.Audit(table);
}

common::Result<audit::QualityReport> Semandaq::Report(const std::string& relation) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  SEMANDAQ_ASSIGN_OR_RETURN(audit::AuditOutcome outcome, Audit(relation));
  return audit::BuildQualityReport(outcome, rel->schema());
}

common::Result<std::string> Semandaq::QualityMap(const std::string& relation,
                                                 size_t max_rows) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  SEMANDAQ_ASSIGN_OR_RETURN(detect::ViolationTable table, DetectErrors(relation));
  return audit::AsciiRender::QualityMap(*rel, table, max_rows);
}

common::Result<repair::RepairResult> Semandaq::Clean(const std::string& relation,
                                                     repair::RepairOptions options,
                                                     repair::CostModelOptions cost) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  repair::CostModel model(rel->schema(), std::move(cost));
  repair::BatchRepair cleaner(rel, engine_.CfdsFor(relation), std::move(model),
                              std::move(options));
  return cleaner.Run();
}

common::Result<std::unique_ptr<repair::RepairReview>> Semandaq::Review(
    const std::string& relation, repair::RepairResult result) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  auto review = std::make_unique<repair::RepairReview>(rel, std::move(result),
                                                       engine_.CfdsFor(relation));
  SEMANDAQ_RETURN_IF_ERROR(review->Start());
  return review;
}

common::Status Semandaq::ApplyRepair(const std::string& relation,
                                     const repair::RepairResult& result) {
  relational::Relation* rel = db_.FindMutableRelation(relation);
  if (rel == nullptr) return Status::NotFound("no relation named " + relation);
  return repair::ApplyChanges(result.changes, rel);
}

common::Result<std::unique_ptr<monitor::DataMonitor>> Semandaq::StartMonitor(
    const std::string& relation, bool cleansed, repair::RepairOptions options,
    repair::CostModelOptions cost) {
  relational::Relation* rel = db_.FindMutableRelation(relation);
  if (rel == nullptr) return Status::NotFound("no relation named " + relation);
  repair::CostModel model(rel->schema(), std::move(cost));
  auto mon = std::make_unique<monitor::DataMonitor>(
      rel, engine_.CfdsFor(relation), std::move(model), std::move(options));
  SEMANDAQ_RETURN_IF_ERROR(mon->Start());
  if (cleansed) mon->MarkCleansed();
  return mon;
}

common::Result<std::unique_ptr<DataExplorer>> Semandaq::Explore(
    const std::string& relation) {
  SEMANDAQ_ASSIGN_OR_RETURN(const relational::Relation* rel,
                            db_.GetRelation(relation));
  SEMANDAQ_ASSIGN_OR_RETURN(detect::ViolationTable table, DetectErrors(relation));
  return std::make_unique<DataExplorer>(rel, engine_.CfdsFor(relation),
                                        std::move(table));
}

}  // namespace semandaq::core
