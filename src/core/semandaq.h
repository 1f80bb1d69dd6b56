#ifndef SEMANDAQ_CORE_SEMANDAQ_H_
#define SEMANDAQ_CORE_SEMANDAQ_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/metrics.h"
#include "audit/report.h"
#include "common/cancel.h"
#include "common/status.h"
#include "core/constraint_engine.h"
#include "core/explorer.h"
#include "detect/native_detector.h"
#include "detect/violation.h"
#include "monitor/data_monitor.h"
#include "relational/database.h"
#include "relational/encoded_relation.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"
#include "repair/repair_review.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace semandaq::core {

/// The system facade, wiring the six components of the paper's architecture
/// (Fig. 1): constraint engine, error detector, data auditor, data cleanser,
/// data monitor, and the (programmatic) data explorer, over the relational
/// substrate standing in for the database servers. The data flow between
/// the components is diagrammed in docs/architecture.md; the text-command
/// front end over this facade (CLI and server alike) is
/// server::SemandaqService in server/service.h.
///
/// Typical session, mirroring the demonstration flow of §3:
///
/// \code
///   Semandaq sys;
///   sys.Connect(std::move(customer_relation));
///   sys.constraints().AddCfdsFromText("customer: [CC=44] -> [CNT=UK]");
///   auto sat = sys.constraints().Validate("customer");     // "makes sense"?
///   auto vio = sys.DetectErrors("customer");               // error detector
///   auto report = sys.Report("customer");                  // data auditor
///   auto repair = sys.Clean("customer");                   // data cleanser
///   sys.ApplyRepair("customer", repair.value());
///   auto monitor = sys.StartMonitor("customer");           // data monitor
/// \endcode
class Semandaq {
 public:
  Semandaq() : engine_(&db_) {}

  // Not copyable/movable: components hold pointers into db_.
  Semandaq(const Semandaq&) = delete;
  Semandaq& operator=(const Semandaq&) = delete;

  /// Which detection code path to use.
  enum class DetectorKind {
    kNative,  ///< in-process hash detection
    kSql,     ///< generated Q_C/Q_V SQL through the sql:: engine
  };

  relational::Database& database() { return db_; }
  const relational::Database& database() const { return db_; }
  ConstraintEngine& constraints() { return engine_; }
  const ConstraintEngine& constraints() const { return engine_; }

  /// Registers a relation to clean ("connect the system to a database").
  common::Status Connect(relational::Relation data) {
    return db_.AddRelation(std::move(data));
  }

  /// Persists `relation` as a binary columnar snapshot at `path` (plus a
  /// fresh WAL sidecar at `path + ".wal"`): its dictionaries and code
  /// columns as they are. See docs/storage.md for the format.
  ///
  /// `compact_after` arms the relation's compaction policy: once more than
  /// that many mutation records have accumulated in the WAL sidecar,
  /// CompactIfDue() folds them into a fresh snapshot at the same path
  /// (0 = disarmed, the default). The policy sticks to the relation name
  /// until the next save of it overwrites it.
  ///
  /// `sync` selects when WAL appends reach stable storage for this
  /// relation's sidecar (storage::SyncPolicy; docs/robustness.md);
  /// std::nullopt inherits the facade-wide default (wal_sync_policy()).
  /// Like the compaction threshold, it sticks to the relation name:
  /// CompactIfDue re-saves keep it.
  common::Result<storage::SnapshotStats> SaveRelation(
      const std::string& relation, const std::string& path,
      size_t compact_after = 0,
      std::optional<storage::SyncPolicy> sync = std::nullopt);

  /// Rewrites `relation`'s snapshot in place (same path, same policy) when
  /// its armed compaction policy is due — the WAL sidecar holds at least
  /// `compact_after` records. Returns whether a compaction ran. A relation
  /// without an armed policy (or without a live WAL attachment) is never
  /// due. Mutating callers (apply paths, the server's write commands) call
  /// this after committing a batch so snapshots stay one short replay away
  /// from the live state instead of accreting unbounded WAL tails.
  common::Result<bool> CompactIfDue(const std::string& relation);

  /// What SaveDatabase reports back.
  struct SaveDbStats {
    size_t relations = 0;
    std::string manifest_path;
  };

  /// Persists every connected relation into `dir` (created if missing):
  /// one snapshot file + WAL sidecar per relation, named by a sanitized
  /// form of the relation name, plus the checksummed catalog manifest
  /// (storage/catalog.h) that OpenDatabase restores from. Per-relation
  /// compaction policies already armed keep their thresholds; the save
  /// path they compact to moves into `dir`.
  common::Result<SaveDbStats> SaveDatabase(const std::string& dir);

  /// What OpenDatabase reports back.
  struct OpenDbStats {
    size_t relations = 0;
    uint64_t live_rows = 0;
    size_t wal_records = 0;  ///< total mutations replayed across relations
  };

  /// Restores a database saved by SaveDatabase: reads the catalog manifest
  /// in `dir` and opens every listed relation (snapshot + WAL replay — the
  /// server restart path). Fails without
  /// side effects when any listed name is already connected or any file is
  /// corrupt: relations opened earlier in the same call are dropped again.
  /// A tripped `cancel` token (common/cancel.h, checked per replayed WAL
  /// record) unwinds the same way — no relation stays half-open.
  common::Result<OpenDbStats> OpenDatabase(
      const std::string& dir, common::CancelToken* cancel = nullptr);

  /// What OpenRelation reports back.
  struct OpenStats {
    uint64_t live_rows = 0;
    uint32_t num_columns = 0;
    size_t wal_records = 0;  ///< mutations replayed from the WAL sidecar
  };

  /// Loads a snapshot (replaying any WAL tail through the relation's
  /// mutators) and registers it as `name`. The loaded code columns are the
  /// relation's data, so nothing decodes or re-encodes them. Fails without
  /// side effects if `name` is taken or the files are corrupt — and
  /// likewise when `cancel` (common/cancel.h) trips mid-replay: the
  /// half-replayed relation is dropped before the status escapes.
  common::Result<OpenStats> OpenRelation(const std::string& name,
                                         const std::string& path,
                                         common::CancelToken* cancel = nullptr);

  /// Kept only because perfbench/ compiles against it (nullptr: unknown).
  relational::EncodedRelation* WarmOrEncode(const std::string& relation);

  /// The live WAL attachment journaling `relation`'s mutations into its
  /// snapshot sidecar; nullptr when the relation has no attached snapshot
  /// (never saved/opened, or replaced since). Armed by SaveRelation and
  /// OpenRelation: from then on every mutation that commits through the
  /// relation's mutators — monitor update batches, ApplyRepair, direct
  /// Insert/Delete/SetCell — appends its record immediately, so a later
  /// OpenRelation of the same path replays the relation to its exact
  /// current state. Check status() on it for append failures (sticky).
  storage::WalAttachment* AttachedWal(const std::string& relation);

  /// Facade-wide default WAL durability, used when SaveRelation (and hence
  /// SaveDatabase/OpenRelation/OpenDatabase) gets no explicit policy. The
  /// server and CLI set this once from their --sync flag.
  void set_wal_sync_policy(storage::SyncPolicy policy) {
    wal_sync_policy_ = policy;
  }
  const storage::SyncPolicy& wal_sync_policy() const {
    return wal_sync_policy_;
  }

  /// Runs the error detector over one relation with the CFDs registered for
  /// it, on the calling thread. `options` only applies to the native
  /// detector (its kernel tier and cancel token; num_threads is ignored).
  /// The components that detect internally (Audit, Report, QualityMap,
  /// Explore) run the default options.
  common::Result<detect::ViolationTable> DetectErrors(
      const std::string& relation, DetectorKind kind = DetectorKind::kNative,
      detect::DetectorOptions options = {});

  /// Error detector + data auditor.
  common::Result<audit::AuditOutcome> Audit(const std::string& relation);

  /// Full data quality report (Fig. 4 content).
  common::Result<audit::QualityReport> Report(const std::string& relation);

  /// The tuple-level data quality map (Fig. 3 content).
  common::Result<std::string> QualityMap(const std::string& relation,
                                         size_t max_rows = 40);

  /// Runs the data cleanser on the calling thread; the database is not
  /// modified (review first, then ApplyRepair). The RepairResult is
  /// byte-identical for every SIMD tier (docs/repair.md);
  /// RepairOptions::num_threads and ::pool are ignored.
  common::Result<repair::RepairResult> Clean(const std::string& relation,
                                             repair::RepairOptions options = {},
                                             repair::CostModelOptions cost = {});

  /// Builds an interactive review for a Clean() result (Fig. 5 content).
  common::Result<std::unique_ptr<repair::RepairReview>> Review(
      const std::string& relation, repair::RepairResult result);

  /// Writes a candidate repair's change list back into the connected
  /// database (repair::ApplyChanges).
  common::Status ApplyRepair(const std::string& relation,
                             const repair::RepairResult& result);

  /// Arms the data monitor over the live relation. `cleansed` selects the
  /// paper's mode (2), incremental repair, instead of mode (1), incremental
  /// detection.
  common::Result<std::unique_ptr<monitor::DataMonitor>> StartMonitor(
      const std::string& relation, bool cleansed = false,
      repair::RepairOptions options = {}, repair::CostModelOptions cost = {});

  /// Drill-down explorer over a fresh detection of `relation`. The explorer
  /// owns its copy of the CFD set and the violation table; it borrows the
  /// relation, which must stay alive and unreplaced while it is used.
  common::Result<std::unique_ptr<DataExplorer>> Explore(const std::string& relation);

 private:
  /// Opens the sidecar at WalPathFor(path) and installs it as `rel`'s
  /// mutation observer, replacing any previous attachment for the name.
  common::Status AttachWal(const std::string& relation,
                           relational::Relation* rel, const std::string& path,
                           uint64_t snapshot_checksum,
                           storage::SyncPolicy sync);

  relational::Database db_;
  ConstraintEngine engine_;

  /// Snapshot path + compaction threshold + WAL durability armed by the
  /// last SaveRelation of each (lowercase) relation name; consulted by
  /// CompactIfDue (which re-saves under the same policy) and SaveDatabase.
  struct SavePolicy {
    std::string path;
    size_t compact_after = 0;  ///< 0 = never compact automatically
    storage::SyncPolicy sync;
  };
  std::unordered_map<std::string, SavePolicy> save_policies_;

  /// Default for SaveRelation calls without an explicit sync policy.
  storage::SyncPolicy wal_sync_policy_;

  /// Live WAL attachments by lowercase relation name (see AttachedWal).
  /// Declared after db_ so teardown destroys attachments while their
  /// relations still exist; a dropped/replaced relation never fires its
  /// observer again (copies don't inherit it), so a stale entry is inert
  /// until the next save/open of that name overwrites it.
  std::unordered_map<std::string, std::unique_ptr<storage::WalAttachment>>
      wals_;
};

}  // namespace semandaq::core

#endif  // SEMANDAQ_CORE_SEMANDAQ_H_
