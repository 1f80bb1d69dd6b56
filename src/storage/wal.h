#ifndef SEMANDAQ_STORAGE_WAL_H_
#define SEMANDAQ_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/cancel.h"
#include "common/status.h"
#include "relational/relation.h"
#include "storage/env.h"

namespace semandaq::storage {

/// When WAL appends reach stable storage (docs/robustness.md):
///
///   always    fdatasync after every record — an append that returned OK
///             survives any crash (zero acknowledged records lost)
///   batch(N)  fdatasync once per N records — a crash loses at most the
///             unsynced tail (< N records), never corrupts the segment
///   none      OS-buffered only — a crash may lose everything since the
///             last snapshot; torn tails are still recognized and dropped
struct SyncPolicy {
  enum class Mode { kAlways, kBatch, kNone };
  Mode mode = Mode::kAlways;
  /// Records per fdatasync under kBatch (>= 1).
  size_t batch_records = 64;

  /// Parses "always" | "none" | "batch" | "batch(N)".
  static common::Result<SyncPolicy> Parse(std::string_view text);
  std::string ToString() const;
};

/// Append-only write-ahead segment extending a snapshot: every mutation
/// applied to a relation after its last snapshot appends one checksummed
/// record here, and on load the records replay through Relation mutators so
/// EncodedRelation::Sync() catches the encoded form up along its ordinary
/// append path. The segment is stamped with the manifest checksum of the
/// snapshot it extends — replaying a WAL against any other snapshot is
/// refused, not silently merged. Record layout: docs/storage.md.
///
/// Crash discipline: records are length-prefixed and checksummed, so a torn
/// final record (the only corruption an interrupted append can produce) is
/// recognized and dropped; a checksum mismatch anywhere *before* the tail is
/// real corruption and fails the load.
class WalWriter {
 public:
  WalWriter(WalWriter&&) = default;
  WalWriter& operator=(WalWriter&&) = default;

  /// Creates (or truncates) the segment at `path`, stamped with
  /// `snapshot_checksum` (SnapshotStats::manifest_checksum). The header is
  /// synced to stable storage regardless of `policy` (it is written once;
  /// the policy governs record appends).
  static common::Result<WalWriter> Create(const std::string& path,
                                          uint64_t snapshot_checksum,
                                          SyncPolicy policy = {});

  /// Reopens an existing segment for appending: verifies the stamp against
  /// `snapshot_checksum`, truncates a torn final record if the last append
  /// was interrupted, and positions at the end.
  static common::Result<WalWriter> OpenExisting(const std::string& path,
                                                uint64_t snapshot_checksum,
                                                SyncPolicy policy = {});

  /// Appends one mutation record and makes it durable per the SyncPolicy:
  /// under `always` an OK return means the record is on stable storage;
  /// under `batch(N)`/`none` it means the record reached the OS (a torn or
  /// lost tail stays recognizable either way).
  common::Status AppendInsert(const relational::Row& row);
  common::Status AppendDelete(relational::TupleId tid);
  common::Status AppendSetCell(relational::TupleId tid, size_t col,
                               const relational::Value& value);

  /// Forces any unsynced batch tail to stable storage now.
  common::Status SyncNow();

  const std::string& path() const { return path_; }
  const SyncPolicy& sync_policy() const { return policy_; }

 private:
  WalWriter(std::string path, std::unique_ptr<WritableFile> out,
            SyncPolicy policy)
      : path_(std::move(path)), out_(std::move(out)), policy_(policy) {}

  common::Status AppendRecord(const std::string& payload);

  std::string path_;
  std::unique_ptr<WritableFile> out_;
  SyncPolicy policy_;
  size_t unsynced_records_ = 0;
};

/// Live journaling of a relation's mutations into its snapshot's WAL
/// sidecar: a relational::MutationObserver that appends one record per
/// committed Insert/Delete/SetCell. Attach it (Relation::set_observer)
/// after a save or an open+replay and every subsequent mutation — monitor
/// update batches, applied repairs, any future SQL DML — reaches the
/// sidecar the moment it commits, so the next OpenRelation replays the
/// relation back to its exact live state.
///
/// Error discipline: the first failed append latches into status() and
/// disables further appends — a sidecar with a silent gap would replay a
/// *wrong* relation, which is worse than a sidecar that visibly stopped at
/// a known record. The next SaveRelation writes a fresh snapshot + empty
/// sidecar and re-arms a clean attachment.
class WalAttachment : public relational::MutationObserver {
 public:
  /// Opens the sidecar at `wal_path` for appending (WalWriter::OpenExisting
  /// semantics: stamp verified, torn tail truncated), journaling under
  /// `policy` (docs/robustness.md). The caller wires the result to the
  /// relation with set_observer and must detach (or destroy the relation)
  /// before destroying the attachment.
  static common::Result<std::unique_ptr<WalAttachment>> Open(
      const std::string& wal_path, uint64_t snapshot_checksum,
      SyncPolicy policy = {});

  void OnInsert(relational::TupleId tid, const relational::Row& row) override;
  void OnDelete(relational::TupleId tid) override;
  void OnSetCell(relational::TupleId tid, size_t col,
                 const relational::Value& value) override;

  /// OK until the first append failure; sticky afterwards.
  const common::Status& status() const { return status_; }

  /// Mutation records appended through this attachment (for tests/ops).
  size_t records_appended() const { return records_appended_; }

  /// Forces any unsynced batch tail to stable storage (clean shutdown).
  common::Status SyncNow() { return writer_.SyncNow(); }

  const std::string& path() const { return writer_.path(); }
  const SyncPolicy& sync_policy() const { return writer_.sync_policy(); }

 private:
  explicit WalAttachment(WalWriter writer) : writer_(std::move(writer)) {}

  WalWriter writer_;
  common::Status status_ = common::Status::OK();
  size_t records_appended_ = 0;
};

/// Replays the WAL at `path` into `rel` through Insert/Delete/SetCell.
/// Missing file = empty tail (0 records). A segment stamped for a
/// different snapshot fails the load if it holds any record; record-free
/// it is treated as the empty tail it is — that state is the one artifact
/// a crash between SnapshotWriter's two publish renames can leave (the
/// predecessor's empty sidecar beside the fresh snapshot). A torn final
/// record is dropped silently (crash tail); any earlier corruption is an
/// IoError. Returns the number of records applied — after it,
/// EncodedRelation::Sync() brings the codes adopted from the loaded
/// snapshot up to date.
///
/// `cancel` (common/cancel.h) is checked once per record: a tripped token
/// stops the replay with Status::Cancelled / Status::DeadlineExceeded,
/// leaving `rel` partially replayed — callers that opened the relation for
/// this replay unwind it (OpenRelation drops the half-built relation on
/// any replay failure, cancellation included), so nothing partial is ever
/// published.
common::Result<size_t> ReplayWal(const std::string& path,
                                 uint64_t snapshot_checksum,
                                 relational::Relation* rel,
                                 common::CancelToken* cancel = nullptr);

}  // namespace semandaq::storage

#endif  // SEMANDAQ_STORAGE_WAL_H_
