#ifndef SEMANDAQ_STORAGE_SNAPSHOT_H_
#define SEMANDAQ_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "relational/relation.h"

namespace semandaq::storage {

/// Binary columnar snapshot of a relation's dictionaries and code columns.
/// One snapshot file holds a fixed
/// header, a liveness bitmap, per-column dictionary blobs and flat uint32
/// code arrays written sequentially, and a checksummed manifest footer
/// (schema, row counts, versions, per-section offsets). Byte-level layout:
/// docs/storage.md. Rows changed after a snapshot live in the WAL sidecar
/// (storage/wal.h) at `path + ".wal"` and replay on load.

/// Conventional WAL sidecar path for a snapshot at `path`.
inline std::string WalPathFor(const std::string& path) { return path + ".wal"; }

/// What SnapshotWriter::Write reports back (CLI/status surface).
struct SnapshotStats {
  uint64_t id_bound = 0;    ///< code entries per column (incl. tombstones)
  uint64_t live_rows = 0;
  uint32_t num_columns = 0;
  uint64_t file_bytes = 0;
  /// Checksum of the manifest; doubles as the snapshot identity that the
  /// WAL sidecar is stamped with.
  uint64_t manifest_checksum = 0;
};

class SnapshotWriter {
 public:
  /// Persists `rel`'s dictionaries and code columns at `path`
  /// (write-temp-rename, so a crash never leaves a half-written snapshot
  /// behind) and creates a fresh, empty WAL sidecar at WalPathFor(path)
  /// stamped with the new snapshot's identity — after a save, the snapshot
  /// covers everything. Every dictionary entry is written, including
  /// values that overwrites left unused.
  static common::Result<SnapshotStats> Write(const relational::Relation& rel,
                                             const std::string& path);
};

/// A snapshot pulled back into memory: the reconstructed relation (same
/// TupleIds, tombstones preserved), built by Relation::FromColumns over the
/// columns exactly as saved — refcounted chunks and dictionaries, no
/// per-value decode or re-encode, and no second copy of the data (the file
/// buffer is released before Read returns).
struct LoadedSnapshot {
  relational::Relation relation;
  std::string saved_name;           ///< relation name at save time
  uint64_t manifest_checksum = 0;   ///< identity the WAL sidecar must carry
};

class SnapshotReader {
 public:
  /// Loads a snapshot with one bulk read: the file is pulled into memory
  /// with a single read and the code arrays are memcpy'd straight into
  /// their column chunks — no per-value decoding on the code path, and no
  /// second retained copy (the relation keeps the chunks; the file buffer
  /// dies with this call). Every section is
  /// checksum-verified before use; corruption and truncation come back
  /// as IoError, never as garbage data. Does NOT replay the WAL sidecar
  /// (storage::ReplayWal).
  static common::Result<LoadedSnapshot> Read(const std::string& path);
};

}  // namespace semandaq::storage

#endif  // SEMANDAQ_STORAGE_SNAPSHOT_H_
