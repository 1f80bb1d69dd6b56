#include "storage/wal.h"

#include <cstring>

#include "common/failpoint.h"
#include "storage/format.h"

namespace semandaq::storage {

using common::Result;
using common::Status;
using relational::Row;
using relational::TupleId;
using relational::Value;

namespace {

/// Fixed WAL header: magic(8) canary(4) version(4) snapshot_checksum(8)
/// header_checksum(8).
constexpr size_t kWalHeaderSize = 32;
constexpr size_t kWalHeaderChecksumOffset = kWalHeaderSize - 8;

/// Record ops. The insert path is the hot one (rows inserted after the last
/// snapshot); delete/setcell ride along so any mutation sequence survives a
/// restart.
constexpr uint8_t kOpInsert = 1;
constexpr uint8_t kOpDelete = 2;
constexpr uint8_t kOpSetCell = 3;

/// Per-record frame ahead of the payload: u32 size + u64 checksum.
constexpr size_t kRecordFrameSize = 12;

std::string BuildWalHeader(uint64_t snapshot_checksum) {
  std::string h;
  ByteWriter w(&h);
  w.PutBytes(kWalMagic, sizeof kWalMagic);
  w.PutU32(kEndianCanary);
  w.PutU32(kFormatVersion);
  w.PutU64(snapshot_checksum);
  w.PutU64(Checksum64(h.data(), h.size()));
  return h;
}

/// Validates the header of a WAL buffer and returns its snapshot stamp;
/// callers decide how a foreign stamp is handled (see ReplayWal).
Result<uint64_t> ReadWalHeader(const std::string& file,
                               const std::string& path) {
  if (file.size() < kWalHeaderSize) {
    return Status::IoError("truncated WAL (shorter than the header): " + path);
  }
  if (std::memcmp(file.data(), kWalMagic, sizeof kWalMagic) != 0) {
    return Status::IoError("not a semandaq WAL (bad magic): " + path);
  }
  ByteReader r(file.data() + 8, kWalHeaderSize - 8, "WAL header");
  SEMANDAQ_ASSIGN_OR_RETURN(uint32_t canary, r.GetU32());
  if (canary != kEndianCanary) {
    return Status::IoError("WAL byte order does not match this host");
  }
  SEMANDAQ_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kFormatVersion) {
    return Status::IoError("unsupported WAL format version " +
                           std::to_string(version));
  }
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t stamp, r.GetU64());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t header_checksum, r.GetU64());
  if (Checksum64(file.data(), kWalHeaderChecksumOffset) != header_checksum) {
    return Status::IoError("WAL header checksum mismatch: " + path);
  }
  return stamp;
}

/// Walks the records of a validated WAL buffer, invoking `apply` per intact
/// payload. Returns the byte offset of the first torn/absent record (the
/// valid length of the segment); corruption before the tail is an error.
template <typename Fn>
Result<size_t> WalkRecords(const std::string& file, Fn&& apply) {
  size_t at = kWalHeaderSize;
  while (at < file.size()) {
    if (file.size() - at < kRecordFrameSize) break;  // torn frame at the tail
    uint32_t payload_size;
    uint64_t payload_checksum;
    std::memcpy(&payload_size, file.data() + at, 4);
    std::memcpy(&payload_checksum, file.data() + at + 4, 8);
    const size_t payload_at = at + kRecordFrameSize;
    if (file.size() - payload_at < payload_size) break;  // torn payload
    const char* payload = file.data() + payload_at;
    if (Checksum64(payload, payload_size) != payload_checksum) {
      // A checksum break on the *last* record is a torn write; anywhere
      // earlier the segment is corrupt, not merely interrupted.
      if (payload_at + payload_size == file.size()) break;
      return Status::IoError("WAL record checksum mismatch mid-segment");
    }
    SEMANDAQ_RETURN_IF_ERROR(apply(payload, static_cast<size_t>(payload_size)));
    at = payload_at + payload_size;
  }
  return at;
}

}  // namespace

Result<SyncPolicy> SyncPolicy::Parse(std::string_view text) {
  SyncPolicy p;
  if (text == "always") {
    p.mode = Mode::kAlways;
    return p;
  }
  if (text == "none") {
    p.mode = Mode::kNone;
    return p;
  }
  if (text == "batch") {
    p.mode = Mode::kBatch;
    return p;
  }
  if (text.size() > 7 && text.substr(0, 6) == "batch(" && text.back() == ')') {
    const std::string_view digits = text.substr(6, text.size() - 7);
    size_t n = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("bad sync policy: " +
                                       std::string(text));
      }
      n = n * 10 + static_cast<size_t>(c - '0');
      if (n > (size_t{1} << 30)) {
        return Status::InvalidArgument("sync batch size too large: " +
                                       std::string(text));
      }
    }
    if (n == 0) {
      return Status::InvalidArgument("sync batch size must be >= 1: " +
                                     std::string(text));
    }
    p.mode = Mode::kBatch;
    p.batch_records = n;
    return p;
  }
  return Status::InvalidArgument(
      "bad sync policy (want always|batch|batch(N)|none): " +
      std::string(text));
}

std::string SyncPolicy::ToString() const {
  switch (mode) {
    case Mode::kAlways:
      return "always";
    case Mode::kNone:
      return "none";
    case Mode::kBatch:
      return "batch(" + std::to_string(batch_records) + ")";
  }
  return "always";
}

Result<WalWriter> WalWriter::Create(const std::string& path,
                                    uint64_t snapshot_checksum,
                                    SyncPolicy policy) {
  SEMANDAQ_FAILPOINT("wal.create.pre_open");
  SEMANDAQ_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> out,
      Env::Get()->NewWritableFile(path, Env::OpenMode::kTruncate));
  const std::string header = BuildWalHeader(snapshot_checksum);
  SEMANDAQ_FAILPOINT_WRITE("wal.create.write_header", out.get(), header);
  // The header is the segment's identity; a WAL whose header may evaporate
  // in a crash is not a WAL, so it syncs regardless of the record policy.
  SEMANDAQ_FAILPOINT("wal.create.pre_sync");
  SEMANDAQ_RETURN_IF_ERROR(out->Sync());
  return WalWriter(path, std::move(out), policy);
}

Result<WalWriter> WalWriter::OpenExisting(const std::string& path,
                                          uint64_t snapshot_checksum,
                                          SyncPolicy policy) {
  Env* env = Env::Get();
  SEMANDAQ_ASSIGN_OR_RETURN(std::string file, env->ReadFileToString(path));
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t stamp, ReadWalHeader(file, path));
  if (stamp != snapshot_checksum) {
    // Appending under a foreign stamp would fabricate history for a
    // snapshot this segment does not extend — never acceptable, even
    // when the segment is empty.
    return Status::IoError(
        "WAL does not extend this snapshot (stamp mismatch): " + path);
  }
  SEMANDAQ_ASSIGN_OR_RETURN(
      size_t valid_end,
      WalkRecords(file, [](const char*, size_t) { return Status::OK(); }));
  if (valid_end != file.size()) {
    // Drop the torn tail so new appends start on a record boundary.
    SEMANDAQ_RETURN_IF_ERROR(env->TruncateFile(path, valid_end));
  }
  SEMANDAQ_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> out,
      env->NewWritableFile(path, Env::OpenMode::kAppend));
  return WalWriter(path, std::move(out), policy);
}

Status WalWriter::AppendRecord(const std::string& payload) {
  SEMANDAQ_FAILPOINT("wal.append.pre_write");
  // Frame and payload go out as one buffer: a crash can tear the record at
  // any byte, but can never interleave it with a neighbor.
  std::string buf;
  ByteWriter w(&buf);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU64(Checksum64(payload.data(), payload.size()));
  buf.append(payload);
  SEMANDAQ_FAILPOINT_WRITE("wal.append.write", out_.get(), buf);
  SEMANDAQ_FAILPOINT("wal.append.pre_sync");
  switch (policy_.mode) {
    case SyncPolicy::Mode::kAlways:
      SEMANDAQ_RETURN_IF_ERROR(out_->Sync());
      break;
    case SyncPolicy::Mode::kBatch:
      if (++unsynced_records_ >= policy_.batch_records) {
        SEMANDAQ_RETURN_IF_ERROR(out_->Sync());
        unsynced_records_ = 0;
      }
      break;
    case SyncPolicy::Mode::kNone:
      break;
  }
  return Status::OK();
}

Status WalWriter::SyncNow() {
  SEMANDAQ_RETURN_IF_ERROR(out_->Sync());
  unsynced_records_ = 0;
  return Status::OK();
}

Status WalWriter::AppendInsert(const Row& row) {
  std::string payload;
  ByteWriter w(&payload);
  w.PutU8(kOpInsert);
  w.PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) w.PutValue(v);
  return AppendRecord(payload);
}

Status WalWriter::AppendDelete(TupleId tid) {
  std::string payload;
  ByteWriter w(&payload);
  w.PutU8(kOpDelete);
  w.PutU64(static_cast<uint64_t>(tid));
  return AppendRecord(payload);
}

Status WalWriter::AppendSetCell(TupleId tid, size_t col, const Value& value) {
  std::string payload;
  ByteWriter w(&payload);
  w.PutU8(kOpSetCell);
  w.PutU64(static_cast<uint64_t>(tid));
  w.PutU32(static_cast<uint32_t>(col));
  w.PutValue(value);
  return AppendRecord(payload);
}

Result<size_t> ReplayWal(const std::string& path, uint64_t snapshot_checksum,
                         relational::Relation* rel,
                         common::CancelToken* cancel) {
  Env* env = Env::Get();
  if (!env->FileExists(path)) return size_t{0};  // no tail
  SEMANDAQ_ASSIGN_OR_RETURN(std::string file, env->ReadFileToString(path));
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t stamp, ReadWalHeader(file, path));
  if (stamp != snapshot_checksum) {
    // A sidecar stamped for a different snapshot carries nothing this
    // load may replay. With records in it, that is a real mismatch and
    // the load must fail; record-free, it is the one artifact a crash
    // between SnapshotWriter's two publish renames can leave behind (the
    // predecessor's empty sidecar), and an empty tail is an empty tail.
    size_t records = 0;
    SEMANDAQ_ASSIGN_OR_RETURN(
        size_t end, WalkRecords(file, [&](const char*, size_t) {
          ++records;
          return Status::OK();
        }));
    (void)end;
    if (records != 0) {
      return Status::IoError(
          "WAL does not extend this snapshot (stamp mismatch): " + path);
    }
    return size_t{0};
  }

  size_t applied = 0;
  auto apply = [&](const char* payload, size_t size) -> Status {
    SEMANDAQ_RETURN_IF_CANCELLED(cancel);
    ByteReader r(payload, size, "WAL record");
    SEMANDAQ_ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
    switch (op) {
      case kOpInsert: {
        SEMANDAQ_ASSIGN_OR_RETURN(uint32_t ncells, r.GetU32());
        Row row;
        row.reserve(ncells);
        for (uint32_t i = 0; i < ncells; ++i) {
          SEMANDAQ_ASSIGN_OR_RETURN(Value v, r.GetValue());
          row.push_back(std::move(v));
        }
        SEMANDAQ_ASSIGN_OR_RETURN(TupleId tid, rel->Insert(std::move(row)));
        (void)tid;
        break;
      }
      case kOpDelete: {
        SEMANDAQ_ASSIGN_OR_RETURN(uint64_t tid, r.GetU64());
        SEMANDAQ_RETURN_IF_ERROR(rel->Delete(static_cast<TupleId>(tid)));
        break;
      }
      case kOpSetCell: {
        SEMANDAQ_ASSIGN_OR_RETURN(uint64_t tid, r.GetU64());
        SEMANDAQ_ASSIGN_OR_RETURN(uint32_t col, r.GetU32());
        SEMANDAQ_ASSIGN_OR_RETURN(Value v, r.GetValue());
        SEMANDAQ_RETURN_IF_ERROR(
            rel->SetCell(static_cast<TupleId>(tid), col, std::move(v)));
        break;
      }
      default:
        return Status::IoError("unknown WAL record op " + std::to_string(op));
    }
    if (!r.exhausted()) {
      return Status::IoError("corrupted WAL record: trailing bytes");
    }
    ++applied;
    return Status::OK();
  };
  SEMANDAQ_ASSIGN_OR_RETURN(size_t valid_end, WalkRecords(file, apply));
  (void)valid_end;
  return applied;
}

Result<std::unique_ptr<WalAttachment>> WalAttachment::Open(
    const std::string& wal_path, uint64_t snapshot_checksum,
    SyncPolicy policy) {
  SEMANDAQ_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::OpenExisting(wal_path, snapshot_checksum, policy));
  return std::unique_ptr<WalAttachment>(new WalAttachment(std::move(writer)));
}

void WalAttachment::OnInsert(TupleId tid, const Row& row) {
  (void)tid;  // replay re-issues the same ids by append order
  if (!status_.ok()) return;
  status_ = writer_.AppendInsert(row);
  if (status_.ok()) ++records_appended_;
}

void WalAttachment::OnDelete(TupleId tid) {
  if (!status_.ok()) return;
  status_ = writer_.AppendDelete(tid);
  if (status_.ok()) ++records_appended_;
}

void WalAttachment::OnSetCell(TupleId tid, size_t col, const Value& value) {
  if (!status_.ok()) return;
  status_ = writer_.AppendSetCell(tid, col, value);
  if (status_.ok()) ++records_appended_;
}

}  // namespace semandaq::storage
