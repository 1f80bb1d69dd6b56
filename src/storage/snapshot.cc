#include "storage/snapshot.h"

#include <cassert>
#include <cstring>
#include <memory>

#include "common/csv.h"
#include "common/failpoint.h"
#include "storage/env.h"
#include "storage/format.h"
#include "storage/wal.h"

namespace semandaq::storage {

using common::Result;
using common::Status;
using relational::AttributeDef;
using relational::Code;
using relational::DataType;
using relational::kNullCode;
using relational::Dictionary;
using relational::EncodedRelation;
using relational::Relation;
using relational::Row;
using relational::Schema;
using relational::TupleId;
using relational::Value;

namespace {

/// Fixed snapshot header: magic(8) canary(4) version(4) manifest_offset(8)
/// manifest_size(8) manifest_checksum(8) file_size(8) header_checksum(8).
constexpr size_t kHeaderSize = 56;
constexpr size_t kHeaderChecksumOffset = kHeaderSize - 8;

/// One manifest entry per column: where its two on-disk sections live.
struct ColumnExtent {
  uint32_t dict_count = 0;
  uint64_t dict_offset = 0, dict_size = 0, dict_checksum = 0;
  uint64_t codes_offset = 0, codes_size = 0, codes_checksum = 0;
};

void PatchU32(std::string* buf, size_t at, uint32_t v) {
  std::memcpy(&(*buf)[at], &v, sizeof v);
}

void PatchU64(std::string* buf, size_t at, uint64_t v) {
  std::memcpy(&(*buf)[at], &v, sizeof v);
}

/// Verifies one section's bounds (inside the data area between header and
/// manifest) and checksum, returning a pointer to its first byte.
Result<const uint8_t*> CheckSection(const std::string& file, uint64_t offset,
                                    uint64_t size, uint64_t checksum,
                                    uint64_t manifest_offset,
                                    const std::string& what) {
  if (offset < kHeaderSize || offset + size < offset ||
      offset + size > manifest_offset) {
    return Status::IoError("corrupted snapshot manifest: " + what +
                           " section out of bounds");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(file.data()) + offset;
  if (Checksum64(p, static_cast<size_t>(size)) != checksum) {
    return Status::IoError("snapshot checksum mismatch in " + what +
                           " section");
  }
  return p;
}

}  // namespace

Result<SnapshotStats> SnapshotWriter::Write(const Relation& rel,
                                            const EncodedRelation& enc,
                                            const std::string& path) {
  if (&enc.relation() != &rel) {
    return Status::FailedPrecondition(
        "encoded snapshot does not belong to the relation being saved");
  }
  if (!enc.InSync()) {
    return Status::FailedPrecondition(
        "encoded snapshot is stale; Sync() before saving");
  }
  const size_t ncols = rel.schema().size();
  const uint64_t id_bound = static_cast<uint64_t>(rel.IdBound());

  std::string file;
  file.append(kHeaderSize, '\0');  // patched at the end

  // Liveness bitmap, one bit per TupleId (LSB-first within a byte).
  const uint64_t live_offset = file.size();
  {
    std::string bits((id_bound + 7) / 8, '\0');
    for (uint64_t tid = 0; tid < id_bound; ++tid) {
      if (rel.IsLive(static_cast<TupleId>(tid))) {
        bits[tid / 8] |= static_cast<char>(1u << (tid % 8));
      }
    }
    file += bits;
  }
  const uint64_t live_size = file.size() - live_offset;
  const uint64_t live_checksum =
      Checksum64(file.data() + live_offset, static_cast<size_t>(live_size));

  // Per-column sections, written sequentially: dictionary blob (the decoded
  // values of codes 1..n, in code order), then the raw code array.
  std::vector<ColumnExtent> extents(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    ColumnExtent& ext = extents[c];
    const Dictionary& dict = enc.dictionary(c);
    ext.dict_offset = file.size();
    ext.dict_count = static_cast<uint32_t>(dict.size());
    {
      ByteWriter w(&file);
      for (Code code = 1; code <= dict.size(); ++code) {
        w.PutValue(dict.Decode(code));
      }
    }
    ext.dict_size = file.size() - ext.dict_offset;
    ext.dict_checksum = Checksum64(file.data() + ext.dict_offset,
                                   static_cast<size_t>(ext.dict_size));

    const relational::CodeColumn& codes = enc.column(c);
    ext.codes_offset = file.size();
    ext.codes_size = codes.size() * sizeof(Code);
    file.append(reinterpret_cast<const char*>(codes.data()), ext.codes_size);
    ext.codes_checksum = Checksum64(file.data() + ext.codes_offset,
                                    static_cast<size_t>(ext.codes_size));
  }

  // Manifest footer.
  const uint64_t manifest_offset = file.size();
  {
    ByteWriter w(&file);
    w.PutString(rel.name());
    w.PutU64(id_bound);
    w.PutU64(rel.size());
    w.PutU64(rel.version());
    w.PutU64(rel.overwrite_version());
    w.PutU64(live_offset);
    w.PutU64(live_size);
    w.PutU64(live_checksum);
    w.PutU32(static_cast<uint32_t>(ncols));
    for (size_t c = 0; c < ncols; ++c) {
      const AttributeDef& attr = rel.schema().attr(c);
      w.PutString(attr.name);
      w.PutU8(static_cast<uint8_t>(attr.type));
      w.PutU32(static_cast<uint32_t>(attr.finite_domain.size()));
      for (const Value& v : attr.finite_domain) w.PutValue(v);
      const ColumnExtent& ext = extents[c];
      w.PutU32(ext.dict_count);
      w.PutU64(ext.dict_offset);
      w.PutU64(ext.dict_size);
      w.PutU64(ext.dict_checksum);
      w.PutU64(ext.codes_offset);
      w.PutU64(ext.codes_size);
      w.PutU64(ext.codes_checksum);
    }
  }
  const uint64_t manifest_size = file.size() - manifest_offset;
  const uint64_t manifest_checksum = Checksum64(
      file.data() + manifest_offset, static_cast<size_t>(manifest_size));

  // Patch the header now that every offset is known.
  std::memcpy(&file[0], kSnapshotMagic, sizeof kSnapshotMagic);
  PatchU32(&file, 8, kEndianCanary);
  PatchU32(&file, 12, kFormatVersion);
  PatchU64(&file, 16, manifest_offset);
  PatchU64(&file, 24, manifest_size);
  PatchU64(&file, 32, manifest_checksum);
  PatchU64(&file, 40, file.size());
  PatchU64(&file, kHeaderChecksumOffset,
           Checksum64(file.data(), kHeaderChecksumOffset));

  // Publish with staged files and two back-to-back renames: both the
  // snapshot and its fresh (empty, newly stamped — a fresh snapshot
  // covers everything) WAL sidecar are fully written as .tmp before
  // either rename, so no crash point leaves a half-written file behind.
  // The only crash artifact left is the old sidecar next to the new
  // snapshot between the renames — ReplayWal treats a record-free
  // sidecar with a foreign stamp as the empty tail it is, so that state
  // stays openable too (a foreign sidecar *with* records still fails the
  // load, conservatively).
  // Both staged files are synced before either rename, and the parent
  // directory is fsynced after the renames — without the directory sync a
  // power cut can forget the rename itself and resurrect the old snapshot
  // (or nothing) even though the new file's bytes were durable.
  const std::string tmp = path + ".tmp";
  const std::string wal_tmp = WalPathFor(path) + ".tmp";
  Env* env = Env::Get();
  {
    SEMANDAQ_ASSIGN_OR_RETURN(WalWriter wal,
                              WalWriter::Create(wal_tmp, manifest_checksum));
    (void)wal;  // header written and synced; close before the rename
  }
  {
    SEMANDAQ_ASSIGN_OR_RETURN(
        std::unique_ptr<WritableFile> out,
        env->NewWritableFile(tmp, Env::OpenMode::kTruncate));
    SEMANDAQ_FAILPOINT_WRITE("snapshot.save.write", out.get(), file);
    SEMANDAQ_FAILPOINT("snapshot.save.pre_sync");
    SEMANDAQ_RETURN_IF_ERROR(out->Sync());
    SEMANDAQ_RETURN_IF_ERROR(out->Close());
  }
  SEMANDAQ_FAILPOINT("snapshot.save.pre_publish");
  {
    const Status renamed = env->RenameFile(tmp, path);
    if (!renamed.ok()) {
      (void)env->RemoveFile(tmp);
      (void)env->RemoveFile(wal_tmp);
      return renamed;
    }
  }
  SEMANDAQ_FAILPOINT("snapshot.save.between_renames");
  {
    const Status renamed = env->RenameFile(wal_tmp, WalPathFor(path));
    if (!renamed.ok()) {
      (void)env->RemoveFile(wal_tmp);
      return renamed;
    }
  }
  SEMANDAQ_FAILPOINT("snapshot.save.pre_dir_sync");
  // One directory fsync covers both renames: the sidecar lives beside the
  // snapshot, so they share a parent directory entry table.
  SEMANDAQ_RETURN_IF_ERROR(env->SyncDirOf(path));

  SnapshotStats stats;
  stats.id_bound = id_bound;
  stats.live_rows = rel.size();
  stats.num_columns = static_cast<uint32_t>(ncols);
  stats.file_bytes = file.size();
  stats.manifest_checksum = manifest_checksum;
  return stats;
}

Result<LoadedSnapshot> SnapshotReader::Read(const std::string& path) {
  // The single bulk read: everything below parses out of this one buffer.
  SEMANDAQ_ASSIGN_OR_RETURN(std::string file,
                            Env::Get()->ReadFileToString(path));

  if (file.size() < kHeaderSize) {
    return Status::IoError("truncated snapshot (shorter than the header): " +
                           path);
  }
  if (std::memcmp(file.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    return Status::IoError("not a semandaq snapshot (bad magic): " + path);
  }
  ByteReader header(file.data() + 8, kHeaderSize - 8, "snapshot header");
  SEMANDAQ_ASSIGN_OR_RETURN(uint32_t canary, header.GetU32());
  if (canary != kEndianCanary) {
    return Status::IoError("snapshot byte order does not match this host");
  }
  SEMANDAQ_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version != kFormatVersion) {
    return Status::IoError("unsupported snapshot format version " +
                           std::to_string(version));
  }
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t manifest_offset, header.GetU64());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t manifest_size, header.GetU64());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t manifest_checksum, header.GetU64());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t file_size, header.GetU64());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t header_checksum, header.GetU64());
  if (Checksum64(file.data(), kHeaderChecksumOffset) != header_checksum) {
    return Status::IoError("snapshot header checksum mismatch: " + path);
  }
  if (file_size != file.size()) {
    return Status::IoError(
        "truncated snapshot: header records " + std::to_string(file_size) +
        " bytes but the file has " + std::to_string(file.size()));
  }
  if (manifest_offset < kHeaderSize ||
      manifest_offset + manifest_size != file_size) {
    return Status::IoError("corrupted snapshot header: manifest out of bounds");
  }
  if (Checksum64(file.data() + manifest_offset,
                 static_cast<size_t>(manifest_size)) != manifest_checksum) {
    return Status::IoError("snapshot manifest checksum mismatch: " + path);
  }

  ByteReader m(file.data() + manifest_offset,
               static_cast<size_t>(manifest_size), "snapshot manifest");
  LoadedSnapshot out;
  out.manifest_checksum = manifest_checksum;
  SEMANDAQ_ASSIGN_OR_RETURN(out.saved_name, m.GetString());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t id_bound, m.GetU64());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t live_count, m.GetU64());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t saved_version, m.GetU64());
  (void)saved_version;  // informational; sync marks use the rebuilt counters
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t saved_overwrite, m.GetU64());
  (void)saved_overwrite;
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t live_offset, m.GetU64());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t live_size, m.GetU64());
  SEMANDAQ_ASSIGN_OR_RETURN(uint64_t live_checksum, m.GetU64());
  if (live_size != (id_bound + 7) / 8) {
    return Status::IoError("corrupted snapshot manifest: liveness bitmap size");
  }
  SEMANDAQ_ASSIGN_OR_RETURN(
      const uint8_t* live_bits,
      CheckSection(file, live_offset, live_size, live_checksum,
                   manifest_offset, "liveness bitmap"));

  SEMANDAQ_ASSIGN_OR_RETURN(uint32_t ncols, m.GetU32());
  std::vector<AttributeDef> attrs;
  attrs.reserve(ncols);
  std::vector<std::shared_ptr<Dictionary>> dicts;
  std::vector<relational::CodeColumn> columns;
  dicts.reserve(ncols);
  columns.reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    AttributeDef attr;
    SEMANDAQ_ASSIGN_OR_RETURN(attr.name, m.GetString());
    SEMANDAQ_ASSIGN_OR_RETURN(uint8_t type_tag, m.GetU8());
    if (type_tag > static_cast<uint8_t>(DataType::kString)) {
      return Status::IoError("corrupted snapshot manifest: bad column type");
    }
    attr.type = static_cast<DataType>(type_tag);
    SEMANDAQ_ASSIGN_OR_RETURN(uint32_t domain_count, m.GetU32());
    attr.finite_domain.reserve(domain_count);
    for (uint32_t i = 0; i < domain_count; ++i) {
      SEMANDAQ_ASSIGN_OR_RETURN(Value v, m.GetValue());
      attr.finite_domain.push_back(std::move(v));
    }
    attrs.push_back(std::move(attr));

    ColumnExtent ext;
    SEMANDAQ_ASSIGN_OR_RETURN(ext.dict_count, m.GetU32());
    SEMANDAQ_ASSIGN_OR_RETURN(ext.dict_offset, m.GetU64());
    SEMANDAQ_ASSIGN_OR_RETURN(ext.dict_size, m.GetU64());
    SEMANDAQ_ASSIGN_OR_RETURN(ext.dict_checksum, m.GetU64());
    SEMANDAQ_ASSIGN_OR_RETURN(ext.codes_offset, m.GetU64());
    SEMANDAQ_ASSIGN_OR_RETURN(ext.codes_size, m.GetU64());
    SEMANDAQ_ASSIGN_OR_RETURN(ext.codes_checksum, m.GetU64());

    // Dictionary blob: decoded values in code order.
    SEMANDAQ_ASSIGN_OR_RETURN(
        const uint8_t* dict_bytes,
        CheckSection(file, ext.dict_offset, ext.dict_size, ext.dict_checksum,
                     manifest_offset, "dictionary (column " + attr.name + ")"));
    ByteReader dr(dict_bytes, static_cast<size_t>(ext.dict_size),
                  "dictionary blob of column " + attr.name);
    std::vector<Value> decoded;
    decoded.reserve(ext.dict_count);
    for (uint32_t i = 0; i < ext.dict_count; ++i) {
      SEMANDAQ_ASSIGN_OR_RETURN(Value v, dr.GetValue());
      decoded.push_back(std::move(v));
    }
    if (!dr.exhausted()) {
      return Status::IoError("corrupted dictionary blob of column " +
                             attr.name + ": trailing bytes");
    }
    SEMANDAQ_ASSIGN_OR_RETURN(Dictionary dict,
                              Dictionary::FromDecodedValues(std::move(decoded)));
    dicts.push_back(std::make_shared<Dictionary>(std::move(dict)));

    // Code array: one memcpy off the file buffer into a refcounted chunk,
    // no per-value decoding — and the only copy of the codes this load
    // retains (the relation keeps the chunk; the file buffer dies with
    // this call). The file offsets are arbitrary, so the memcpy also
    // realigns the codes for the SIMD-friendly chunk storage.
    if (ext.codes_size != id_bound * sizeof(Code)) {
      return Status::IoError("corrupted snapshot manifest: code array of " +
                             attr.name + " has the wrong size");
    }
    SEMANDAQ_ASSIGN_OR_RETURN(
        const uint8_t* code_bytes,
        CheckSection(file, ext.codes_offset, ext.codes_size,
                     ext.codes_checksum, manifest_offset,
                     "code array (column " + attr.name + ")"));
    relational::CodeColumn codes;
    codes.Assign(reinterpret_cast<const Code*>(code_bytes),
                 static_cast<size_t>(id_bound));
    columns.push_back(std::move(codes));
  }
  if (!m.exhausted()) {
    return Status::IoError("corrupted snapshot manifest: trailing bytes");
  }

  // Rebuild the relation: same TupleIds, tombstones preserved. Every live
  // code is bounds-checked against its dictionary now — a code past the
  // dictionary means the file lies — but the per-cell *decode* into rows
  // is deferred to the first row access (Relation::FromColumns), so
  // load-then-detect never pays it.
  Schema schema(std::move(attrs));
  std::vector<uint8_t> live(static_cast<size_t>(id_bound), 0);
  uint64_t live_seen = 0;
  for (uint64_t tid = 0; tid < id_bound; ++tid) {
    if ((live_bits[tid / 8] >> (tid % 8)) & 1) {
      live[static_cast<size_t>(tid)] = 1;
      ++live_seen;
    }
  }
  if (live_seen != live_count) {
    return Status::IoError("corrupted snapshot: liveness bitmap disagrees "
                           "with the recorded live count");
  }
  for (uint32_t c = 0; c < ncols; ++c) {
    const Dictionary& dict = *dicts[c];
    const relational::CodeColumn& codes = columns[c];
    for (uint64_t tid = 0; tid < id_bound; ++tid) {
      if (live[static_cast<size_t>(tid)] &&
          !dict.Contains(codes[static_cast<size_t>(tid)])) {
        return Status::IoError("corrupted snapshot: code out of range in "
                               "column " + schema.attr(c).name);
      }
    }
  }

  out.relation = Relation::FromColumns(out.saved_name, std::move(schema),
                                       std::move(live), std::move(dicts),
                                       std::move(columns));
  return out;
}

}  // namespace semandaq::storage
