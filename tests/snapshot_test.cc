// The persistent columnar store (src/storage): snapshot round-trips must be
// lossless — same schema, same TupleIds (tombstones included), byte-identical
// code columns — and detection over a loaded snapshot must be *exactly* the
// detection over the original in-memory relation. Engines adopt the codes a
// loaded relation (or a published epoch, or a clone of one) carries, and
// never write them. The corruption paths
// (manifest, sections, truncation, WAL) must come back as IoError, never as
// quietly wrong data.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "common/csv.h"
#include "core/semandaq.h"
#include "detect/native_detector.h"
#include "discovery/cfd_miner.h"
#include "relational/encoded_relation.h"
#include "repair/batch_repair.h"
#include "server/snapshot.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_util.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::storage {
namespace {

using detect::NativeDetector;
using detect::SingleViolation;
using detect::ViolationGroup;
using detect::ViolationTable;
using relational::Code;
using relational::EncodedRelation;
using relational::Relation;
using relational::Row;
using relational::Schema;
using relational::TupleId;
using relational::Value;

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Exact (order-sensitive) equality of two violation tables.
void ExpectTablesEqual(const ViolationTable& a, const ViolationTable& b) {
  EXPECT_EQ(a.TotalVio(), b.TotalVio());
  EXPECT_EQ(a.NumViolatingTuples(), b.NumViolatingTuples());
  ASSERT_EQ(a.singles().size(), b.singles().size());
  for (size_t i = 0; i < a.singles().size(); ++i) {
    EXPECT_EQ(a.singles()[i].tid, b.singles()[i].tid) << "single " << i;
    EXPECT_EQ(a.singles()[i].cfd_index, b.singles()[i].cfd_index);
    EXPECT_EQ(a.singles()[i].pattern_index, b.singles()[i].pattern_index);
  }
  ASSERT_EQ(a.groups().size(), b.groups().size());
  for (size_t i = 0; i < a.groups().size(); ++i) {
    const ViolationGroup& ga = a.groups()[i];
    const ViolationGroup& gb = b.groups()[i];
    EXPECT_EQ(ga.fd_group, gb.fd_group) << "group " << i;
    EXPECT_EQ(ga.cfd_index, gb.cfd_index) << "group " << i;
    ASSERT_EQ(ga.lhs_key.size(), gb.lhs_key.size());
    for (size_t k = 0; k < ga.lhs_key.size(); ++k) {
      EXPECT_EQ(ga.lhs_key[k], gb.lhs_key[k]) << "group " << i << " key " << k;
    }
    ASSERT_EQ(ga.members.size(), gb.members.size()) << "group " << i;
    for (size_t k = 0; k < ga.members.size(); ++k) {
      EXPECT_EQ(ga.members[k], gb.members[k]) << "group " << i;
      EXPECT_EQ(ga.member_partners[k], gb.member_partners[k]) << "group " << i;
    }
  }
}

ViolationTable Detect(const Relation& rel, const std::vector<cfd::Cfd>& cfds,
                      const EncodedRelation* warm = nullptr) {
  NativeDetector detector(&rel, cfds);
  if (warm != nullptr) detector.set_encoded(warm);
  auto table = detector.Detect();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? std::move(*table) : ViolationTable{};
}

/// The core round-trip property: save, load, and assert the loaded form is
/// indistinguishable — schema/ids/liveness, byte-identical code columns and
/// dictionaries, and identical detection output.
void ExpectLosslessRoundTrip(const Relation& rel, const std::string& cfd_text,
                             const std::string& tag) {
  const std::string path = TempPath("roundtrip_" + tag + ".sdq");
  const EncodedRelation enc(&rel);
  ASSERT_OK_AND_ASSIGN(SnapshotStats stats,
                       SnapshotWriter::Write(rel, enc, path));
  EXPECT_EQ(stats.live_rows, rel.size());
  EXPECT_EQ(stats.id_bound, static_cast<uint64_t>(rel.IdBound()));

  ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, SnapshotReader::Read(path));
  EXPECT_EQ(loaded.saved_name, rel.name());
  EXPECT_EQ(loaded.manifest_checksum, stats.manifest_checksum);

  // Schema, ids, liveness, and cell values survive exactly.
  ASSERT_TRUE(loaded.relation.schema().Equals(rel.schema()));
  ASSERT_EQ(loaded.relation.IdBound(), rel.IdBound());
  EXPECT_EQ(loaded.relation.size(), rel.size());
  for (TupleId tid = 0; tid < rel.IdBound(); ++tid) {
    ASSERT_EQ(loaded.relation.IsLive(tid), rel.IsLive(tid)) << "tid " << tid;
    if (!rel.IsLive(tid)) continue;
    for (size_t c = 0; c < rel.schema().size(); ++c) {
      EXPECT_EQ(loaded.relation.cell(tid, c), rel.cell(tid, c))
          << "cell (" << tid << ", " << c << ")";
    }
  }

  // The loaded relation carries its code columns; adopting them yields
  // byte-identical code columns and value-identical dictionaries.
  ASSERT_TRUE(loaded.relation.has_columns());
  const EncodedRelation adopted(&loaded.relation);
  ASSERT_EQ(adopted.num_columns(), rel.schema().size());
  EXPECT_TRUE(adopted.InSync());
  for (size_t c = 0; c < rel.schema().size(); ++c) {
    EXPECT_EQ(adopted.column(c), enc.column(c)) << "column " << c;
    EXPECT_EQ(adopted.dictionary(c).values(), enc.dictionary(c).values())
        << "dictionary " << c;
  }

  // Detection over the loaded snapshot is exactly detection over the
  // original (encoded from rows) — through the attached adopted form and
  // through the detector's own adoption.
  if (!cfd_text.empty()) {
    const auto cfds = Parse(cfd_text);
    const ViolationTable original = Detect(rel, cfds);
    ExpectTablesEqual(original, Detect(loaded.relation, cfds, &adopted));
    ExpectTablesEqual(original, Detect(loaded.relation, cfds));
  }
}

TEST(SnapshotTest, PaperCustomerRoundTrip) {
  ExpectLosslessRoundTrip(semandaq::testing::PaperCustomerRelation(),
                          semandaq::testing::PaperCfdText(), "paper_customer");
}

TEST(SnapshotTest, GeneratedWorkloadsRoundTripProperty) {
  // Property sweep: generated customer and hospital instances across seeds
  // and noise levels, with a deterministic sprinkle of deletions so
  // tombstoned TupleIds are exercised too.
  for (const uint64_t seed : {1u, 7u, 42u}) {
    workload::CustomerWorkloadOptions copts;
    copts.num_tuples = 400;
    copts.noise_rate = 0.08;
    copts.seed = seed;
    auto cwl = workload::CustomerGenerator::Generate(copts);
    for (TupleId tid = 0; tid < cwl.dirty.IdBound(); ++tid) {
      if (tid % 7 == 3) ASSERT_OK(cwl.dirty.Delete(tid));
    }
    ExpectLosslessRoundTrip(cwl.dirty, workload::CustomerGenerator::PaperCfds(),
                            "customer_s" + std::to_string(seed));

    workload::HospitalWorkloadOptions hopts;
    hopts.num_tuples = 300;
    hopts.noise_rate = 0.1;
    hopts.seed = seed;
    auto hwl = workload::HospitalGenerator::Generate(hopts);
    ExpectLosslessRoundTrip(hwl.dirty, workload::HospitalGenerator::HospitalCfds(),
                            "hospital_s" + std::to_string(seed));
  }
}

TEST(SnapshotTest, EmptyRelationRoundTrip) {
  Relation rel("empty", Schema::AllStrings({"A", "B", "C"}));
  ExpectLosslessRoundTrip(rel, "empty: [A] -> [B]", "empty");
}

TEST(SnapshotTest, NullHeavyRoundTrip) {
  auto rel = semandaq::testing::MakeStringRelation(
      "nullish", {"A", "B", "C"},
      {
          {"", "", ""},
          {"x", "", "1"},
          {"", "y", ""},
          {"x", "", "2"},
          {"", "", ""},
          {"x", "y", ""},
      });
  ExpectLosslessRoundTrip(rel, "nullish: [A] -> [C]", "nullheavy");
}

TEST(SnapshotTest, UnicodeRoundTrip) {
  auto rel = semandaq::testing::MakeStringRelation(
      "unicode", {"CITY", "NOTE"},
      {
          {"Z\xC3\xBCrich", "caf\xC3\xA9"},
          {"Z\xC3\xBCrich", "na\xC3\xAFve"},
          {"\xE6\x9D\xB1\xE4\xBA\xAC", "\xF0\x9F\x9A\x80"},
          {"M\xC3\xBCnchen", ""},
      });
  ExpectLosslessRoundTrip(rel, "unicode: [CITY] -> [NOTE]", "unicode");
}

TEST(SnapshotTest, TypedValuesRoundTrip) {
  Schema schema({{"NAME", relational::DataType::kString, {}},
                 {"N", relational::DataType::kInt, {}},
                 {"X", relational::DataType::kDouble, {}}});
  Relation rel("typed", schema);
  rel.MustInsert({Value::String("a"), Value::Int(42), Value::Double(2.5)});
  rel.MustInsert({Value::String("b"), Value::Int(-7), Value::Double(-0.125)});
  rel.MustInsert({Value::Null(), Value::Null(), Value::Null()});
  rel.MustInsert({Value::String("a"), Value::Int(42), Value::Double(3.75)});
  ExpectLosslessRoundTrip(rel, "typed: [NAME, N] -> [X]", "typed");
}

TEST(SnapshotTest, MinerOutputIdenticalOnLoadedSnapshot) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 200;
  opts.noise_rate = 0.05;
  auto wl = workload::CustomerGenerator::Generate(opts);

  const std::string path = TempPath("miner.sdq");
  const EncodedRelation enc(&wl.dirty);
  ASSERT_OK_AND_ASSIGN(auto stats, SnapshotWriter::Write(wl.dirty, enc, path));
  (void)stats;
  ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, SnapshotReader::Read(path));

  discovery::CfdMinerOptions mopts;
  mopts.max_lhs = 2;
  discovery::CfdMiner original(&wl.dirty, mopts);
  discovery::CfdMiner reloaded(&loaded.relation, mopts);
  ASSERT_OK_AND_ASSIGN(auto mined_a, original.Mine());
  ASSERT_OK_AND_ASSIGN(auto mined_b, reloaded.Mine());
  ASSERT_EQ(mined_a.size(), mined_b.size());
  for (size_t i = 0; i < mined_a.size(); ++i) {
    EXPECT_EQ(mined_a[i].ToString(), mined_b[i].ToString()) << "cfd " << i;
  }
}

TEST(SnapshotTest, WriterRejectsStaleOrForeignEncoded) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  EncodedRelation enc(&rel);
  rel.MustInsert(rel.row(0));  // the snapshot is now stale
  EXPECT_FALSE(SnapshotWriter::Write(rel, enc, TempPath("stale.sdq")).ok());

  Relation other = semandaq::testing::PaperCustomerRelation();
  const EncodedRelation other_enc(&other);
  EXPECT_FALSE(SnapshotWriter::Write(rel, other_enc, TempPath("foreign.sdq")).ok());
}

// ---------------------------------------------------------------- corruption

/// Saves the paper customer relation and hands back the raw snapshot bytes.
std::string WriteCustomerSnapshot(const std::string& path) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  const EncodedRelation enc(&rel);
  auto stats = SnapshotWriter::Write(rel, enc, path);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  auto bytes = common::ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::string();
}

void ExpectReadFails(const std::string& path, const std::string& bytes,
                     const std::string& message_fragment) {
  ASSERT_OK(common::WriteStringToFile(path, bytes));
  auto r = SnapshotReader::Read(path);
  ASSERT_FALSE(r.ok()) << "expected failure: " << message_fragment;
  EXPECT_EQ(r.status().code(), common::StatusCode::kIoError);
  EXPECT_NE(r.status().message().find(message_fragment), std::string::npos)
      << "got: " << r.status().message();
}

TEST(SnapshotCorruptionTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.sdq");
  std::string bytes = WriteCustomerSnapshot(path);
  bytes[0] = 'X';
  ExpectReadFails(path, bytes, "bad magic");
}

TEST(SnapshotCorruptionTest, CorruptedHeaderRejected) {
  const std::string path = TempPath("bad_header.sdq");
  std::string bytes = WriteCustomerSnapshot(path);
  bytes[20] ^= 0x01;  // inside manifest_offset
  ExpectReadFails(path, bytes, "header checksum mismatch");
}

TEST(SnapshotCorruptionTest, CorruptedManifestRejected) {
  const std::string path = TempPath("bad_manifest.sdq");
  std::string bytes = WriteCustomerSnapshot(path);
  bytes.back() ^= 0x40;  // the manifest is the footer
  ExpectReadFails(path, bytes, "manifest checksum mismatch");
}

TEST(SnapshotCorruptionTest, TruncatedFileRejected) {
  const std::string path = TempPath("truncated.sdq");
  std::string bytes = WriteCustomerSnapshot(path);
  bytes.resize(bytes.size() - 64);
  ExpectReadFails(path, bytes, "truncated snapshot");
}

TEST(SnapshotCorruptionTest, CorruptedColumnSectionRejected) {
  const std::string path = TempPath("bad_column.sdq");
  std::string bytes = WriteCustomerSnapshot(path);
  // Flip a byte in the middle of the data area (between the header and the
  // manifest footer): whichever section it lands in must fail its checksum.
  uint64_t manifest_offset;
  std::memcpy(&manifest_offset, bytes.data() + 16, 8);
  bytes[(56 + manifest_offset) / 2] ^= 0x10;
  ExpectReadFails(path, bytes, "checksum mismatch");
}

TEST(SnapshotCorruptionTest, TruncatedColumnRejected) {
  const std::string path = TempPath("short_column.sdq");
  std::string bytes = WriteCustomerSnapshot(path);
  // Cut 16 bytes out of the tail of the last code array and re-stamp the
  // header so it is internally consistent: the manifest then points past
  // the data that actually exists, which must be caught as out-of-bounds
  // (never an out-of-bounds read).
  uint64_t manifest_offset;
  std::memcpy(&manifest_offset, bytes.data() + 16, 8);
  bytes.erase(static_cast<size_t>(manifest_offset) - 16, 16);
  const uint64_t new_manifest_offset = manifest_offset - 16;
  const uint64_t new_file_size = bytes.size();
  std::memcpy(&bytes[16], &new_manifest_offset, 8);
  std::memcpy(&bytes[40], &new_file_size, 8);
  const uint64_t header_checksum = Checksum64(bytes.data(), 48);
  std::memcpy(&bytes[48], &header_checksum, 8);
  ExpectReadFails(path, bytes, "out of bounds");
}

// ----------------------------------------------------------------------- WAL

TEST(WalTest, InsertTailReplaysThroughSyncAppendPath) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 120;
  opts.noise_rate = 0.1;
  auto wl = workload::CustomerGenerator::Generate(opts);
  Relation& rel = wl.dirty;
  const auto cfds = Parse(workload::CustomerGenerator::PaperCfds());

  const std::string path = TempPath("wal_insert.sdq");
  EncodedRelation enc(&rel);
  ASSERT_OK_AND_ASSIGN(SnapshotStats stats, SnapshotWriter::Write(rel, enc, path));

  // Post-snapshot inserts go to the relation AND the WAL sidecar.
  ASSERT_OK_AND_ASSIGN(
      WalWriter wal,
      WalWriter::OpenExisting(WalPathFor(path), stats.manifest_checksum));
  std::vector<Row> tail = {rel.row(0), rel.row(3), rel.row(5)};
  tail[1][0] = Value::String("WalOnlyName");
  for (const Row& row : tail) {
    rel.MustInsert(row);
    ASSERT_OK(wal.AppendInsert(row));
  }
  enc.Sync();  // the in-memory reference follows the ordinary append path

  // Load = snapshot + WAL replay + Sync.
  ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, SnapshotReader::Read(path));
  EncodedRelation adopted(&loaded.relation);
  ASSERT_OK_AND_ASSIGN(
      size_t replayed,
      ReplayWal(WalPathFor(path), stats.manifest_checksum, &loaded.relation));
  EXPECT_EQ(replayed, tail.size());
  adopted.Sync();

  ASSERT_EQ(loaded.relation.IdBound(), rel.IdBound());
  for (size_t c = 0; c < rel.schema().size(); ++c) {
    EXPECT_EQ(adopted.column(c), enc.column(c)) << "column " << c;
  }
  ExpectTablesEqual(Detect(rel, cfds, &enc),
                    Detect(loaded.relation, cfds, &adopted));
}

TEST(WalTest, DeleteAndSetCellRecordsReplay) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  const auto cfds = Parse(semandaq::testing::PaperCfdText());
  const std::string path = TempPath("wal_mutate.sdq");
  EncodedRelation enc(&rel);
  ASSERT_OK_AND_ASSIGN(SnapshotStats stats, SnapshotWriter::Write(rel, enc, path));

  ASSERT_OK_AND_ASSIGN(
      WalWriter wal,
      WalWriter::OpenExisting(WalPathFor(path), stats.manifest_checksum));
  ASSERT_OK(rel.Delete(4));
  ASSERT_OK(wal.AppendDelete(4));
  ASSERT_OK(rel.SetCell(6, 1, Value::String("UK")));
  ASSERT_OK(wal.AppendSetCell(6, 1, Value::String("UK")));
  enc.Sync();

  ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, SnapshotReader::Read(path));
  EncodedRelation adopted(&loaded.relation);
  ASSERT_OK_AND_ASSIGN(
      size_t replayed,
      ReplayWal(WalPathFor(path), stats.manifest_checksum, &loaded.relation));
  EXPECT_EQ(replayed, 2u);
  adopted.Sync();

  EXPECT_FALSE(loaded.relation.IsLive(4));
  EXPECT_EQ(loaded.relation.cell(6, 1), Value::String("UK"));
  ExpectTablesEqual(Detect(rel, cfds, &enc),
                    Detect(loaded.relation, cfds, &adopted));
}

TEST(WalTest, TornTailIsDroppedCorruptMiddleIsNot) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  const std::string path = TempPath("wal_torn.sdq");
  EncodedRelation enc(&rel);
  ASSERT_OK_AND_ASSIGN(SnapshotStats stats, SnapshotWriter::Write(rel, enc, path));
  const std::string wal_path = WalPathFor(path);
  {
    ASSERT_OK_AND_ASSIGN(
        WalWriter wal, WalWriter::OpenExisting(wal_path, stats.manifest_checksum));
    ASSERT_OK(wal.AppendInsert(rel.row(0)));
    ASSERT_OK(wal.AppendInsert(rel.row(1)));
  }
  ASSERT_OK_AND_ASSIGN(std::string wal_bytes, common::ReadFileToString(wal_path));

  // A torn final record (half a frame) is a crash artifact: dropped.
  {
    Relation target = semandaq::testing::PaperCustomerRelation();
    ASSERT_OK(common::WriteStringToFile(wal_path, wal_bytes + "\x05\x00"));
    ASSERT_OK_AND_ASSIGN(
        size_t replayed, ReplayWal(wal_path, stats.manifest_checksum, &target));
    EXPECT_EQ(replayed, 2u);
  }

  // A checksum break before the tail is corruption: the load must fail.
  {
    Relation target = semandaq::testing::PaperCustomerRelation();
    std::string corrupt = wal_bytes;
    corrupt[32 + 12 + 3] ^= 0x20;  // inside the first record's payload
    ASSERT_OK(common::WriteStringToFile(wal_path, corrupt));
    auto r = ReplayWal(wal_path, stats.manifest_checksum, &target);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("checksum mismatch"), std::string::npos);
  }

  // OpenExisting truncates a torn tail so appends restart on a boundary.
  {
    ASSERT_OK(common::WriteStringToFile(wal_path, wal_bytes + "\x05\x00"));
    ASSERT_OK_AND_ASSIGN(
        WalWriter wal, WalWriter::OpenExisting(wal_path, stats.manifest_checksum));
    ASSERT_OK(wal.AppendInsert(rel.row(2)));
    Relation target = semandaq::testing::PaperCustomerRelation();
    ASSERT_OK_AND_ASSIGN(
        size_t replayed, ReplayWal(wal_path, stats.manifest_checksum, &target));
    EXPECT_EQ(replayed, 3u);
  }
}

TEST(WalTest, StampMismatchRejected) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  const std::string path = TempPath("wal_stamp.sdq");
  const EncodedRelation enc(&rel);
  ASSERT_OK_AND_ASSIGN(SnapshotStats stats, SnapshotWriter::Write(rel, enc, path));

  // Appending under a foreign stamp is never allowed, even while empty.
  EXPECT_FALSE(
      WalWriter::OpenExisting(WalPathFor(path), stats.manifest_checksum + 1).ok());

  // Replaying an *empty* foreign-stamped sidecar is the benign crash
  // artifact of the two-rename publish: treated as an empty tail.
  Relation target = semandaq::testing::PaperCustomerRelation();
  ASSERT_OK_AND_ASSIGN(
      size_t replayed,
      ReplayWal(WalPathFor(path), stats.manifest_checksum + 1, &target));
  EXPECT_EQ(replayed, 0u);

  // With records in it, a foreign stamp is a real mismatch: refuse.
  {
    ASSERT_OK_AND_ASSIGN(
        WalWriter wal,
        WalWriter::OpenExisting(WalPathFor(path), stats.manifest_checksum));
    ASSERT_OK(wal.AppendInsert(rel.row(0)));
  }
  auto r = ReplayWal(WalPathFor(path), stats.manifest_checksum + 1, &target);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("stamp mismatch"), std::string::npos);
}

TEST(WalTest, MissingSidecarIsAnEmptyTail) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  ASSERT_OK_AND_ASSIGN(
      size_t replayed,
      ReplayWal(TempPath("never_written.wal"), 123, &rel));
  EXPECT_EQ(replayed, 0u);
}

// ------------------------------------------------------------ facade wiring

TEST(SemandaqStorageTest, SaveOpenDetectMatchesInMemory) {
  const std::string path = TempPath("facade.sdq");
  core::Semandaq sys;
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
  ASSERT_OK(sys.constraints().AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(auto saved, sys.SaveRelation("customer", path));
  EXPECT_EQ(saved.live_rows, 7u);
  // Saving warms the facade's snapshot for subsequent detections.
  ASSERT_NE(sys.WarmSnapshot("customer"), nullptr);

  ASSERT_OK_AND_ASSIGN(auto opened, sys.OpenRelation("customer2", path));
  EXPECT_EQ(opened.live_rows, 7u);
  EXPECT_EQ(opened.wal_records, 0u);
  ASSERT_NE(sys.WarmSnapshot("customer2"), nullptr);

  ASSERT_OK(sys.constraints().AddCfdsFromText(
      "customer2: [CNT=UK, ZIP=_] -> [STR=_]\n"
      "customer2: [CC=44] -> [CNT=UK]\n"));
  ASSERT_OK_AND_ASSIGN(auto original, sys.DetectErrors("customer"));
  ASSERT_OK_AND_ASSIGN(auto reloaded, sys.DetectErrors("customer2"));
  ExpectTablesEqual(original, reloaded);

  // A taken name or a missing file must fail without side effects.
  EXPECT_FALSE(sys.OpenRelation("customer", path).ok());
  EXPECT_FALSE(sys.OpenRelation("nope", TempPath("missing.sdq")).ok());
  EXPECT_EQ(sys.WarmSnapshot("nope"), nullptr);
}

TEST(SemandaqStorageTest, WarmSnapshotSurvivesRepairCycle) {
  const std::string path = TempPath("facade_repair.sdq");
  core::Semandaq sys;
  ASSERT_OK(sys.Connect(semandaq::testing::PaperCustomerRelation()));
  ASSERT_OK(sys.constraints().AddCfdsFromText(semandaq::testing::PaperCfdText()));
  ASSERT_OK_AND_ASSIGN(auto saved, sys.SaveRelation("customer", path));
  (void)saved;

  // Repairs overwrite cells in place; the warm snapshot must resync (full
  // rebuild) rather than serve stale codes: the warm detection must match a
  // cold re-encode of the repaired relation exactly.
  ASSERT_OK_AND_ASSIGN(auto repair, sys.Clean("customer"));
  ASSERT_OK(sys.ApplyRepair("customer", repair));
  ASSERT_OK_AND_ASSIGN(auto warm_detect, sys.DetectErrors("customer"));
  const Relation* rel = sys.database().FindRelation("customer");
  ASSERT_NE(rel, nullptr);
  ExpectTablesEqual(Detect(*rel, Parse(semandaq::testing::PaperCfdText())),
                    warm_detect);
}

// ----------------------------------------------------------------- adoption

/// A saved-and-reopened customer workload with tombstones, so the file
/// holds dictionary codes only dead tuples used (a fresh encode of the live
/// rows would not issue them).
LoadedSnapshot OpenedCustomer(const std::string& tag) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 400;
  opts.noise_rate = 0.05;
  auto wl = workload::CustomerGenerator::Generate(opts);
  for (TupleId tid = 0; tid < wl.dirty.IdBound(); tid += 9) {
    EXPECT_OK(wl.dirty.Delete(tid));
  }
  const std::string path = TempPath("adopt_" + tag + ".sdq");
  const EncodedRelation enc(&wl.dirty);
  EXPECT_OK(SnapshotWriter::Write(wl.dirty, enc, path).status());
  auto loaded = SnapshotReader::Read(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(*loaded);
}

/// Every code and dictionary value of an encoded snapshot.
std::pair<std::vector<std::vector<Code>>, std::vector<std::vector<Value>>>
CodeImage(const EncodedRelation& enc) {
  std::pair<std::vector<std::vector<Code>>, std::vector<std::vector<Value>>> out;
  for (size_t c = 0; c < enc.num_columns(); ++c) {
    out.first.emplace_back(enc.column(c).begin(), enc.column(c).end());
    out.second.push_back(enc.dictionary(c).values());
  }
  return out;
}

TEST(AdoptionTest, OpenedRelationEpochAndCloneShareTheirChunks) {
  LoadedSnapshot loaded = OpenedCustomer("share");
  const Relation& rel = loaded.relation;
  ASSERT_TRUE(rel.has_columns());
  const EncodedRelation opened(&rel);
  ASSERT_TRUE(opened.InSync());

  const server::SnapshotPtr epoch = server::BuildRelationSnapshot(rel, opened, 1);
  const EncodedRelation on_epoch(&epoch->relation);
  const Relation clone = epoch->relation.Clone();
  ASSERT_TRUE(clone.has_columns());
  const EncodedRelation on_clone(&clone);
  for (size_t c = 0; c < rel.schema().size(); ++c) {
    const Code* chunk = rel.columns()[c].data();
    EXPECT_EQ(opened.column(c).data(), chunk) << "column " << c;
    EXPECT_EQ(epoch->encoded->column(c).data(), chunk) << "column " << c;
    EXPECT_EQ(on_epoch.column(c).data(), chunk) << "column " << c;
    EXPECT_EQ(on_clone.column(c).data(), chunk) << "column " << c;
    EXPECT_EQ(&on_clone.dictionary(c), &opened.dictionary(c)) << "column " << c;
  }
  // Adoption never hydrates: the rows decode from the same chunks later.
  EXPECT_EQ(clone.row(1), rel.row(1));
}

TEST(AdoptionTest, MutatedRelationReencodes) {
  LoadedSnapshot loaded = OpenedCustomer("mutate");
  const Relation& rel = loaded.relation;
  const auto cfds = Parse(workload::CustomerGenerator::PaperCfds());

  Relation rewritten = rel.Clone();
  ASSERT_OK(rewritten.SetCell(1, 0, Value::String("rewritten")));
  EXPECT_FALSE(rewritten.has_columns());
  EXPECT_TRUE(rewritten.columns().empty());  // mutated and hydrated: dropped
  Relation appended = rel.Clone();
  appended.MustInsert(rel.row(1));
  EXPECT_FALSE(appended.has_columns());

  for (const Relation* mutated : {&rewritten, &appended}) {
    const EncodedRelation enc(mutated);
    EXPECT_TRUE(enc.InSync());
    for (size_t c = 0; c < rel.schema().size(); ++c) {
      EXPECT_NE(enc.column(c).data(), rel.columns()[c].data()) << "column " << c;
    }
    EXPECT_EQ(enc.Decode(0, enc.code(1, 0)), mutated->cell(1, 0));
    // The re-encode detects exactly what a row-built copy does.
    Relation rows{mutated->name(), mutated->schema()};
    for (TupleId tid = 0; tid < mutated->IdBound(); ++tid) {
      rows.MustInsert(mutated->IsLive(tid) ? mutated->row(tid) : rel.row(1));
    }
    for (TupleId tid = 0; tid < mutated->IdBound(); ++tid) {
      if (!mutated->IsLive(tid)) ASSERT_OK(rows.Delete(tid));
    }
    ExpectTablesEqual(Detect(rows, cfds), Detect(*mutated, cfds));
  }
}

TEST(AdoptionTest, RepairAndMiningLeaveTheEpochUntouched) {
  LoadedSnapshot loaded = OpenedCustomer("untouched");
  const EncodedRelation opened(&loaded.relation);
  const server::SnapshotPtr epoch =
      server::BuildRelationSnapshot(loaded.relation, opened, 1);
  const auto before = CodeImage(*epoch->encoded);

  repair::BatchRepair cleaner(&epoch->relation,
                              Parse(workload::CustomerGenerator::PaperCfds()),
                              repair::CostModel(epoch->relation.schema(), {}));
  ASSERT_OK_AND_ASSIGN(repair::RepairResult repair, cleaner.Run());
  EXPECT_FALSE(repair.changes.empty());
  discovery::CfdMinerOptions mine_opts;
  mine_opts.max_lhs = 2;
  discovery::CfdMiner miner(&epoch->relation, mine_opts);
  ASSERT_OK_AND_ASSIGN(std::vector<cfd::Cfd> mined, miner.Mine());
  EXPECT_FALSE(mined.empty());

  EXPECT_TRUE(epoch->relation.has_columns());
  EXPECT_EQ(CodeImage(*epoch->encoded), before);
  EXPECT_EQ(CodeImage(EncodedRelation(&epoch->relation)), before);
}

}  // namespace
}  // namespace semandaq::storage
