#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "cfd/cfd_parser.h"
#include "common/random.h"
#include "detect/incremental_detector.h"
#include "detect/native_detector.h"
#include "monitor/data_monitor.h"
#include "test_util.h"
#include "workload/customer_gen.h"

namespace semandaq::detect {
namespace {

using relational::Relation;
using relational::Row;
using relational::TupleId;
using relational::Update;
using relational::Value;

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

Row CustomerRow(const char* name, const char* cnt, const char* city,
                const char* zip, const char* str, const char* cc, const char* ac) {
  return {Value::String(name), Value::String(cnt), Value::String(city),
          Value::String(zip),  Value::String(str), Value::String(cc),
          Value::String(ac)};
}

void ExpectEquivalent(const ViolationTable& a, const ViolationTable& b,
                      const Relation& rel) {
  EXPECT_EQ(a.TotalVio(), b.TotalVio());
  EXPECT_EQ(a.NumViolatingTuples(), b.NumViolatingTuples());
  rel.ForEach([&](TupleId tid, const Row&) {
    EXPECT_EQ(a.vio(tid), b.vio(tid)) << "tuple " << tid;
  });
}

class IncrementalDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rel_ = semandaq::testing::PaperCustomerRelation();
    detector_ = std::make_unique<IncrementalDetector>(
        &rel_, Parse(semandaq::testing::PaperCfdText()));
    ASSERT_OK(detector_->Initialize());
  }

  void ExpectMatchesFullDetection() {
    NativeDetector full(&rel_, Parse(semandaq::testing::PaperCfdText()));
    auto table = full.Detect();
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ExpectEquivalent(detector_->Snapshot(), *table, rel_);
  }

  Relation rel_;
  std::unique_ptr<IncrementalDetector> detector_;
};

TEST_F(IncrementalDetectorTest, InitialSnapshotMatchesFullDetection) {
  ExpectMatchesFullDetection();
  EXPECT_FALSE(detector_->Clean());
}

TEST_F(IncrementalDetectorTest, RequiresInitialize) {
  Relation rel = semandaq::testing::PaperCustomerRelation();
  IncrementalDetector d(&rel, Parse(semandaq::testing::PaperCfdText()));
  EXPECT_FALSE(d.ApplyAndDetect({}).ok());
}

TEST_F(IncrementalDetectorTest, InsertCreatesViolations) {
  // A fourth tuple in the EH2 4SD group with yet another street.
  std::vector<TupleId> inserted;
  ASSERT_OK(detector_->ApplyAndDetect(
      {Update::Insert(CustomerRow("New", "UK", "Edinburgh", "EH2 4SD", "Third St",
                                  "44", "131"))},
      &inserted));
  ASSERT_EQ(inserted.size(), 1u);
  EXPECT_EQ(detector_->Vio(inserted[0]), 3);  // disagrees with all three
  ExpectMatchesFullDetection();
}

TEST_F(IncrementalDetectorTest, InsertCleanTupleNoViolations) {
  std::vector<TupleId> inserted;
  ASSERT_OK(detector_->ApplyAndDetect(
      {Update::Insert(CustomerRow("Ok", "NL", "Utrecht", "3512", "Dom", "31",
                                  "30"))},
      &inserted));
  EXPECT_EQ(detector_->Vio(inserted[0]), 0);
  ExpectMatchesFullDetection();
}

TEST_F(IncrementalDetectorTest, DeleteResolvesGroup) {
  // Removing Rick (the odd street) resolves the multi-tuple violation.
  ASSERT_OK(detector_->ApplyAndDetect({Update::DeleteTuple(1)}));
  EXPECT_EQ(detector_->Vio(0), 0);
  EXPECT_EQ(detector_->Vio(2), 0);
  ExpectMatchesFullDetection();
}

TEST_F(IncrementalDetectorTest, ModifyFixesSingleViolation) {
  // Fixing Eve's CNT to UK resolves the constant CFD violation.
  ASSERT_OK(detector_->ApplyAndDetect({Update::Modify(6, 1, Value::String("UK"))}));
  EXPECT_EQ(detector_->Vio(6), 0);
  ExpectMatchesFullDetection();
}

TEST_F(IncrementalDetectorTest, ModifyCreatesSingleViolation) {
  // Bob's CC becomes 44 while CNT stays US.
  ASSERT_OK(detector_->ApplyAndDetect({Update::Modify(5, 5, Value::String("44"))}));
  EXPECT_EQ(detector_->Vio(5), 1);
  ExpectMatchesFullDetection();
}

TEST_F(IncrementalDetectorTest, ModifyMovesTupleBetweenGroups) {
  // Mary moves into the EH2 4SD zip with her own street: group grows to 4.
  ASSERT_OK(detector_->ApplyAndDetect({Update::Modify(3, 3,
                                                      Value::String("EH2 4SD"))}));
  EXPECT_GT(detector_->Vio(3), 0);
  ExpectMatchesFullDetection();
  // And back out again.
  ASSERT_OK(detector_->ApplyAndDetect({Update::Modify(3, 3,
                                                      Value::String("EH8 9LE"))}));
  EXPECT_EQ(detector_->Vio(3), 0);
  ExpectMatchesFullDetection();
}

TEST_F(IncrementalDetectorTest, CleanTransition) {
  // Fix everything: align streets and Eve's country.
  ASSERT_OK(detector_->ApplyAndDetect({
      Update::Modify(1, 4, Value::String("Mayfield Rd")),
      Update::Modify(6, 1, Value::String("UK")),
  }));
  EXPECT_TRUE(detector_->Clean());
  EXPECT_EQ(detector_->Snapshot().TotalVio(), 0);
  ExpectMatchesFullDetection();
}

TEST_F(IncrementalDetectorTest, MixedBatchKeepsStateConsistent) {
  std::vector<TupleId> inserted;
  ASSERT_OK(detector_->ApplyAndDetect(
      {
          Update::Insert(CustomerRow("X1", "UK", "Edinburgh", "EH2 4SD",
                                     "Mayfield Rd", "44", "131")),
          Update::DeleteTuple(0),
          Update::Modify(2, 4, Value::String("Crichton St")),
          Update::Insert(CustomerRow("X2", "US", "NewYork", "10011", "5th Ave",
                                     "44", "212")),
      },
      &inserted));
  EXPECT_EQ(inserted.size(), 2u);
  ExpectMatchesFullDetection();
}

TEST_F(IncrementalDetectorTest, ErrorsOnDeadTuples) {
  ASSERT_OK(detector_->ApplyAndDetect({Update::DeleteTuple(0)}));
  EXPECT_FALSE(detector_->ApplyAndDetect({Update::DeleteTuple(0)}).ok());
  EXPECT_FALSE(
      detector_->ApplyAndDetect({Update::Modify(0, 1, Value::String("x"))}).ok());
}

TEST_F(IncrementalDetectorTest, ErrorsOnUnknownColumnWithoutDrifting) {
  // The shared pre-flight validation (relational::ValidateUpdate) must
  // reject the modify before LeaveTuple runs, leaving both the relation and
  // the detector state exactly as they were.
  const uint64_t version_before = rel_.version();
  const auto st = detector_->ApplyAndDetect(
      {Update::Modify(0, rel_.schema().size(), Value::String("x"))});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::StatusCode::kOutOfRange);
  EXPECT_EQ(rel_.version(), version_before);
  // The tuple is still registered: follow-up updates and snapshots agree
  // with a from-scratch detection.
  ExpectMatchesFullDetection();
  ASSERT_OK(detector_->ApplyAndDetect({Update::Modify(0, 4,
                                                      Value::String("Crichton St"))}));
  ExpectMatchesFullDetection();

  // An arity-mismatched insert is rejected by the same helper.
  EXPECT_FALSE(detector_->ApplyAndDetect({Update::Insert({Value::String("x")})}).ok());
  ExpectMatchesFullDetection();
}

// Pattern constants that no tuple holds at Initialize compile to codes the
// relation reserves for them, so tuples inserted (or rewritten) later with
// those values match the pattern: as LHS constant and as RHS constant.
TEST(IncrementalDetectorLateConstantTest, ConstantAbsentAtInitializeMatchesLater) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"CC", "CNT"}, {{"44", "UK"}, {"1", "US"}});
  const auto cfds = Parse("t: [CC] -> [CNT] { (33 | FR), (49 | DE) }");
  IncrementalDetector det(&rel, cfds);
  ASSERT_OK(det.Initialize());
  EXPECT_TRUE(det.Clean());
  std::vector<TupleId> inserted;
  // "33" is absent from CC and "FR" from CNT: a tuple (33, BE) violates.
  auto row = [](const char* cc, const char* cnt) {
    return Row{Value::String(cc), Value::String(cnt)};
  };
  ASSERT_OK(det.ApplyAndDetect({Update::Insert(row("33", "BE")),
                                Update::Insert(row("33", "FR")),
                                Update::Insert(row("49", "DE"))},
                               &inserted));
  ASSERT_EQ(inserted.size(), 3u);
  EXPECT_EQ(det.SinglesOf(inserted[0]).size(), 1u);
  EXPECT_TRUE(det.SinglesOf(inserted[1]).empty());
  EXPECT_TRUE(det.SinglesOf(inserted[2]).empty());
  // A rewrite into the late constant matches too.
  ASSERT_OK(det.ApplyAndDetect({Update::Modify(1, 0, Value::String("49"))}));
  EXPECT_EQ(det.SinglesOf(1).size(), 1u);
  NativeDetector full(&rel, cfds);
  ASSERT_OK_AND_ASSIGN(ViolationTable table, full.Detect());
  EXPECT_EQ(table.NumViolatingTuples(), 2u);
  ExpectEquivalent(det.Snapshot(), table, rel);
}

TEST_F(IncrementalDetectorTest, TracksWorkMeasure) {
  const size_t before = detector_->buckets_touched();
  ASSERT_OK(detector_->ApplyAndDetect({Update::Modify(6, 1, Value::String("UK"))}));
  EXPECT_GE(detector_->buckets_touched(), before);
}

// ---------------------------------------------------------------------------
// Initialize()'s bulk bucket build runs in SIMD kernel blocks; the bucket
// state it produces must be byte-identical on every tier — same singles in
// the same order, same groups in the same order, same work measure — both
// right after Initialize and after incremental updates layered on top.

/// Exact (order-sensitive) equality of two snapshots.
void ExpectExactlyEqual(const ViolationTable& a, const ViolationTable& b) {
  ASSERT_EQ(a.singles().size(), b.singles().size());
  for (size_t i = 0; i < a.singles().size(); ++i) {
    EXPECT_EQ(a.singles()[i].tid, b.singles()[i].tid) << "single " << i;
    EXPECT_EQ(a.singles()[i].cfd_index, b.singles()[i].cfd_index) << i;
    EXPECT_EQ(a.singles()[i].pattern_index, b.singles()[i].pattern_index) << i;
  }
  ASSERT_EQ(a.groups().size(), b.groups().size());
  for (size_t i = 0; i < a.groups().size(); ++i) {
    EXPECT_EQ(a.groups()[i].fd_group, b.groups()[i].fd_group) << "group " << i;
    EXPECT_EQ(a.groups()[i].cfd_index, b.groups()[i].cfd_index) << i;
    EXPECT_EQ(a.groups()[i].lhs_key, b.groups()[i].lhs_key) << i;
    EXPECT_EQ(a.groups()[i].members, b.groups()[i].members) << i;
    EXPECT_EQ(a.groups()[i].member_partners, b.groups()[i].member_partners) << i;
  }
}

TEST(IncrementalDetectorSimdTest, BucketStateIdenticalAcrossTiers) {
  namespace simd = common::simd;
  const simd::Level kLevels[] = {simd::Level::kScalar, simd::Level::kSse2,
                                 simd::Level::kAvx2};
  const relational::UpdateBatch batch = {
      Update::Insert(CustomerRow("Zed", "UK", "Edinburgh", "EH2 4SD",
                                 "George Sq", "44", "131")),
      Update::Modify(1, 4, Value::String("Mayfield Rd")),
      Update::DeleteTuple(3),
  };

  // Scalar floor is the reference; each tier gets its own relation copy
  // (the detector applies updates through the relation it owns).
  Relation scalar_rel = semandaq::testing::PaperCustomerRelation();
  IncrementalDetector scalar_det(&scalar_rel,
                                 Parse(semandaq::testing::PaperCfdText()),
                                 simd::Level::kScalar);
  ASSERT_OK(scalar_det.Initialize());
  const ViolationTable scalar_initial = scalar_det.Snapshot();
  const size_t scalar_touched = scalar_det.buckets_touched();
  ASSERT_OK(scalar_det.ApplyAndDetect(batch));
  const ViolationTable scalar_updated = scalar_det.Snapshot();

  for (simd::Level level : kLevels) {
    SCOPED_TRACE(std::string("level=") + std::string(simd::LevelName(level)));
    Relation rel = semandaq::testing::PaperCustomerRelation();
    IncrementalDetector det(&rel, Parse(semandaq::testing::PaperCfdText()),
                            level);
    ASSERT_OK(det.Initialize());
    EXPECT_EQ(scalar_touched, det.buckets_touched());
    ExpectExactlyEqual(scalar_initial, det.Snapshot());
    ASSERT_OK(det.ApplyAndDetect(batch));
    ExpectExactlyEqual(scalar_updated, det.Snapshot());
  }
}

TEST(IncrementalDetectorSimdTest, BulkBuildMatchesAcrossTiersOnGenerated) {
  namespace simd = common::simd;
  // A bigger instance with tombstones and NULLs: the generator's dirty
  // customer data plus a deleted stripe, so the kernel-block liveness and
  // non-NULL masks all carry real holes.
  auto make = [] {
    workload::CustomerWorkloadOptions opts;
    opts.num_tuples = 500;
    opts.noise_rate = 0.1;
    opts.seed = 31;
    auto wl = workload::CustomerGenerator::Generate(opts);
    Relation rel = std::move(wl.dirty);
    for (TupleId tid = 0; tid < rel.IdBound(); ++tid) {
      if (tid % 7 == 3) EXPECT_OK(rel.Delete(tid));
    }
    return rel;
  };
  const char* cfds =
      "customer: [CNT=UK, ZIP=_] -> [STR=_]\n"
      "customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }\n"
      "customer: [CNT=_, CITY=_, ZIP=_] -> [AC=_]\n";

  Relation scalar_rel = make();
  IncrementalDetector scalar_det(&scalar_rel, Parse(cfds),
                                 simd::Level::kScalar);
  ASSERT_OK(scalar_det.Initialize());
  const ViolationTable reference = scalar_det.Snapshot();
  const size_t touched = scalar_det.buckets_touched();

  for (simd::Level level : {simd::Level::kSse2, simd::Level::kAvx2}) {
    SCOPED_TRACE(std::string("level=") + std::string(simd::LevelName(level)));
    Relation rel = make();
    IncrementalDetector det(&rel, Parse(cfds), level);
    ASSERT_OK(det.Initialize());
    EXPECT_EQ(touched, det.buckets_touched());
    ExpectExactlyEqual(reference, det.Snapshot());
  }
}

// ---------------------------------------------------------------------------
// A relation copy shares every code chunk and dictionary with its source
// until a write detaches them. The detector's scan reads raw column and
// liveness pointers, so one left stale by a detach would still read the
// source's live chunk — memory that is valid, so ASan cannot see it. This
// test can: it writes into shared chunks and compares with a fresh scan.

/// Everything a relation's readers see: codes, dictionaries, liveness.
struct StorageCapture {
  std::vector<std::vector<relational::Code>> codes;
  std::vector<std::vector<Value>> dictionaries;
  std::vector<uint8_t> live;

  explicit StorageCapture(const Relation& rel)
      : live(rel.live_data(), rel.live_data() + rel.IdBound()) {
    for (const auto& col : rel.columns()) codes.emplace_back(col.begin(), col.end());
    for (const auto& dict : rel.dictionaries()) dictionaries.push_back(dict->values());
  }
  bool operator==(const StorageCapture& o) const {
    return codes == o.codes && dictionaries == o.dictionaries && live == o.live;
  }
};

/// Singles and groups as sets, and vio per live tuple.
void ExpectSameViolations(const ViolationTable& got, const ViolationTable& want,
                          const Relation& rel) {
  ExpectEquivalent(got, want, rel);
  using Single = std::tuple<TupleId, int, int>;
  const auto singles = [](const ViolationTable& t) {
    std::vector<Single> out;
    for (const SingleViolation& s : t.singles()) {
      out.emplace_back(s.tid, s.cfd_index, s.pattern_index);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto groups = [](const ViolationTable& t) {
    std::vector<std::pair<int, std::vector<TupleId>>> out;
    for (const ViolationGroup& g : t.groups()) {
      std::vector<TupleId> members = g.members;
      std::sort(members.begin(), members.end());
      out.emplace_back(g.fd_group, std::move(members));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(singles(got), singles(want));
  EXPECT_EQ(groups(got), groups(want));
}

/// A batch of inserts, cell rewrites and deletes over `rel`'s live tuples.
/// Written values come from other tuples, from `constants` (values the
/// source lacks) or are NULL.
relational::UpdateBatch RandomBatch(common::Rng* rng, const Relation& rel,
                                    const std::vector<std::pair<size_t, Value>>& constants) {
  const std::vector<TupleId> live = rel.LiveIds();
  const auto any_tid = [&] { return live[rng->NextIndex(live.size())]; };
  const auto value_for = [&](size_t col) {
    const uint64_t pick = rng->NextBelow(8);
    if (pick == 0) return Value::Null();
    if (pick == 1) {
      const auto& [c, v] = constants[rng->NextIndex(constants.size())];
      if (c == col) return v;
    }
    return rel.cell(any_tid(), col);
  };
  relational::UpdateBatch batch;
  std::vector<TupleId> deleted;
  for (int i = 0; i < 12; ++i) {
    const TupleId tid = any_tid();
    if (std::find(deleted.begin(), deleted.end(), tid) != deleted.end()) continue;
    const size_t col = 1 + rng->NextIndex(rel.schema().size() - 1);
    switch (rng->NextBelow(4)) {
      case 0: {
        Row row = rel.row(tid);
        row[col] = value_for(col);
        batch.push_back(Update::Insert(std::move(row)));
        break;
      }
      case 1:
        batch.push_back(Update::DeleteTuple(tid));
        deleted.push_back(tid);
        break;
      default:
        batch.push_back(Update::Modify(tid, col, value_for(col)));
        break;
    }
  }
  return batch;
}

TEST(IncrementalDetectorCopyTest, ReadsOnlyItsOwnColumns) {
  using workload::CustomerGenerator;
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 3000;  // spans kernel blocks
  opts.noise_rate = 0.05;
  opts.seed = 5;
  auto wl = CustomerGenerator::Generate(opts);
  // Constants the source lacks: interning them detaches the copy's
  // dictionaries, and rewrites into them must match.
  const std::string sigma = CustomerGenerator::PaperCfds() +
                            "customer: [CC] -> [CNT] { (33 | FR) }\n"
                            "customer: [CNT=FR, ZIP=_] -> [CITY=_]\n";
  const std::vector<std::pair<size_t, Value>> constants = {
      {CustomerGenerator::kCc, Value::String("33")},
      {CustomerGenerator::kCnt, Value::String("FR")}};

  // The detector alone, over a dirty copy.
  {
    const Relation source = std::move(wl.dirty);
    const StorageCapture before(source);
    Relation copy = source;
    IncrementalDetector det(&copy, Parse(sigma));
    ASSERT_OK(det.Initialize());
    common::Rng rng(17);
    for (int b = 0; b < 8; ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      ASSERT_OK(det.ApplyAndDetect(RandomBatch(&rng, copy, constants)));
      ASSERT_OK_AND_ASSIGN(ViolationTable want,
                           NativeDetector(&copy, Parse(sigma)).Detect());
      ExpectSameViolations(det.Snapshot(), want, copy);
      for (TupleId tid = 0; tid < copy.IdBound(); ++tid) {
        EXPECT_EQ(det.Vio(tid), want.vio(tid)) << "tuple " << tid;
      }
      EXPECT_TRUE(StorageCapture(source) == before) << "the source changed";
    }
  }

  // A cleansed monitor, whose repair engine runs its own detector, over a
  // copy of the clean relation.
  {
    const Relation source = std::move(wl.clean);
    const StorageCapture before(source);
    Relation copy = source;
    monitor::DataMonitor mon(&copy, Parse(sigma), repair::CostModel(copy.schema()));
    ASSERT_OK(mon.Start());
    mon.MarkCleansed();
    common::Rng rng(23);
    for (int b = 0; b < 8; ++b) {
      SCOPED_TRACE("cleansed batch " + std::to_string(b));
      ASSERT_OK(mon.OnUpdate(RandomBatch(&rng, copy, constants)).status());
      ASSERT_OK_AND_ASSIGN(ViolationTable want,
                           NativeDetector(&copy, Parse(sigma)).Detect());
      ExpectSameViolations(mon.Violations(), want, copy);
      EXPECT_TRUE(StorageCapture(source) == before) << "the source changed";
    }
  }
}

}  // namespace
}  // namespace semandaq::detect
