#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "detect/incremental_detector.h"
#include "detect/native_detector.h"
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

}  // namespace
}  // namespace semandaq::detect
