// End-to-end SIMD/scalar equivalence: DetectErrors output and Partition
// contents must be *byte-identical* — same violations in the same order,
// same classes in the same order — across every kernel tier
// (DetectorOptions::simd_level = scalar/SSE2/AVX2), over the same
// relation sweep the snapshot tests use: paper customer,
// generated customer/hospital (with tombstones), empty, NULL-heavy,
// unicode, and typed relations. This is the tentpole's correctness gate:
// vectorization must never be observable in the output.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/cfd_parser.h"
#include "cfd_oracle.h"
#include "common/simd/simd.h"
#include "detect/native_detector.h"
#include "discovery/partition.h"
#include "relational/encoded_relation.h"
#include "test_util.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::detect {
namespace {

namespace simd = common::simd;
using discovery::Partition;
using relational::EncodedRelation;
using relational::Relation;
using relational::TupleId;

const simd::Level kLevels[] = {simd::Level::kScalar, simd::Level::kSse2,
                               simd::Level::kAvx2};

std::vector<cfd::Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<cfd::Cfd>{};
}

ViolationTable DetectWith(const Relation& rel, const std::vector<cfd::Cfd>& cfds,
                          simd::Level level) {
  DetectorOptions options;
  options.simd_level = level;
  NativeDetector detector(&rel, cfds, options);
  auto table = detector.Detect();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? std::move(*table) : ViolationTable{};
}

/// Exact (order-sensitive) equality of two violation tables.
void ExpectExactlyEqual(const ViolationTable& a, const ViolationTable& b,
                        const Relation& rel) {
  EXPECT_EQ(a.TotalVio(), b.TotalVio());
  EXPECT_EQ(a.NumViolatingTuples(), b.NumViolatingTuples());
  for (TupleId tid = 0; tid < rel.IdBound(); ++tid) {
    ASSERT_EQ(a.vio(tid), b.vio(tid)) << "vio mismatch at " << tid;
  }
  ASSERT_EQ(a.singles().size(), b.singles().size());
  for (size_t i = 0; i < a.singles().size(); ++i) {
    ASSERT_EQ(a.singles()[i].tid, b.singles()[i].tid) << "single " << i;
    ASSERT_EQ(a.singles()[i].cfd_index, b.singles()[i].cfd_index) << i;
    ASSERT_EQ(a.singles()[i].pattern_index, b.singles()[i].pattern_index) << i;
  }
  ASSERT_EQ(a.groups().size(), b.groups().size());
  for (size_t i = 0; i < a.groups().size(); ++i) {
    const ViolationGroup& ga = a.groups()[i];
    const ViolationGroup& gb = b.groups()[i];
    ASSERT_EQ(ga.fd_group, gb.fd_group) << "group " << i;
    ASSERT_EQ(ga.cfd_index, gb.cfd_index) << "group " << i;
    ASSERT_EQ(ga.lhs_key.size(), gb.lhs_key.size()) << "group " << i;
    for (size_t k = 0; k < ga.lhs_key.size(); ++k) {
      ASSERT_EQ(ga.lhs_key[k], gb.lhs_key[k]) << "group " << i;
    }
    ASSERT_EQ(ga.members.size(), gb.members.size()) << "group " << i;
    for (size_t k = 0; k < ga.members.size(); ++k) {
      ASSERT_EQ(ga.members[k], gb.members[k]) << "group " << i;
      ASSERT_EQ(ga.member_partners[k], gb.member_partners[k]) << "group " << i;
    }
  }
}

/// The core property: for every kernel tier, the table equals the scalar
/// reference exactly.
void ExpectTierInvariant(const Relation& rel, const std::string& cfd_text) {
  const std::vector<cfd::Cfd> cfds = Parse(cfd_text);
  const ViolationTable reference = DetectWith(rel, cfds, simd::Level::kScalar);
  for (const simd::Level level : kLevels) {
    SCOPED_TRACE(std::string("level=") + std::string(simd::LevelName(level)));
    ExpectExactlyEqual(reference, DetectWith(rel, cfds, level), rel);
  }
}

TEST(SimdEquivalenceTest, PaperCustomer) {
  ExpectTierInvariant(semandaq::testing::PaperCustomerRelation(),
                      semandaq::testing::PaperCfdText());
}

TEST(SimdEquivalenceTest, GeneratedWorkloadsWithTombstones) {
  for (const uint64_t seed : {1u, 7u, 42u}) {
    workload::CustomerWorkloadOptions copts;
    copts.num_tuples = 500;
    copts.noise_rate = 0.08;
    copts.seed = seed;
    auto cwl = workload::CustomerGenerator::Generate(copts);
    for (TupleId tid = 0; tid < cwl.dirty.IdBound(); ++tid) {
      if (tid % 7 == 3) ASSERT_OK(cwl.dirty.Delete(tid));
    }
    SCOPED_TRACE("customer seed=" + std::to_string(seed));
    ExpectTierInvariant(cwl.dirty, workload::CustomerGenerator::PaperCfds());

    workload::HospitalWorkloadOptions hopts;
    hopts.num_tuples = 300;
    hopts.noise_rate = 0.1;
    hopts.seed = seed;
    auto hwl = workload::HospitalGenerator::Generate(hopts);
    SCOPED_TRACE("hospital seed=" + std::to_string(seed));
    ExpectTierInvariant(hwl.dirty, workload::HospitalGenerator::HospitalCfds());
  }
}

TEST(SimdEquivalenceTest, EmptyRelation) {
  Relation rel("empty", relational::Schema::AllStrings({"A", "B", "C"}));
  ExpectTierInvariant(rel, "empty: [A] -> [B]\nempty: [A=x] -> [B=y]");
}

TEST(SimdEquivalenceTest, NullHeavy) {
  auto rel = semandaq::testing::MakeStringRelation(
      "nullish", {"A", "B", "C"},
      {
          {"", "", ""},
          {"x", "", "1"},
          {"", "y", ""},
          {"x", "", "2"},
          {"", "", ""},
          {"x", "y", ""},
          {"x", "y", "3"},
          {"x", "y", "4"},
      });
  ExpectTierInvariant(rel, "nullish: [A] -> [C]\n"
                           "nullish: [A, B] -> [C]\n"
                           "nullish: [A=x] -> [C=1]");
}

TEST(SimdEquivalenceTest, Unicode) {
  auto rel = semandaq::testing::MakeStringRelation(
      "unicode", {"CITY", "NOTE"},
      {
          {"Z\xC3\xBCrich", "caf\xC3\xA9"},
          {"Z\xC3\xBCrich", "na\xC3\xAFve"},
          {"\xE6\x9D\xB1\xE4\xBA\xAC", "\xF0\x9F\x9A\x80"},
          {"M\xC3\xBCnchen", ""},
      });
  ExpectTierInvariant(rel, "unicode: [CITY] -> [NOTE]");
}

TEST(SimdEquivalenceTest, TypedValues) {
  relational::Schema schema({{"NAME", relational::DataType::kString, {}},
                             {"N", relational::DataType::kInt, {}},
                             {"X", relational::DataType::kDouble, {}}});
  Relation rel("typed", schema);
  using relational::Value;
  rel.MustInsert({Value::String("a"), Value::Int(42), Value::Double(2.5)});
  rel.MustInsert({Value::String("b"), Value::Int(-7), Value::Double(-0.125)});
  rel.MustInsert({Value::Null(), Value::Null(), Value::Null()});
  rel.MustInsert({Value::String("a"), Value::Int(42), Value::Double(3.75)});
  ExpectTierInvariant(rel, "typed: [NAME, N] -> [X]");
}

/// Wide (> 2 column) LHS keys take the CodeVec hash path of the scan;
/// exercise it across tiers too.
TEST(SimdEquivalenceTest, WideLhsKeys) {
  auto wl = workload::CustomerGenerator::Generate({});
  ExpectTierInvariant(wl.dirty, "customer: [CNT, CITY, ZIP] -> [STR]");
}

/// Partition contents must be identical across tiers as well (class ids,
/// members, coverage) — the discovery-side half of the equivalence gate.
TEST(SimdEquivalenceTest, PartitionBuildTierInvariant) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 700;
  opts.noise_rate = 0.1;
  auto wl = workload::CustomerGenerator::Generate(opts);
  for (TupleId tid = 0; tid < wl.dirty.IdBound(); ++tid) {
    if (tid % 11 == 5) ASSERT_OK(wl.dirty.Delete(tid));
  }
  const EncodedRelation enc(&wl.dirty);
  const std::vector<std::vector<size_t>> col_sets = {
      {0}, {1}, {5}, {1, 3}, {1, 2, 3}, {}};
  for (const auto& cols : col_sets) {
    const Partition want = Partition::Build(enc, cols, simd::Level::kScalar);
    // Π_X from the definition is the independent semantic reference.
    const auto classes = oracle::PartitionClasses(wl.dirty, cols);
    size_t covered = 0;
    for (const auto& cls : classes) covered += cls.size();
    for (const simd::Level level : kLevels) {
      const Partition got = Partition::Build(enc, cols, level);
      SCOPED_TRACE(std::string("level=") +
                   std::string(simd::LevelName(level)) +
                   " ncols=" + std::to_string(cols.size()));
      ASSERT_EQ(want.num_classes(), got.num_classes());
      ASSERT_EQ(want.num_tuples(), got.num_tuples());
      ASSERT_EQ(want.classes().size(), got.classes().size());
      for (size_t i = 0; i < want.classes().size(); ++i) {
        ASSERT_EQ(want.classes()[i], got.classes()[i]) << "class " << i;
      }
      for (TupleId tid = 0; tid < wl.dirty.IdBound(); ++tid) {
        ASSERT_EQ(want.ClassOf(tid), got.ClassOf(tid)) << "tid " << tid;
      }
      if (!cols.empty()) {
        ASSERT_EQ(classes.size(), got.num_classes());
        ASSERT_EQ(covered, got.num_tuples());
      }
    }
  }
}

}  // namespace
}  // namespace semandaq::detect
