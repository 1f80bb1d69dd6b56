// Every CFD engine against the definition-level oracle (cfd_oracle.h): a
// seeded random sweep of small relations and tableaux, plus a few fixed
// instances. The sweep covers
//  * NativeDetector cold, then at every SIMD tier over a warm snapshot
//    (every eighth relation has 1,100-2,600 rows);
//  * SqlDetector on the small relations whose Σ holds no NULL constant
//    (its tableau relations encode wildcards as NULL);
//  * IncrementalDetector after a random update stream;
//  * DataAuditor on the tables of those detections, on its own encoding
//    and on a column-backed copy (its kernels run at the process's tier,
//    so the scalar run of this test covers that tier);
//  * FdMiner and CfdMiner at LHS arity 1-3, support 2-4, threads {1, 4},
//    every tier;
//  * BatchRepair, whose output must satisfy the repair post-conditions —
//    also when Σ is unsatisfiable.
// A failure names the seed; rerun with it to reproduce.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/metrics.h"
#include "cfd/cfd_parser.h"
#include "cfd_oracle.h"
#include "common/random.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "detect/incremental_detector.h"
#include "detect/native_detector.h"
#include "detect/sql_detector.h"
#include "discovery/cfd_miner.h"
#include "discovery/fd_miner.h"
#include "discovery/partition.h"
#include "relational/database.h"
#include "relational/encoded_relation.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"
#include "test_util.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::oracle {
namespace {

namespace simd = common::simd;
using cfd::Cfd;
using cfd::PatternTuple;
using cfd::PatternValue;
using common::Rng;
using relational::Update;
using relational::UpdateBatch;

constexpr uint64_t kDetectSeeds = 1200;
constexpr uint64_t kMineSeeds = 600;
constexpr uint64_t kRepairSeeds = 600;

const simd::Level kTiers[] = {simd::Level::kScalar, simd::Level::kSse2,
                              simd::Level::kAvx2};
const size_t kMineThreads[] = {1, 4};

/// The 4-lane pool the parallel mining runs borrow, as a scheduler lease
/// lends one (a pool per run would spend the sweep's time on thread
/// start-up).
common::ThreadPool& SharedPool() {
  static common::ThreadPool pool(4);
  return pool;
}

// ------------------------------------------------------------- generator

/// A random relation's shape: 2-6 string columns A, B, ...; column c draws
/// from a 1-4 value domain {c0, c1, ...}, so equal values — the stuff of
/// violations and dependencies — are common.
/// Column names, domain sizes and types of a random relation. Each column
/// holds one type (string, int or double) plus NULLs, and every value the
/// sweeps draw for it (data, pattern constants, updates) has that type.
struct Shape {
  std::vector<std::string> names;
  std::vector<size_t> domain;
  std::vector<relational::DataType> types;

  Value DomainValue(size_t c, size_t i) const {
    switch (types[c]) {
      case relational::DataType::kInt:
        return Value::Int(static_cast<int64_t>(i) * 7 - 3);
      case relational::DataType::kDouble:
        return Value::Double(static_cast<double>(i) * 0.5 - 0.75);
      default:
        return Value::String(std::string(1, static_cast<char>('a' + c)) +
                             std::to_string(i));
    }
  }
  /// A value of column c's type outside its domain: `fresh` ones (updates)
  /// differ from the others (absent pattern constants).
  Value OutsideValue(size_t c, bool fresh) const {
    switch (types[c]) {
      case relational::DataType::kInt:
        return Value::Int(fresh ? 2000 : 1000);
      case relational::DataType::kDouble:
        return Value::Double(fresh ? 2000.5 : 1000.25);
      default:
        return Value::String(fresh ? "fresh" : "absent");
    }
  }
  Value RandomValue(Rng* rng, size_t c) const {
    return DomainValue(c, rng->NextIndex(domain[c]));
  }
  Row RandomRow(Rng* rng) const {
    Row row;
    for (size_t c = 0; c < names.size(); ++c) {
      row.push_back(rng->NextBool(0.12) ? Value::Null() : RandomValue(rng, c));
    }
    return row;
  }
};

/// `rows` random tuples over a random shape (~12% NULL cells; half the
/// columns string-typed, a quarter each int and double), then ~10% of them
/// deleted.
Relation RandomRelation(Rng* rng, size_t rows, Shape* shape) {
  const size_t ncols = 2 + rng->NextIndex(5);
  shape->names.clear();
  shape->domain.clear();
  shape->types.clear();
  relational::Schema schema;
  for (size_t c = 0; c < ncols; ++c) {
    shape->names.push_back(std::string(1, static_cast<char>('A' + c)));
    shape->domain.push_back(1 + rng->NextIndex(4));
    const uint64_t type_roll = rng->NextBelow(4);
    shape->types.push_back(type_roll == 0   ? relational::DataType::kInt
                           : type_roll == 1 ? relational::DataType::kDouble
                                            : relational::DataType::kString);
    EXPECT_OK(schema.AddAttribute({shape->names.back(), shape->types.back(), {}}));
  }
  Relation rel("r", std::move(schema));
  for (size_t i = 0; i < rows; ++i) rel.MustInsert(shape->RandomRow(rng));
  for (TupleId t = 0; t < rel.IdBound(); ++t) {
    if (rng->NextBool(0.10)) EXPECT_OK(rel.Delete(t));
  }
  return rel;
}

/// Rewrites two columns of `rel` with values drawn from `rng`: one becomes
/// key-like (a distinct value per tuple) and the other takes a domain of
/// about half the row count, both keeping ~12% NULL cells. Partitions on
/// them are mostly singleton classes, as on a name or id column.
void AddKeyLikeColumns(Rng* rng, Shape* shape, Relation* rel) {
  const size_t ncols = shape->names.size();
  const size_t key = rng->NextIndex(ncols);
  const size_t half = (key + 1 + rng->NextIndex(ncols - 1)) % ncols;
  const size_t bound = static_cast<size_t>(rel->IdBound());
  shape->domain[key] = std::max<size_t>(1, bound);
  shape->domain[half] = std::max<size_t>(1, bound / 2);
  for (TupleId t = 0; t < rel->IdBound(); ++t) {
    if (!rel->IsLive(t)) continue;
    const Value k = rng->NextBool(0.12)
                        ? Value::Null()
                        : shape->DomainValue(key, static_cast<size_t>(t));
    const Value h =
        rng->NextBool(0.12) ? Value::Null() : shape->RandomValue(rng, half);
    EXPECT_OK(rel->SetCell(t, key, k));
    EXPECT_OK(rel->SetCell(t, half, h));
  }
}

/// Mostly a domain value; sometimes one absent from the data, sometimes
/// NULL (legal through the API; it matches no cell).
PatternValue RandomConstant(Rng* rng, const Shape& s, size_t c) {
  const uint64_t roll = rng->NextBelow(20);
  if (roll == 0) return PatternValue::Constant(Value::Null());
  if (roll == 1) return PatternValue::Constant(s.OutsideValue(c, false));
  return PatternValue::Constant(s.RandomValue(rng, c));
}

/// 1-4 CFDs with shuffled LHS order and 1-3 tableau rows mixing wildcards
/// and constants. Some CFDs repeat an earlier embedded FD (in the same LHS
/// order, or reordered, which is a different group); some tableaux gain a
/// duplicate row or a contradictory pair such as [A=_] -> [B=b0] beside
/// [A=_] -> [B=b1], which makes Σ unsatisfiable wherever the LHS matches.
std::vector<Cfd> RandomSigma(Rng* rng, const Shape& s) {
  const size_t ncols = s.names.size();
  std::vector<Cfd> sigma;
  const size_t ncfds = 1 + rng->NextIndex(4);
  for (size_t k = 0; k < ncfds; ++k) {
    std::vector<size_t> lhs;
    size_t rhs;
    if (!sigma.empty() && rng->NextBool(0.25)) {
      const Cfd& base = sigma[rng->NextIndex(sigma.size())];
      for (const std::string& a : base.lhs_attrs()) {
        lhs.push_back(static_cast<size_t>(a[0] - 'A'));
      }
      if (rng->NextBool(0.5)) rng->Shuffle(&lhs);
      rhs = static_cast<size_t>(base.rhs_attr()[0] - 'A');
    } else {
      rhs = rng->NextIndex(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        if (c != rhs) lhs.push_back(c);
      }
      rng->Shuffle(&lhs);
      lhs.resize(1 + rng->NextIndex(std::min<size_t>(3, lhs.size())));
    }
    std::vector<PatternTuple> tableau;
    const size_t nrows = 1 + rng->NextIndex(3);
    for (size_t r = 0; r < nrows; ++r) {
      PatternTuple pt;
      for (size_t c : lhs) {
        pt.lhs.push_back(rng->NextBool(0.5) ? PatternValue::Wildcard()
                                            : RandomConstant(rng, s, c));
      }
      pt.rhs = rng->NextBool(0.5) ? PatternValue::Wildcard()
                                  : RandomConstant(rng, s, rhs);
      tableau.push_back(std::move(pt));
    }
    if (rng->NextBool(0.2)) tableau.push_back(tableau[rng->NextIndex(tableau.size())]);
    if (rng->NextBool(0.2)) {
      PatternTuple pt = tableau[rng->NextIndex(tableau.size())];
      const size_t i = rng->NextIndex(s.domain[rhs]);
      pt.rhs = PatternValue::Constant(s.DomainValue(rhs, i));
      tableau.push_back(pt);
      pt.rhs = PatternValue::Constant(s.domain[rhs] > 1
                                          ? s.DomainValue(rhs, (i + 1) % s.domain[rhs])
                                          : s.OutsideValue(rhs, false));
      tableau.push_back(std::move(pt));
    }
    std::vector<std::string> lhs_names;
    for (size_t c : lhs) lhs_names.push_back(s.names[c]);
    sigma.emplace_back("r", std::move(lhs_names), s.names[rhs], std::move(tableau));
  }
  return sigma;
}

std::string SigmaText(const std::vector<Cfd>& sigma) {
  std::string s;
  for (const Cfd& c : sigma) s += c.ToString() + "\n";
  return s;
}

/// 1-5 random updates against the live tuples of `rel`: modifications
/// (to a domain value, NULL or a fresh value), deletions and inserts.
UpdateBatch RandomBatch(Rng* rng, const Shape& s, const Relation& rel) {
  std::vector<TupleId> live = LiveTuples(rel);
  UpdateBatch batch;
  const size_t n = 1 + rng->NextIndex(5);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t roll = rng->NextBelow(10);
    if (live.empty() || roll < 4) {
      batch.push_back(Update::Insert(s.RandomRow(rng)));
    } else if (roll < 6) {
      const size_t k = rng->NextIndex(live.size());
      batch.push_back(Update::DeleteTuple(live[k]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const size_t c = rng->NextIndex(s.names.size());
      const uint64_t pick = rng->NextBelow(8);
      const Value v = pick == 0   ? Value::Null()
                      : pick == 1 ? s.OutsideValue(c, true)
                                  : s.RandomValue(rng, c);
      batch.push_back(Update::Modify(live[rng->NextIndex(live.size())], c, v));
    }
  }
  return batch;
}

std::vector<Cfd> Parse(const std::string& text) {
  auto r = cfd::ParseCfdSet(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : std::vector<Cfd>{};
}

// ------------------------------------------------------------- detection

/// NativeDetector against the oracle: a cold run that encodes the
/// relation itself, then every tier over one warm snapshot (the server's
/// pattern).
void ExpectNativeDetection(const Relation& rel, const std::vector<Cfd>& sigma) {
  const Detection want = Detect(rel, sigma);
  ASSERT_OK_AND_ASSIGN(auto cold_table, detect::NativeDetector(&rel, sigma).Detect());
  ASSERT_EQ("", DetectionDiff(want, cold_table)) << "cold";

  const relational::EncodedRelation warm(&rel);
  for (simd::Level tier : kTiers) {
    detect::DetectorOptions opts;
    opts.simd_level = tier;
    detect::NativeDetector detector(&rel, sigma, opts);
    detector.set_encoded(&warm);
    ASSERT_OK_AND_ASSIGN(auto table, detector.Detect());
    ASSERT_EQ("", DetectionDiff(want, table)) << "tier=" << simd::LevelName(tier);
  }
}

/// SqlDetector against the oracle. Its tableau relations encode wildcards
/// as SQL NULL, so a NULL pattern constant cannot be expressed there;
/// callers skip Σ that contain one.
void ExpectSqlDetection(const Relation& rel, const std::vector<Cfd>& sigma) {
  relational::Database db;
  ASSERT_OK(db.AddRelation(rel.Clone()));
  detect::SqlDetector sql(&db, rel.name(), sigma);
  ASSERT_OK_AND_ASSIGN(auto table, sql.Detect());
  ASSERT_EQ("", DetectionDiff(rel, sigma, table)) << "sql";
}

TEST(CfdOracleTest, DetectionSweep) {
  for (uint64_t seed = 0; seed < kDetectSeeds; ++seed) {
    Rng rng(seed);
    Shape shape;
    const size_t rows = seed % 8 == 7 ? 1100 + rng.NextIndex(1500) : rng.NextIndex(61);
    const Relation rel = RandomRelation(&rng, rows, &shape);
    const std::vector<Cfd> sigma = RandomSigma(&rng, shape);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + SigmaText(sigma));

    ExpectNativeDetection(rel, sigma);
    if (HasFatalFailure()) return;
    if (rows <= 60) {
      ExpectSqlDetection(rel, sigma);
      if (HasFatalFailure()) return;
    }

    Relation live = rel;
    detect::IncrementalDetector inc(&live, sigma, kTiers[seed % 3]);
    ASSERT_OK(inc.Initialize());
    ASSERT_EQ("", DetectionDiff(live, sigma, inc.Snapshot())) << "incremental init";
    for (int b = 0; b < 3; ++b) {
      ASSERT_OK(inc.ApplyAndDetect(RandomBatch(&rng, shape, live)));
    }
    const Detection want = Detect(live, sigma);
    ASSERT_EQ("", DetectionDiff(want, inc.Snapshot())) << "incremental after updates";
    int64_t total = 0;
    for (TupleId t = 0; t < live.IdBound(); ++t) {
      ASSERT_EQ(inc.Vio(t), want.vio[static_cast<size_t>(t)]) << "Vio(" << t << ")";
      total += want.vio[static_cast<size_t>(t)];
    }
    ASSERT_EQ(inc.Clean(), total == 0);
  }
}

// ----------------------------------------------------------------- audit

/// DataAuditor on `table` against the oracle's outcome for `rel`.
void ExpectAudit(const Relation& rel, const std::vector<Cfd>& sigma,
                 const audit::AuditOutcome& want,
                 const detect::ViolationTable& table, const std::string& what) {
  audit::DataAuditor auditor(&rel, sigma);
  ASSERT_OK_AND_ASSIGN(auto got, auditor.Audit(table));
  ASSERT_EQ("", AuditDiff(want, got, rel.IdBound())) << what;
}

TEST(CfdOracleTest, AuditSweep) {
  // The cells whose grade needs the whole rule "arguably clean only when
  // every implicating violation is a group it holds the majority of".
  size_t majority_and_minority = 0;
  size_t majority_and_single = 0;
  for (uint64_t seed = 0; seed < kDetectSeeds; ++seed) {
    Rng rng(seed);
    Shape shape;
    const size_t rows = seed % 8 == 7 ? 1100 + rng.NextIndex(1500) : rng.NextIndex(61);
    const Relation rel = RandomRelation(&rng, rows, &shape);
    const std::vector<Cfd> sigma = RandomSigma(&rng, shape);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + SigmaText(sigma));

    std::vector<Cfd> resolved = sigma;
    ASSERT_OK(cfd::ResolveAll(&resolved, rel.schema()));
    for (const auto& row : Implications(rel, resolved, Detect(rel, resolved))) {
      for (const Implication& cell : row) {
        if (cell.majority == 0) continue;
        if (cell.minority > 0) ++majority_and_minority;
        if (cell.single) ++majority_and_single;
      }
    }

    const audit::AuditOutcome want = Audit(rel, sigma);
    const relational::EncodedRelation warm(&rel);
    for (simd::Level tier : kTiers) {
      detect::DetectorOptions opts;
      opts.simd_level = tier;
      detect::NativeDetector detector(&rel, sigma, opts);
      detector.set_encoded(&warm);
      ASSERT_OK_AND_ASSIGN(auto table, detector.Detect());
      ExpectAudit(rel, sigma, want, table, "tier=" + std::string(simd::LevelName(tier)));
      if (HasFatalFailure()) return;
    }
    ASSERT_OK_AND_ASSIGN(auto cold_table, detect::NativeDetector(&rel, sigma).Detect());
    // A published epoch's relation, built over the same columns.
    const Relation epoch = Relation::FromColumns(
        rel.name(), rel.schema(),
        std::vector<uint8_t>(rel.live_data(), rel.live_data() + rel.IdBound()),
        warm.dictionaries(), warm.columns());
    ExpectAudit(epoch, sigma, want, cold_table, "column-backed");
    if (HasFatalFailure()) return;
    if (rows <= 60) {
      relational::Database db;
      ASSERT_OK(db.AddRelation(rel.Clone()));
      ASSERT_OK_AND_ASSIGN(auto sql_table, detect::SqlDetector(&db, rel.name(), sigma).Detect());
      ExpectAudit(rel, sigma, want, sql_table, "sql");
      if (HasFatalFailure()) return;
    }

    Relation live = rel;
    detect::IncrementalDetector inc(&live, sigma, kTiers[seed % 3]);
    ASSERT_OK(inc.Initialize());
    for (int b = 0; b < 3; ++b) {
      ASSERT_OK(inc.ApplyAndDetect(RandomBatch(&rng, shape, live)));
    }
    ExpectAudit(live, sigma, Audit(live, sigma), inc.Snapshot(), "incremental");
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(majority_and_minority, 100u);
  EXPECT_GE(majority_and_single, 100u);
}

// ------------------------------------------------------------- discovery

TEST(CfdOracleTest, MiningSweep) {
  for (uint64_t seed = 0; seed < kMineSeeds; ++seed) {
    Rng rng(seed);
    Shape shape;
    Relation rel = RandomRelation(&rng, rng.NextIndex(61), &shape);
    // Odd seeds give two columns key-like domains, from their own stream
    // so that `rng` draws what it always drew.
    if (seed % 2 == 1) {
      Rng key_rng(seed + 0x9E3779B97F4A7C15ull);
      AddKeyLikeColumns(&key_rng, &shape, &rel);
    }
    const size_t max_lhs = 1 + seed % 3;
    discovery::CfdMinerOptions cfd_opts;
    cfd_opts.max_lhs = max_lhs;
    cfd_opts.min_support = 2 + (seed / 3) % 3;
    cfd_opts.max_patterns_per_fd = SIZE_MAX;
    SCOPED_TRACE("seed " + std::to_string(seed) + " max_lhs " + std::to_string(max_lhs) +
                 " min_support " + std::to_string(cfd_opts.min_support));

    const auto want_fds = MinimalFds(Pairs(rel), max_lhs);
    const std::vector<std::string> want_rows = MinedCfdRows(rel, cfd_opts);
    for (size_t threads : kMineThreads) {
      for (simd::Level tier : kTiers) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " tier=" +
                     std::string(simd::LevelName(tier)));
        discovery::FdMinerOptions fd_opts;
        fd_opts.max_lhs = max_lhs;
        fd_opts.pool = threads > 1 ? &SharedPool() : nullptr;
        fd_opts.simd_level = tier;
        ASSERT_EQ(want_fds, FdsOf(discovery::FdMiner(&rel, fd_opts).Mine()));

        discovery::CfdMinerOptions opts = cfd_opts;
        opts.pool = fd_opts.pool;
        opts.simd_level = tier;
        ASSERT_OK_AND_ASSIGN(auto mined, discovery::CfdMiner(&rel, opts).Mine());
        ASSERT_EQ(want_rows, RowsOf(mined));
      }
    }
  }
}

// ---------------------------------------------------------------- repair

TEST(CfdOracleTest, RepairSweep) {
  for (uint64_t seed = 0; seed < kRepairSeeds; ++seed) {
    Rng rng(seed);
    Shape shape;
    const Relation rel = RandomRelation(&rng, rng.NextIndex(61), &shape);
    const std::vector<Cfd> sigma = RandomSigma(&rng, shape);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + SigmaText(sigma));
    repair::RepairOptions opts;
    opts.simd_level = kTiers[seed % 3];
    repair::BatchRepair cleaner(&rel, sigma, repair::CostModel(rel.schema()), opts);
    ASSERT_OK_AND_ASSIGN(auto result, cleaner.Run());
    ASSERT_EQ("", RepairDiff(rel, sigma, result));
  }
}

// ------------------------------------------------------- fixed instances

TEST(CfdOracleTest, PaperExample) {
  const Relation rel = semandaq::testing::PaperCustomerRelation();
  const std::vector<Cfd> sigma = Parse(semandaq::testing::PaperCfdText());
  ExpectNativeDetection(rel, sigma);
  ExpectSqlDetection(rel, sigma);

  discovery::CfdMinerOptions opts;
  opts.max_patterns_per_fd = SIZE_MAX;
  EXPECT_EQ(MinimalFds(Pairs(rel), opts.max_lhs),
            FdsOf(discovery::FdMiner(&rel).Mine()));
  ASSERT_OK_AND_ASSIGN(auto mined, discovery::CfdMiner(&rel, opts).Mine());
  EXPECT_EQ(MinedCfdRows(rel, opts), RowsOf(mined));

  repair::BatchRepair cleaner(&rel, sigma, repair::CostModel(rel.schema()));
  ASSERT_OK_AND_ASSIGN(auto result, cleaner.Run());
  EXPECT_FALSE(result.changes.empty());
  EXPECT_EQ("", RepairDiff(rel, sigma, result));
}

TEST(CfdOracleTest, NoisyCustomer) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 3000;
  opts.noise_rate = 0.10;
  opts.seed = 7;
  const auto wl = workload::CustomerGenerator::Generate(opts);
  ExpectNativeDetection(wl.dirty, Parse(workload::CustomerGenerator::PaperCfds()));
}

TEST(CfdOracleTest, NoisyHospital) {
  workload::HospitalWorkloadOptions opts;
  opts.num_tuples = 3000;
  opts.noise_rate = 0.10;
  opts.seed = 8;
  const auto wl = workload::HospitalGenerator::Generate(opts);
  ExpectNativeDetection(wl.dirty, Parse(workload::HospitalGenerator::HospitalCfds()));
}

TEST(CfdOracleTest, EmptyRelation) {
  const Relation rel("t", relational::Schema::AllStrings({"A", "B"}));
  const std::vector<Cfd> sigma = Parse("t: [A] -> [B]\nt: [A=1] -> [B=x]\n");
  ExpectNativeDetection(rel, sigma);
  ASSERT_OK_AND_ASSIGN(auto table, detect::NativeDetector(&rel, sigma).Detect());
  EXPECT_EQ(table.TotalVio(), 0);
  EXPECT_TRUE(table.groups().empty());
  EXPECT_TRUE(table.singles().empty());
}

TEST(CfdOracleTest, OneGroupOfTwoThousand) {
  // Every tuple shares one LHS key: the most skewed group there is.
  Relation rel("t", relational::Schema::AllStrings({"K", "V"}));
  for (int i = 0; i < 2000; ++i) {
    rel.MustInsert({Value::String("key"), Value::String(i % 2 ? "x" : "y")});
  }
  const std::vector<Cfd> sigma = Parse("t: [K] -> [V]");
  ExpectNativeDetection(rel, sigma);
  ASSERT_OK_AND_ASSIGN(auto table, detect::NativeDetector(&rel, sigma).Detect());
  ASSERT_EQ(table.groups().size(), 1u);
  EXPECT_EQ(table.groups()[0].members.size(), 2000u);
}

TEST(CfdOracleTest, NullHeavy) {
  // NULL LHS never groups; NULL RHS is "unknown, not wrong"; constants
  // absent from the data are compiled out.
  const Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B", "C"},
      {{"", "x", "1"},
       {"", "y", "1"},
       {"1", "x", ""},
       {"1", "y", "2"},
       {"1", "", "2"},
       {"2", "z", "9"}});
  const std::vector<Cfd> sigma = Parse(
      "t: [A] -> [B]\n"
      "t: [A=1] -> [C=2]\n"
      "t: [A=7] -> [C=5]\n");  // A=7 absent from the data
  ExpectNativeDetection(rel, sigma);
  ExpectSqlDetection(rel, sigma);
}

TEST(CfdOracleTest, NullPatternConstantMatchesNothing) {
  // A NULL pattern constant matches no tuple (PatternValue::Matches rejects
  // NULL cells); the encoded compiler must not conflate it with kNullCode,
  // which would match exactly the NULL cells instead.
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"", "x"}, {"", "y"}, {"1", "x"}, {"1", "y"}});
  PatternTuple null_const_row;
  null_const_row.lhs = {PatternValue::Constant(Value::Null())};
  null_const_row.rhs = PatternValue::Wildcard();
  const std::vector<Cfd> sigma = {Cfd("t", {"A"}, "B", {null_const_row})};
  ExpectNativeDetection(rel, sigma);
  EXPECT_EQ(Detect(rel, sigma).groups.size(), 0u);

  detect::IncrementalDetector inc(&rel, sigma);
  ASSERT_OK(inc.Initialize());
  EXPECT_TRUE(inc.Clean());
}

TEST(CfdOracleTest, StaleExternalSnapshotFallsBack) {
  Relation rel = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"}, {{"1", "x"}, {"1", "x"}});
  const relational::EncodedRelation stale(&rel);
  rel.MustInsert({Value::String("1"), Value::String("y")});  // stale now
  const std::vector<Cfd> sigma = Parse("t: [A] -> [B]");
  detect::NativeDetector detector(&rel, sigma);
  detector.set_encoded(&stale);
  ASSERT_OK_AND_ASSIGN(auto table, detector.Detect());
  // The conflict introduced after the snapshot must still be found.
  EXPECT_EQ("", DetectionDiff(rel, sigma, table));
  ASSERT_EQ(table.groups().size(), 1u);
  EXPECT_EQ(table.groups()[0].members.size(), 3u);
}

TEST(CfdOracleTest, IncrementalAfterChurn) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = 500;
  opts.noise_rate = 0.10;
  opts.seed = 11;
  auto wl = workload::CustomerGenerator::Generate(opts);
  const std::vector<Cfd> sigma = Parse(workload::CustomerGenerator::PaperCfds());

  detect::IncrementalDetector inc(&wl.dirty, sigma);
  ASSERT_OK(inc.Initialize());
  // Churn: modify some cells, delete a tuple, insert a conflicting one.
  ASSERT_OK(inc.ApplyAndDetect(
      {Update::Modify(3, workload::CustomerGenerator::kStr, Value::String("Broadway")),
       Update::DeleteTuple(10),
       Update::Modify(42, workload::CustomerGenerator::kCnt, Value::String("UK"))}));
  EXPECT_EQ("", DetectionDiff(wl.dirty, sigma, inc.Snapshot()));
  ExpectNativeDetection(wl.dirty, sigma);
}

/// Partition::Build over the encoded snapshot against Π_X from the
/// definition: same coverage, same classes in first-touch order.
void ExpectOraclePartition(const Relation& rel, const std::vector<size_t>& cols) {
  SCOPED_TRACE("cols " + std::to_string(cols.size()));
  const relational::EncodedRelation enc(&rel);
  const std::vector<std::vector<TupleId>> want = PartitionClasses(rel, cols);
  std::vector<std::vector<TupleId>> stripped;
  size_t covered = 0;
  for (const auto& cls : want) {
    covered += cls.size();
    if (cls.size() >= 2) stripped.push_back(cls);
  }
  for (simd::Level tier : kTiers) {
    const discovery::Partition p = discovery::Partition::Build(enc, cols, tier);
    EXPECT_EQ(p.num_classes(), want.size());
    EXPECT_EQ(p.num_tuples(), covered);
    EXPECT_EQ(p.classes(), stripped);
    for (const auto& cls : want) {
      for (TupleId t : cls) EXPECT_EQ(p.ClassOf(t), p.ClassOf(cls.front()));
    }
  }
}

TEST(CfdOracleTest, Partitions) {
  workload::CustomerWorkloadOptions copts;
  copts.num_tuples = 2000;
  copts.noise_rate = 0.10;
  copts.seed = 9;
  const auto customer = workload::CustomerGenerator::Generate(copts);
  using C = workload::CustomerGenerator;
  ExpectOraclePartition(customer.dirty, {C::kCnt});
  ExpectOraclePartition(customer.dirty, {C::kZip});
  ExpectOraclePartition(customer.dirty, {C::kCnt, C::kZip});
  ExpectOraclePartition(customer.dirty, {C::kCnt, C::kZip, C::kStr});

  workload::HospitalWorkloadOptions hopts;
  hopts.num_tuples = 2000;
  hopts.noise_rate = 0.10;
  hopts.seed = 10;
  const auto hospital = workload::HospitalGenerator::Generate(hopts);
  using H = workload::HospitalGenerator;
  ExpectOraclePartition(hospital.dirty, {H::kZip});
  ExpectOraclePartition(hospital.dirty, {H::kState, H::kCity});
  ExpectOraclePartition(hospital.dirty, {H::kState, H::kCity, H::kZip, H::kMcode});

  const Relation nulls = semandaq::testing::MakeStringRelation(
      "t", {"A", "B"},
      {{"", "x"}, {"1", "x"}, {"1", ""}, {"1", "x"}, {"2", "y"}, {"", ""}});
  ExpectOraclePartition(nulls, {0});
  ExpectOraclePartition(nulls, {1});
  ExpectOraclePartition(nulls, {0, 1});
}

}  // namespace
}  // namespace semandaq::oracle
