// The text-command service (src/server/service): the one implementation
// of Semandaq's command grammar, which semandaq_cli drives in-process and
// semandaq_server over TCP. Covers lane-count invariance of `mine`, that
// the served detect, report and clean replies agree with the
// definition-level oracle (cfd_oracle.h) on the pinned epoch's data,
// per-write epoch publication, and whole-database save/open — including
// snapshot compaction and crash recovery across a compaction boundary. The
// grammar as one session sees it is in session_test.cc.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/render.h"
#include "audit/report.h"
#include "cfd_oracle.h"
#include "common/csv.h"
#include "discovery/cfd_miner.h"
#include "relational/value.h"
#include "server/service.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace semandaq::server {
namespace {

using relational::Row;
using relational::Value;

std::string Exec(SemandaqService* svc, SemandaqService::SessionState* session,
                 const std::string& cmd) {
  auto r = svc->Execute(session, cmd);
  EXPECT_TRUE(r.ok()) << cmd << " -> " << r.status().ToString();
  return r.ok() ? *r : std::string();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A row for the generated customer schema (7 string attributes).
Row CustomerRow(const std::string& tag) {
  Row row;
  for (int c = 0; c < 7; ++c) {
    row.push_back(Value::String(tag + "_" + std::to_string(c)));
  }
  return row;
}

const char* const kCustomerCfds[] = {
    "cfd customer: [CNT=UK, ZIP=_] -> [STR=_]",
    "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }",
};

/// Every cell change of a repair plus its totals, for equality checks.
std::string Canonical(const repair::RepairResult& r) {
  std::string out = std::to_string(r.total_cost) + "/" +
                    std::to_string(r.iterations) + "/" +
                    std::to_string(r.remaining_violations);
  for (const repair::CellChange& ch : r.changes) {
    out += " " + std::to_string(ch.tid) + ":" + std::to_string(ch.col) + "=" +
           ch.repaired.ToDisplayString();
  }
  return out;
}

// ------------------------------------------------------------------ lanes

// `mine REL threads=N` adds the same CFDs in the same order as the serial
// sweep, whatever lanes the scheduler grants.
TEST(ServerServiceTest, MineIsIdenticalForEveryLaneCount) {
  auto run = [](const std::string& mine_cmd) {
    SemandaqService service;
    SemandaqService::SessionState state;
    Exec(&service, &state, "gen customer 200 5");
    return Exec(&service, &state, mine_cmd) + Exec(&service, &state, "cfds");
  };
  const std::string serial = run("mine customer_gold");
  EXPECT_NE(serial.find("mined "), std::string::npos);
  EXPECT_EQ(serial, run("mine customer_gold threads=2"));
  EXPECT_EQ(serial, run("mine customer_gold threads=0 simd=scalar"));
}

// ---------------------------------------------------- snapshot fidelity

/// The `detect` reply for the oracle's detection.
std::string SummaryOf(const oracle::Detection& d) {
  int64_t total = 0;
  size_t violating = 0;
  for (int64_t v : d.vio) {
    total += v;
    if (v > 0) ++violating;
  }
  return std::to_string(d.singles.size()) + " single-tuple violation(s), " +
         std::to_string(d.groups.size()) + " multi-tuple group(s), " +
         std::to_string(violating) + " violating tuple(s), total vio " +
         std::to_string(total) + "\n";
}

// Every read verb computes on a pinned epoch. Its replies must agree with
// the oracle on that epoch's data — at the first epoch, and again after a
// write batch publishes the next one.
TEST(ServerServiceTest, PinnedReadsMatchTheOracleOnTheEpoch) {
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "gen customer 150 8");
  for (const char* c : kCustomerCfds) Exec(&service, &state, c);
  // Safe: this test issues no request concurrently with the facade call.
  const std::vector<cfd::Cfd> sigma =
      service.system_unsynchronized().constraints().CfdsFor("customer");
  auto exec = [&](const std::string& cmd) {
    return Exec(&service, &state, cmd);
  };

  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    EXPECT_EQ(exec("epoch customer"), "epoch " + std::to_string(epoch) + "\n");
    const SnapshotPtr pinned = service.Pin("customer");
    ASSERT_NE(pinned, nullptr);
    ASSERT_EQ(pinned->epoch, epoch);
    const relational::Relation& data = pinned->relation;

    const std::string summary = SummaryOf(oracle::Detect(data, sigma));
    EXPECT_EQ(exec("detect customer"), summary);
    // threads=N is accepted and ignored: detection runs serially.
    EXPECT_EQ(exec("detect customer threads=3"), summary);
    EXPECT_EQ(exec("detect customer threads=0"), summary);
    // The generated-SQL detector agrees with the native one verbatim.
    EXPECT_EQ(exec("detect customer sql"), summary);

    const audit::QualityReport report =
        audit::BuildQualityReport(oracle::Audit(data, sigma), data.schema());
    EXPECT_EQ(exec("report customer"),
              audit::AsciiRender::BarChart(report) + "\n" +
                  audit::AsciiRender::PieChart(report) + "\n" +
                  audit::AsciiRender::Statistics(report));

    exec("clean customer");
    ASSERT_TRUE(state.pending_repair.has_value());
    EXPECT_EQ(state.pending_epoch, epoch);
    EXPECT_FALSE(state.pending_repair->changes.empty());
    EXPECT_EQ(oracle::RepairDiff(data, sigma, *state.pending_repair), "");
    const std::string plan = Canonical(*state.pending_repair);
    exec("clean customer threads=0");
    EXPECT_EQ(Canonical(*state.pending_repair), plan);

    // The next epoch adds a tuple violating [CC] -> [CNT] (44 | UK).
    Row bad;
    for (const char* v : {"Zed", "NL", "Leith", "EH2", "Main", "44", "131"}) {
      bad.push_back(Value::String(v));
    }
    ASSERT_OK(service.AppendBatch("customer", {std::move(bad)}).status());
  }

  // `mine` appends exactly what the miner finds on the pinned epoch.
  const std::string sigma_text = exec("cfds");
  const SnapshotPtr gold = service.Pin("customer_gold");
  ASSERT_NE(gold, nullptr);
  discovery::CfdMiner miner(&gold->relation);
  ASSERT_OK_AND_ASSIGN(std::vector<cfd::Cfd> mined, miner.Mine());
  std::string expected = sigma_text;
  for (const cfd::Cfd& c : mined) expected += c.ToString() + "\n";
  EXPECT_NE(exec("mine customer_gold").find("mined " + std::to_string(mined.size())),
            std::string::npos);
  EXPECT_EQ(exec("cfds"), expected);
}

// ------------------------------------------------------------------- epochs

TEST(ServerServiceTest, EpochAdvancesPerWriteBatch) {
  SemandaqService service;
  SemandaqService::SessionState state;
  EXPECT_FALSE(service.Execute(&state, "epoch customer").ok());

  Exec(&service, &state, "gen customer 40 10");
  EXPECT_EQ(Exec(&service, &state, "epoch customer"), "epoch 1\n");

  ASSERT_OK_AND_ASSIGN(size_t appended,
                       service.AppendBatch("customer", {CustomerRow("a"),
                                                        CustomerRow("b")}));
  EXPECT_EQ(appended, 2u);
  EXPECT_EQ(Exec(&service, &state, "epoch customer"), "epoch 2\n");

  // A batch is one epoch regardless of row count; an independent relation
  // keeps its own counter.
  ASSERT_OK_AND_ASSIGN(appended,
                       service.AppendBatch("customer", {CustomerRow("c")}));
  EXPECT_EQ(Exec(&service, &state, "epoch customer"), "epoch 3\n");
  EXPECT_EQ(Exec(&service, &state, "epoch customer_gold"), "epoch 1\n");
}

TEST(ServerServiceTest, PinnedSnapshotIsImmutableAcrossWrites) {
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "gen customer 30 10");

  SnapshotPtr pinned = service.Pin("customer");
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch, 1u);
  const size_t pinned_size = pinned->relation.size();

  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("x")}).status());

  // The pin still sees the old world; a fresh pin sees the new one.
  EXPECT_EQ(pinned->relation.size(), pinned_size);
  SnapshotPtr fresh = service.Pin("customer");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->epoch, 2u);
  EXPECT_EQ(fresh->relation.size(), pinned_size + 1);
  EXPECT_EQ(service.Pin("nosuch"), nullptr);
}

TEST(ServerServiceTest, CleanPinsItsEpochAcrossConcurrentWrites) {
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "gen customer 80 10");
  Exec(&service, &state, "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL) }");
  const std::string plan = Exec(&service, &state, "clean customer");
  EXPECT_NE(plan.find("candidate repair"), std::string::npos);

  // A write between clean and diff/apply must not corrupt the pending
  // plan: diff renders against the pinned world, apply still lands on the
  // master (append-only writes keep the repaired tuple ids valid).
  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("w")}).status());
  EXPECT_NE(Exec(&service, &state, "diff").find("pending repair"),
            std::string::npos);
  EXPECT_NE(Exec(&service, &state, "apply").find("applied"),
            std::string::npos);
  EXPECT_NE(Exec(&service, &state, "detect customer").find("total vio 0"),
            std::string::npos);
}

// ------------------------------------------------------ code-only reports

TEST(ServerServiceTest, ReportDecodesNoRowOfAnOpenedRelation) {
  // `report` grades from the violation table and the dictionary codes of a
  // freshly opened relation, through the facade and the service alike.
  const std::string path = TempPath("svc_report.sdq");
  const std::string dir = TempPath("svc_report_db");
  SemandaqService source;
  SemandaqService::SessionState state;
  Exec(&source, &state, "gen customer 500 10");
  Exec(&source, &state, "save customer " + path);
  Exec(&source, &state, "savedb " + dir);

  core::Semandaq facade;
  ASSERT_OK(facade.OpenRelation("customer", path).status());
  for (const char* cfd : kCustomerCfds) {
    ASSERT_OK(facade.constraints().AddCfdsFromText(std::string(cfd).substr(4)));
  }
  ASSERT_OK_AND_ASSIGN(auto report, facade.Report("customer"));
  EXPECT_EQ(report.num_tuples, 500u);

  SemandaqService served;
  SemandaqService::SessionState sstate;
  Exec(&served, &sstate, "opendb " + dir);
  for (const char* cfd : kCustomerCfds) Exec(&served, &sstate, cfd);
  const std::string text = Exec(&served, &sstate, "report customer");
  EXPECT_NE(text.find("Attribute cleanliness"), std::string::npos);
}

TEST(ServerServiceTest, CleanDecodesNoRowOfAnOpenedRelation) {
  // `clean` repairs on the codes of a freshly opened relation and `diff`
  // renders the change list, through the facade and the service alike.
  const std::string path = TempPath("svc_clean.sdq");
  const std::string dir = TempPath("svc_clean_db");
  SemandaqService source;
  SemandaqService::SessionState state;
  Exec(&source, &state, "gen customer 500 10");
  Exec(&source, &state, "save customer " + path);
  Exec(&source, &state, "savedb " + dir);

  core::Semandaq facade;
  ASSERT_OK(facade.OpenRelation("customer", path).status());
  for (const char* cfd : kCustomerCfds) {
    ASSERT_OK(facade.constraints().AddCfdsFromText(std::string(cfd).substr(4)));
  }
  ASSERT_OK_AND_ASSIGN(auto repair, facade.Clean("customer"));
  EXPECT_FALSE(repair.changes.empty());

  SemandaqService served;
  SemandaqService::SessionState sstate;
  Exec(&served, &sstate, "opendb " + dir);
  for (const char* cfd : kCustomerCfds) Exec(&served, &sstate, cfd);
  const std::string cleaned = Exec(&served, &sstate, "clean customer");
  EXPECT_NE(cleaned.find("candidate repair: " + std::to_string(repair.changes.size()) +
                         " cell(s)"),
            std::string::npos)
      << cleaned;
  const std::string diff = Exec(&served, &sstate, "diff");
  EXPECT_NE(diff.find(" -> "), std::string::npos);
}

// -------------------------------------------------------- whole-DB catalog

TEST(ServerServiceTest, SaveDbOpenDbRoundTrip) {
  const std::string dir = TempPath("svc_dbdir");
  SemandaqService source;
  SemandaqService::SessionState state;
  Exec(&source, &state, "gen customer 60 10");
  Exec(&source, &state, "gen hospital 50 5");
  const std::string saved = Exec(&source, &state, "savedb " + dir);
  EXPECT_NE(saved.find("saved 4 relation(s)"), std::string::npos);

  SemandaqService target;
  SemandaqService::SessionState tstate;
  const std::string opened = Exec(&target, &tstate, "opendb " + dir);
  EXPECT_NE(opened.find("opened 4 relation(s)"), std::string::npos);
  EXPECT_EQ(Exec(&target, &tstate, "ls"), Exec(&source, &state, "ls"));
  EXPECT_EQ(Exec(&target, &tstate, "show customer 10"),
            Exec(&source, &state, "show customer 10"));
  EXPECT_EQ(Exec(&target, &tstate, "sql SELECT COUNT(*) FROM hospital"),
            Exec(&source, &state, "sql SELECT COUNT(*) FROM hospital"));

  // Opening into a database that already has one of the names must fail
  // without clobbering existing state.
  SemandaqService occupied;
  SemandaqService::SessionState ostate;
  Exec(&occupied, &ostate, "gen customer 10 5");
  EXPECT_FALSE(occupied.Execute(&ostate, "opendb " + dir).ok());
  EXPECT_EQ(Exec(&occupied, &ostate, "epoch customer"), "epoch 1\n");

  // A directory with no manifest is NotFound, not corruption.
  auto missing = target.Execute(&tstate, "opendb " + TempPath("no_such_db"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);
}

// ------------------------------------------------- compaction + crash tail

TEST(ServerServiceTest, CompactionRewritesSnapshotAndSurvivesTornTail) {
  const std::string path = TempPath("svc_compact.sdq");
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "gen customer 25 10");

  // Arm compaction at 2 WAL records.
  const std::string saved =
      Exec(&service, &state, "save customer " + path + " compact=2");
  EXPECT_NE(saved.find("compaction armed at 2 WAL record(s)"),
            std::string::npos);

  // One mutation: below the threshold, so the WAL carries it.
  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("wal1")}).status());
  // Second mutation crosses the threshold: the snapshot is rewritten with
  // all 27 rows and the sidecar resets to empty.
  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("wal2")}).status());

  {
    ASSERT_OK_AND_ASSIGN(storage::LoadedSnapshot compacted,
                         storage::SnapshotReader::Read(path));
    EXPECT_EQ(compacted.relation.size(), 27u);  // WAL rows folded in
  }

  // Third mutation lands in the fresh (post-compaction) WAL; then tear the
  // tail the way a crash mid-append would.
  ASSERT_OK(service.AppendBatch("customer", {CustomerRow("wal3")}).status());
  const std::string wal_path = storage::WalPathFor(path);
  ASSERT_OK_AND_ASSIGN(std::string wal_bytes,
                       common::ReadFileToString(wal_path));
  ASSERT_OK(common::WriteStringToFile(wal_path, wal_bytes + "\x07\x01"));

  // Recovery across the compaction boundary: the compacted snapshot plus
  // the surviving WAL record, torn tail dropped silently.
  SemandaqService recovered;
  SemandaqService::SessionState rstate;
  const std::string opened =
      Exec(&recovered, &rstate, "open customer " + path);
  EXPECT_NE(opened.find("+1 wal record(s)"), std::string::npos);
  SnapshotPtr snap = recovered.Pin("customer");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->relation.size(), 28u);
  EXPECT_EQ(Exec(&recovered, &rstate, "show customer 100"),
            Exec(&service, &state, "show customer 100"));
}

}  // namespace
}  // namespace semandaq::server
