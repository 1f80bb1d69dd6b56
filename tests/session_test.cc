// One session's view of the text-command grammar: what each line means
// when executed through SemandaqService with a SessionState, exactly as
// semandaq_cli runs it in-process and semandaq_server runs it per
// connection. Covers help/blank/comment lines, the paper's demonstration
// flow, error status codes, single-relation save/open, that SQL detection
// leaves the served database as it found it, that a pending repair belongs
// to the session that planned it, and that another session's apply makes
// it stale.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/string_util.h"
#include "server/service.h"
#include "test_util.h"

namespace semandaq::server {
namespace {

using common::StatusCode;

std::string Exec(SemandaqService* svc, SemandaqService::SessionState* session,
                 const std::string& cmd) {
  auto r = svc->Execute(session, cmd);
  EXPECT_TRUE(r.ok()) << cmd << " -> " << r.status().ToString();
  return r.ok() ? *r : std::string();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

const char* const kCustomerCfds[] = {
    "cfd customer: [CNT=UK, ZIP=_] -> [STR=_]",
    "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }",
};

TEST(SessionTest, HelpAndEmptyAndComments) {
  SemandaqService service;
  SemandaqService::SessionState state;
  const std::string help = Exec(&service, &state, "help");
  EXPECT_EQ(help, SemandaqService::Help());
  for (const char* line : {"commands:", "explore REL CFD# PAT#", "epoch REL",
                           "stats"}) {
    EXPECT_NE(help.find(line), std::string::npos) << line;
  }
  EXPECT_EQ(Exec(&service, &state, ""), "");
  EXPECT_EQ(Exec(&service, &state, "   "), "");
  EXPECT_EQ(Exec(&service, &state, "# a comment"), "");
}

// The paper's demonstration flow, one session, start to finish.
TEST(SessionTest, FullPipeline) {
  const std::string csv = TempPath("session_load.csv");
  ASSERT_OK(common::WriteStringToFile(csv, "A,B\nx,1\ny,2\n"));
  const std::vector<std::pair<std::string, std::string>> script = {
      {"ls", "(no relations)"},
      {"gen customer 150 8", "generated customer (+ customer_gold)"},
      {"ls", "customer_gold"},
      {"show customer 3", "NAME"},
      {kCustomerCfds[0], "Sigma now has 1 CFD(s)"},
      {kCustomerCfds[1], "Sigma now has 2 CFD(s)"},
      {"cfds", "[CC] -> [CNT]"},
      {"validate customer", "SATISFIABLE"},
      {"map customer 5", "shade:"},
      {"report customer", "Violation composition"},
      {"explore customer 0 0", "-- CFDs --"},
      {"clean customer", "candidate repair"},
      {"diff", "pending repair for 'customer'"},
      {"apply", "applied"},
      {"detect customer", "total vio 0"},
      {"gen hospital 80 5", "generated hospital"},
      {"sql SELECT STATE, COUNT(*) AS n FROM hospital GROUP BY STATE "
       "ORDER BY STATE",
       "| AL"},
      {"load t " + csv, "loaded t"},
      {"show t", "| x"},
      {"epoch t", "epoch 1"},
      {"stats", "lanes.total="},
  };
  SemandaqService service;
  SemandaqService::SessionState state;
  for (const auto& [cmd, expect] : script) {
    EXPECT_NE(Exec(&service, &state, cmd).find(expect), std::string::npos)
        << cmd;
  }
}

TEST(SessionTest, ErrorsCarryTheirStatusCodes) {
  const std::string path = TempPath("session_errors.sdq");
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "gen customer 20 5");
  for (const char* c : kCustomerCfds) Exec(&service, &state, c);
  Exec(&service, &state, "save customer " + path);
  const std::vector<std::pair<std::string, StatusCode>> cases = {
      {"frobnicate", StatusCode::kInvalidArgument},
      {"show nosuch", StatusCode::kNotFound},
      {"epoch nosuch", StatusCode::kNotFound},
      {"detect nosuch", StatusCode::kNotFound},
      {"map nosuch", StatusCode::kNotFound},
      {"report nosuch", StatusCode::kNotFound},
      {"explore nosuch 0 0", StatusCode::kNotFound},
      {"explore customer 9 0", StatusCode::kOutOfRange},
      {"explore customer 4294967296 0", StatusCode::kOutOfRange},  // not #0
      {"explore customer 0 4294967296", StatusCode::kOutOfRange},
      {"mine nosuch", StatusCode::kNotFound},
      {"clean nosuch", StatusCode::kNotFound},
      {"sql SELECT broken FROM nowhere", StatusCode::kNotFound},
      {"diff", StatusCode::kFailedPrecondition},   // no pending repair
      {"apply", StatusCode::kFailedPrecondition},  // no pending repair
      {"gen widgets 10 5", StatusCode::kInvalidArgument},
      {"gen customer abc 5", StatusCode::kInvalidArgument},
      {"detect customer threads=zero", StatusCode::kInvalidArgument},
      {"detect customer sql threads=2", StatusCode::kInvalidArgument},
      {"load onlyname", StatusCode::kInvalidArgument},
      {"load u /does/not/exist.csv", StatusCode::kIoError},
      {"validate", StatusCode::kInvalidArgument},
      {"cfd not a cfd", StatusCode::kInvalidArgument},
      {"save customer", StatusCode::kInvalidArgument},
      {"save missing " + path, StatusCode::kNotFound},
      {"open customer " + path, StatusCode::kAlreadyExists},  // name taken
      {"open x /does/not/exist.sdq", StatusCode::kIoError},
  };
  for (const auto& [cmd, code] : cases) {
    auto r = service.Execute(&state, cmd);
    ASSERT_FALSE(r.ok()) << cmd;
    EXPECT_EQ(r.status().code(), code) << cmd << " -> " << r.status().ToString();
  }
}

TEST(SessionTest, SaveOpenRoundTrip) {
  const std::string path = TempPath("session_snapshot.sdq");
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "gen customer 200 8");
  for (const char* c : kCustomerCfds) Exec(&service, &state, c);
  const std::string before = Exec(&service, &state, "detect customer");

  EXPECT_NE(Exec(&service, &state, "save customer " + path).find("saved customer"),
            std::string::npos);
  EXPECT_NE(Exec(&service, &state, "open customer2 " + path).find("opened customer2"),
            std::string::npos);
  Exec(&service, &state, "cfd customer2: [CNT=UK, ZIP=_] -> [STR=_]");
  Exec(&service, &state,
       "cfd customer2: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }");
  // Detection over the reloaded snapshot renders identically.
  EXPECT_EQ(Exec(&service, &state, "detect customer2"), before);
}

// `detect REL sql` keeps its tableau relations in a scratch catalog of the
// pinned epoch: the served database never lists them, whether the SQL
// detection succeeds or fails, so `savedb` never persists them either.
TEST(SessionTest, SqlDetectLeavesOnlyTheData) {
  const std::string quoted = TempPath("session_quoted.csv");
  ASSERT_OK(common::WriteStringToFile(quoted, "A,\"B\"\"x\"\nx,1\nx,2\ny,3\n"));
  const std::string clash = TempPath("session_clash.csv");
  ASSERT_OK(common::WriteStringToFile(clash, "A,B,__cfd_id\nx,1,1\n"));
  SemandaqService service;
  SemandaqService::SessionState state;
  Exec(&service, &state, "load t " + quoted);
  Exec(&service, &state, "cfd t: [A] -> [B\"x]");
  EXPECT_EQ(Exec(&service, &state, "detect t sql"), Exec(&service, &state, "detect t"));

  // The second tableau of u clashes with the SQL detector's bookkeeping
  // column; the detection fails after storing the first one.
  Exec(&service, &state, "load u " + clash);
  Exec(&service, &state, "cfd u: [A] -> [B]");
  Exec(&service, &state, "cfd u: [A] -> [__cfd_id]");
  EXPECT_FALSE(service.Execute(&state, "detect u sql").ok());

  std::vector<std::string> listed;
  for (const std::string& line : common::Split(Exec(&service, &state, "ls"), '\n')) {
    if (!line.empty()) listed.push_back(line.substr(0, line.find(' ')));
  }
  EXPECT_EQ(listed, (std::vector<std::string>{"t", "u"}));
}

// `clean` stores its plan in the calling session only: another session on
// the same service has nothing to diff or apply, and its own clean does not
// replace the first session's plan.
TEST(SessionTest, PendingRepairBelongsToItsSession) {
  SemandaqService service;
  SemandaqService::SessionState planner;
  SemandaqService::SessionState other;
  Exec(&service, &planner, "gen customer 120 8");
  for (const char* c : kCustomerCfds) Exec(&service, &planner, c);
  EXPECT_NE(Exec(&service, &planner, "clean customer").find("candidate repair"),
            std::string::npos);
  ASSERT_TRUE(planner.pending_repair.has_value());

  for (const char* cmd : {"diff", "apply"}) {
    auto r = service.Execute(&other, cmd);
    ASSERT_FALSE(r.ok()) << cmd;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << cmd;
  }
  EXPECT_FALSE(other.pending_repair.has_value());

  EXPECT_NE(Exec(&service, &other, "clean customer_gold").find("candidate repair"),
            std::string::npos);
  EXPECT_NE(Exec(&service, &planner, "diff").find("pending repair for 'customer'"),
            std::string::npos);
  EXPECT_NE(Exec(&service, &planner, "apply").find("applied"), std::string::npos);
  EXPECT_NE(Exec(&service, &planner, "detect customer").find("total vio 0"),
            std::string::npos);
}

// A repair planned on an epoch that another session's apply has since
// rewritten is stale: `apply` refuses it, writes nothing and keeps it
// pending until the session cleans again. A repair that is already in
// place (the same plan, applied by another session) still applies.
TEST(SessionTest, ApplyRefusesARepairAnotherApplyMadeStale) {
  SemandaqService service;
  SemandaqService::SessionState a;
  SemandaqService::SessionState b;
  SemandaqService::SessionState twin;
  Exec(&service, &a, "gen customer 3000 10");
  Exec(&service, &a, "cfd customer: [CNT, ZIP] -> [CITY]");
  Exec(&service, &a, "clean customer");

  Exec(&service, &b, "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }");
  Exec(&service, &b, "cfd customer: [CNT, CITY] -> [AC]");
  Exec(&service, &b, "clean customer");
  Exec(&service, &twin, "clean customer");
  const std::string applied = Exec(&service, &b, "apply");
  EXPECT_NE(applied.find("applied"), std::string::npos);
  EXPECT_NE(Exec(&service, &b, "detect customer").find("total vio 0"), std::string::npos);
  EXPECT_EQ(Exec(&service, &twin, "apply"), applied);

  auto stale = service.Execute(&a, "apply");
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition)
      << stale.status().ToString();
  EXPECT_TRUE(a.pending_repair.has_value());
  EXPECT_NE(Exec(&service, &a, "detect customer").find("total vio 0"), std::string::npos);

  // Appends do not invalidate a repair; a fresh clean can be applied.
  Exec(&service, &a, "clean customer");
  SnapshotPtr snap = service.Pin("customer");
  ASSERT_OK(service.AppendBatch("customer", {snap->relation.row(0)}).status());
  EXPECT_NE(Exec(&service, &a, "apply").find("applied"), std::string::npos);
  EXPECT_NE(Exec(&service, &a, "detect customer").find("total vio 0"), std::string::npos);
}

}  // namespace
}  // namespace semandaq::server
