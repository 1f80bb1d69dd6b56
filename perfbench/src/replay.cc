#include "replay.h"

#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "audit/render.h"
#include "audit/report.h"
#include "common/string_util.h"
#include "core/command_words.h"
#include "detect/native_detector.h"
#include "discovery/cfd_miner.h"
#include "perf_util.h"
#include "repair/batch_repair.h"
#include "repair/cost_model.h"
#include "server/snapshot.h"
#include "sql/engine.h"

namespace perfbench {

using semandaq::common::Result;
using semandaq::common::Status;
using semandaq::server::SemandaqService;
using semandaq::server::SnapshotPtr;
using semandaq::server::ThreadLease;
namespace core = semandaq::core;
namespace detect = semandaq::detect;
namespace relational = semandaq::relational;

namespace {

struct Ctx {
  SemandaqService& svc;
  uint64_t req;
  size_t* lanes;
};

Result<SnapshotPtr> PinOrFail(Ctx& c, const std::string& rel) {
  Scoped s(c.req, "service.pin");
  SnapshotPtr snap = c.svc.Pin(rel);
  if (snap == nullptr) return Status::NotFound("no relation named " + rel);
  return snap;
}

std::vector<semandaq::cfd::Cfd> CfdsOf(Ctx& c, const std::string& rel) {
  Scoped s(c.req, "service.cfds");
  return c.svc.system_unsynchronized().constraints().CfdsFor(rel);
}

ThreadLease Lease(Ctx& c, size_t requested) {
  Scoped s(c.req, "scheduler.acquire");
  ThreadLease lease = c.svc.scheduler().Acquire(requested);
  if (c.lanes != nullptr) *c.lanes = lease.lanes();
  return lease;
}

Result<size_t> SweepThreads(const std::vector<std::string>& args) {
  size_t threads = 1;
  semandaq::common::simd::Level level = semandaq::common::simd::Level::kAuto;
  for (size_t i = 1; i < args.size(); ++i) {
    bool matched = false;
    SEMANDAQ_RETURN_IF_ERROR(core::ParseSweepOption(args[i], &threads, &level, &matched));
    if (!matched) return Status::InvalidArgument("unsupported option " + args[i]);
  }
  return threads;
}

Result<detect::ViolationTable> RunDetect(Ctx& c, const SnapshotPtr& snap,
                                         std::vector<semandaq::cfd::Cfd> cfds,
                                         size_t requested) {
  ThreadLease lease = Lease(c, requested);
  Scoped s(c.req, "detect.detect");
  detect::DetectorOptions options;
  options.num_threads = lease.lanes();
  detect::NativeDetector detector(&snap->relation, std::move(cfds), options);
  detector.set_thread_pool(lease.pool());
  detector.set_encoded(&*snap->encoded);
  return detector.Detect();
}

Result<std::string> Detect(Ctx& c, const std::vector<std::string>& args) {
  SEMANDAQ_ASSIGN_OR_RETURN(size_t threads, SweepThreads(args));
  SEMANDAQ_ASSIGN_OR_RETURN(SnapshotPtr snap, PinOrFail(c, args[0]));
  SEMANDAQ_ASSIGN_OR_RETURN(auto table, RunDetect(c, snap, CfdsOf(c, args[0]), threads));
  Scoped s(c.req, "detect.summary");
  return table.Summary() + "\n";
}

Result<std::string> Map(Ctx& c, const std::vector<std::string>& args) {
  size_t n = 20;
  if (args.size() > 1) {
    SEMANDAQ_ASSIGN_OR_RETURN(n, core::ParseCount(args[1]));
  }
  SEMANDAQ_ASSIGN_OR_RETURN(SnapshotPtr snap, PinOrFail(c, args[0]));
  SEMANDAQ_ASSIGN_OR_RETURN(auto table, RunDetect(c, snap, CfdsOf(c, args[0]), 0));
  Scoped s(c.req, "audit.render");
  return semandaq::audit::AsciiRender::QualityMap(snap->relation, table, n);
}

Result<std::string> ReportVerb(Ctx& c, const std::vector<std::string>& args) {
  SEMANDAQ_ASSIGN_OR_RETURN(SnapshotPtr snap, PinOrFail(c, args[0]));
  std::vector<semandaq::cfd::Cfd> cfds = CfdsOf(c, args[0]);
  SEMANDAQ_ASSIGN_OR_RETURN(auto table, RunDetect(c, snap, cfds, 0));
  Result<semandaq::audit::AuditOutcome> outcome = Status::Internal("not run");
  {
    Scoped s(c.req, "audit.audit");
    semandaq::audit::DataAuditor auditor(&snap->relation, std::move(cfds));
    outcome = auditor.Audit(table);
  }
  SEMANDAQ_RETURN_IF_ERROR(outcome.status());
  Scoped s(c.req, "audit.render");
  const semandaq::audit::QualityReport report =
      semandaq::audit::BuildQualityReport(*outcome, snap->relation.schema());
  return semandaq::audit::AsciiRender::BarChart(report) + "\n" +
         semandaq::audit::AsciiRender::PieChart(report) + "\n" +
         semandaq::audit::AsciiRender::Statistics(report);
}

Result<std::string> Show(Ctx& c, const std::vector<std::string>& args) {
  SEMANDAQ_ASSIGN_OR_RETURN(SnapshotPtr snap, PinOrFail(c, args[0]));
  size_t n = 10;
  if (args.size() > 1) {
    SEMANDAQ_ASSIGN_OR_RETURN(n, core::ParseCount(args[1]));
  }
  Scoped s(c.req, "relational.render");
  return snap->relation.ToAsciiTable(n);
}

Result<std::string> Epoch(Ctx& c, const std::vector<std::string>& args) {
  SEMANDAQ_ASSIGN_OR_RETURN(SnapshotPtr snap, PinOrFail(c, args[0]));
  return "epoch " + std::to_string(snap->epoch) + "\n";
}

Result<std::string> Validate(Ctx& c, const std::vector<std::string>& args) {
  Result<semandaq::cfd::SatisfiabilityReport> report = Status::Internal("not run");
  {
    Scoped s(c.req, "cfd.validate");
    report = c.svc.system_unsynchronized().constraints().Validate(args[0]);
  }
  SEMANDAQ_RETURN_IF_ERROR(report.status());
  std::string out = report->satisfiable ? "SATISFIABLE" : "UNSATISFIABLE";
  out += ": " + report->explanation + "\n";
  if (report->satisfiable && !report->witness.empty()) {
    out += "witness:";
    for (size_t i = 0; i < report->witness.size(); ++i) {
      out += " " + report->witness_attrs[i] + "=" + report->witness[i].ToDisplayString();
    }
    out += "\n";
  }
  return out;
}

Result<std::string> Clean(Ctx& c, SemandaqService::SessionState* session,
                          const std::vector<std::string>& args) {
  SEMANDAQ_ASSIGN_OR_RETURN(size_t threads, SweepThreads(args));
  SEMANDAQ_ASSIGN_OR_RETURN(SnapshotPtr snap, PinOrFail(c, args[0]));
  std::vector<semandaq::cfd::Cfd> cfds = CfdsOf(c, args[0]);
  ThreadLease lease = Lease(c, threads);
  Result<semandaq::repair::RepairResult> repair = Status::Internal("not run");
  {
    Scoped s(c.req, "repair.run");
    semandaq::repair::RepairOptions options;
    options.num_threads = lease.lanes();
    options.pool = lease.pool();
    semandaq::repair::CostModel model(snap->relation.schema(), {});
    semandaq::repair::BatchRepair cleaner(&snap->relation, std::move(cfds),
                                          std::move(model), std::move(options));
    repair = cleaner.Run();
  }
  SEMANDAQ_RETURN_IF_ERROR(repair.status());
  std::ostringstream out;
  out << "candidate repair: " << repair->changes.size() << " cell(s), cost "
      << repair->total_cost << ", " << repair->iterations << " round(s), "
      << repair->null_escapes << " NULL escape(s), remaining "
      << repair->remaining_violations << "\nuse 'diff' to review, 'apply' to commit\n";
  session->pending_repair = std::move(*repair);
  session->pending_relation = args[0];
  session->pending_epoch = snap->epoch;
  return out.str();
}

Result<std::string> Mine(Ctx& c, const std::vector<std::string>& args) {
  SEMANDAQ_ASSIGN_OR_RETURN(size_t threads, SweepThreads(args));
  SEMANDAQ_ASSIGN_OR_RETURN(SnapshotPtr snap, PinOrFail(c, args[0]));
  ThreadLease lease = Lease(c, threads);
  Scoped s(c.req, "discovery.mine");
  semandaq::discovery::CfdMinerOptions options;
  options.num_threads = lease.lanes();
  options.pool = lease.pool();
  semandaq::discovery::CfdMiner miner(&snap->relation, options);
  SEMANDAQ_ASSIGN_OR_RETURN(std::vector<semandaq::cfd::Cfd> mined, miner.Mine());
  return "mined " + std::to_string(mined.size()) + " CFD(s) from " + args[0];
}

Result<std::string> Sql(Ctx& c, std::string_view query) {
  std::vector<SnapshotPtr> pinned;
  relational::Database scratch;
  std::vector<std::unique_ptr<relational::EncodedRelation>> frozen;
  std::unordered_map<const relational::Relation*, const relational::EncodedRelation*>
      encoded_of;
  {
    Scoped catalog(c.req, "sql.catalog");
    for (const std::string& name :
         c.svc.system_unsynchronized().database().RelationNames()) {
      SEMANDAQ_ASSIGN_OR_RETURN(SnapshotPtr snap, PinOrFail(c, name));
      pinned.push_back(std::move(snap));
    }
    for (const SnapshotPtr& snap : pinned) {
      {
        Scoped s(c.req, "relational.clone");
        SEMANDAQ_RETURN_IF_ERROR(scratch.AddRelation(snap->relation.Clone()));
      }
      Scoped s(c.req, "relational.freeze");
      relational::Relation* rel = scratch.FindMutableRelation(snap->name);
      frozen.push_back(
          std::make_unique<relational::EncodedRelation>(snap->encoded->Freeze(rel)));
      encoded_of[rel] = frozen.back().get();
    }
  }
  Result<relational::Relation> result = Status::Internal("not run");
  {
    Scoped s(c.req, "sql.query");
    semandaq::sql::Engine engine(&scratch);
    engine.set_encoded_provider(
        [&encoded_of](const relational::Relation* rel)
            -> const relational::EncodedRelation* {
          auto it = encoded_of.find(rel);
          return it == encoded_of.end() ? nullptr : it->second;
        });
    result = engine.Query(semandaq::common::Trim(query));
  }
  SEMANDAQ_RETURN_IF_ERROR(result.status());
  Scoped s(c.req, "relational.render");
  return result->ToAsciiTable(50);
}

}  // namespace

Result<std::string> Replay(SemandaqService& svc, SemandaqService::SessionState* session,
                           const std::string& line, uint64_t req, size_t* lanes) {
  Scoped root(req, kRequestSpan);
  Ctx c{svc, req, lanes};
  if (lanes != nullptr) *lanes = 0;
  const std::string_view trimmed = semandaq::common::Trim(line);
  const std::vector<std::string> words = core::Words(trimmed);
  const std::string verb = words.empty() ? "" : semandaq::common::ToLower(words[0]);
  const std::vector<std::string> args(words.begin() + (words.empty() ? 0 : 1),
                                      words.end());
  const bool has_rel = !args.empty();
  if (verb == "detect" && has_rel) return Detect(c, args);
  if (verb == "map" && has_rel) return Map(c, args);
  if (verb == "report" && has_rel) return ReportVerb(c, args);
  if (verb == "show" && has_rel) return Show(c, args);
  if (verb == "epoch" && has_rel) return Epoch(c, args);
  if (verb == "validate" && has_rel) return Validate(c, args);
  if (verb == "clean" && has_rel) return Clean(c, session, args);
  if (verb == "mine" && has_rel) return Mine(c, args);
  if (verb == "sql") return Sql(c, trimmed.substr(verb.size()));
  Scoped s(req, "service.execute");
  return svc.Execute(session, line);
}

Result<bool> ReplayAppend(SemandaqService& svc, const std::string& relation,
                          std::vector<relational::Row> rows, uint64_t req) {
  Scoped root(req, kRequestSpan);
  core::Semandaq& sys = svc.system_unsynchronized();
  relational::Relation* rel = sys.database().FindMutableRelation(relation);
  if (rel == nullptr) return Status::NotFound("no relation named " + relation);
  {
    Scoped s(req, "relational.insert");
    for (relational::Row& row : rows) {
      SEMANDAQ_RETURN_IF_ERROR(rel->Insert(std::move(row)).status());
    }
  }
  Result<bool> compacted = false;
  {
    Scoped s(req, "storage.compact");
    compacted = sys.CompactIfDue(relation);
  }
  SEMANDAQ_RETURN_IF_ERROR(compacted.status());
  relational::EncodedRelation* warm = nullptr;
  {
    Scoped s(req, "relational.encode_sync");
    warm = sys.WarmOrEncode(relation);
  }
  Scoped s(req, "snapshot.publish");
  SnapshotPtr snap = semandaq::server::BuildRelationSnapshot(*rel, *warm, 0);
  return *compacted;
}

std::string MinePrefix(const std::string& response) {
  const size_t cut = response.find(';');
  return cut == std::string::npos ? response : response.substr(0, cut);
}

}  // namespace perfbench
