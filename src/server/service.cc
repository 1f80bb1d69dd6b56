#include "server/service.h"

#include <algorithm>
#include <climits>
#include <sstream>
#include <utility>

#include "audit/render.h"
#include "audit/report.h"
#include "common/string_util.h"
#include "core/command_words.h"
#include "core/explorer.h"
#include "detect/sql_detector.h"
#include "discovery/cfd_miner.h"
#include "relational/csv_io.h"
#include "repair/cost_model.h"
#include "sql/engine.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace semandaq::server {

using common::Result;
using common::Status;

namespace {

/// The scratch catalog the SQL verbs run on: one clone per pinned epoch.
/// They never touch the live master and hold no lock while they run. The
/// clones are unmutated and carry their epoch's code columns, so the SQL
/// executor adopts those instead of re-encoding.
Result<relational::Database> ScratchCatalog(
    const std::vector<SnapshotPtr>& pinned) {
  relational::Database scratch;
  for (const SnapshotPtr& snap : pinned) {
    SEMANDAQ_RETURN_IF_ERROR(scratch.AddRelation(snap->relation.Clone()));
  }
  return scratch;
}

}  // namespace

SemandaqService::SemandaqService(ServiceOptions options)
    : scheduler_(options.scheduler_lanes),
      admission_(options.admission, scheduler_.total_lanes()) {
  sys_.set_wal_sync_policy(options.wal_sync);
}

std::string SemandaqService::Help() {
  return
      "commands:\n"
      "  help | ls\n"
      "  load NAME PATH            import CSV as relation NAME\n"
      "  save REL PATH [compact=N] [sync=MODE]\n"
      "                            persist REL as a binary columnar snapshot\n"
      "                            (WAL sidecar at PATH.wal); compact=N folds\n"
      "                            the sidecar back into the snapshot once it\n"
      "                            holds N mutation records; sync=MODE picks\n"
      "                            WAL durability: always (fdatasync every\n"
      "                            record), batch(N), or none\n"
      "  open NAME PATH            load a snapshot (+ WAL tail) as NAME;\n"
      "                            detect/mine need no re-encode afterwards\n"
      "  savedb DIR                persist every relation into DIR plus a\n"
      "                            catalog manifest (whole-database save)\n"
      "  opendb DIR                reopen a savedb directory (snapshots +\n"
      "                            WAL tails; warm restart)\n"
      "  gen customer|hospital N NOISE%   generate a workload (dirty + gold)\n"
      "  show REL [N]              print up to N tuples (default 10)\n"
      "  cfd DEFINITION            e.g. cfd customer: [CC=44] -> [CNT=UK]\n"
      "  cfds                      list registered CFDs\n"
      "  validate REL              satisfiability analysis of Sigma(REL)\n"
      "  mine REL [threads=N] [simd=LEVEL]\n"
      "                            discover CFDs from REL into Sigma\n"
      "                            (threads=N fans the levelwise sweep out,\n"
      "                            0 = all hardware threads; mined output is\n"
      "                            identical for every thread count and tier)\n"
      "  detect REL [sql] [threads=N] [simd=scalar|sse2|avx2]\n"
      "                            run the error detector (native or SQL\n"
      "                            path; simd= forces a kernel tier, default\n"
      "                            = best supported; threads=N is accepted\n"
      "                            and ignored: detection runs serially)\n"
      "  map REL [N]               tuple-level data quality map\n"
      "  report REL                data quality report\n"
      "  explore REL CFD# PAT#     drill-down tables for a pattern\n"
      "  clean REL [threads=N] [simd=LEVEL]\n"
      "                            compute a candidate repair (pending);\n"
      "                            the repair is identical for every tier;\n"
      "                            threads=N is accepted and ignored\n"
      "  diff                      show the pending repair\n"
      "  apply                     write the pending repair back (fails if\n"
      "                            cells were rewritten since its clean)\n"
      "  sql QUERY                 run a SELECT statement\n"
      "  epoch REL                 latest published snapshot epoch of REL\n"
      "  stats                     server counters (lanes, queues, sheds, "
      "timeouts, cancels)\n";
}

std::string SemandaqService::RenderStats() const {
  std::ostringstream out;
  out << "lanes.total=" << scheduler_.total_lanes() << "\n"
      << "lanes.free=" << scheduler_.available() << "\n"
      << "admission.enabled=" << (admission_.enabled() ? 1 : 0) << "\n"
      << "cheap.active=" << admission_.active(RequestClass::kCheap) << "\n"
      << "cheap.queued=" << admission_.queued(RequestClass::kCheap) << "\n"
      << "expensive.active=" << admission_.active(RequestClass::kExpensive)
      << "\n"
      << "expensive.queued=" << admission_.queued(RequestClass::kExpensive)
      << "\n"
      << "sheds=" << stats_.sheds.load(std::memory_order_relaxed) << "\n"
      << "timeouts=" << stats_.timeouts.load(std::memory_order_relaxed) << "\n"
      << "cancels=" << stats_.cancels.load(std::memory_order_relaxed) << "\n"
      << "epochs_served="
      << stats_.epochs_served.load(std::memory_order_relaxed) << "\n";
  return out.str();
}

std::shared_ptr<SemandaqService::Slot> SemandaqService::SlotFor(
    const std::string& relation, bool create) {
  const std::string key = common::ToLower(relation);
  std::lock_guard<std::mutex> lock(slots_mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) return it->second;
  if (!create) return nullptr;
  auto slot = std::make_shared<Slot>();
  slots_[key] = slot;
  return slot;
}

common::Status SemandaqService::RepublishLocked(const std::string& relation) {
  std::shared_ptr<Slot> slot = SlotFor(relation, true);
  relational::Relation* rel = sys_.database().FindMutableRelation(relation);
  if (rel == nullptr) {
    std::atomic_store(&slot->snap, SnapshotPtr());
    return Status::OK();
  }
  relational::EncodedRelation* warm = sys_.WarmOrEncode(relation);
  const uint64_t epoch = slot->next_epoch++;
  if (rel->overwrite_version() != slot->overwrite_version) {
    slot->overwrite_version = rel->overwrite_version();
    slot->rewrite_epoch = epoch;
  }
  SnapshotPtr snap = BuildRelationSnapshot(*rel, *warm, epoch);
  std::atomic_store(&slot->snap, std::move(snap));
  return Status::OK();
}

SnapshotPtr SemandaqService::Pin(const std::string& relation) {
  if (std::shared_ptr<Slot> slot = SlotFor(relation, false)) {
    if (SnapshotPtr snap = std::atomic_load(&slot->snap)) {
      stats_.epochs_served.fetch_add(1, std::memory_order_relaxed);
      return snap;
    }
  }
  // Nothing published yet: publish the first epoch under the writer lock
  // (a relation connected through the facade directly, or a lost race
  // with a concurrent drop — in which case stay empty).
  std::lock_guard<std::mutex> lock(sys_mu_);
  if (sys_.database().FindRelation(relation) == nullptr) return nullptr;
  if (!RepublishLocked(relation).ok()) return nullptr;
  SnapshotPtr snap = std::atomic_load(&SlotFor(relation, false)->snap);
  if (snap != nullptr) {
    stats_.epochs_served.fetch_add(1, std::memory_order_relaxed);
  }
  return snap;
}

std::vector<cfd::Cfd> SemandaqService::CfdsFor(const std::string& relation) {
  std::lock_guard<std::mutex> lock(sys_mu_);
  return sys_.constraints().CfdsFor(relation);
}

common::Result<SemandaqService::PinnedDetection> SemandaqService::DetectPinned(
    const std::string& relation, detect::DetectorOptions options,
    common::CancelToken* cancel) {
  PinnedDetection out;
  out.snap = Pin(relation);
  if (out.snap == nullptr) return Status::NotFound("no relation named " + relation);
  out.cfds = CfdsFor(relation);
  options.cancel = cancel;
  detect::NativeDetector detector(&out.snap->relation, out.cfds, options);
  detector.set_encoded(&*out.snap->encoded);
  SEMANDAQ_ASSIGN_OR_RETURN(out.table, detector.Detect());
  return out;
}

common::Result<size_t> SemandaqService::AppendBatch(
    const std::string& relation, std::vector<relational::Row> rows) {
  std::lock_guard<std::mutex> lock(sys_mu_);
  relational::Relation* rel = sys_.database().FindMutableRelation(relation);
  if (rel == nullptr) return Status::NotFound("no relation named " + relation);
  for (relational::Row& row : rows) {
    SEMANDAQ_RETURN_IF_ERROR(rel->Insert(std::move(row)).status());
  }
  SEMANDAQ_RETURN_IF_ERROR(sys_.CompactIfDue(relation).status());
  SEMANDAQ_RETURN_IF_ERROR(RepublishLocked(relation));
  return rows.size();
}

common::Result<std::string> SemandaqService::Execute(
    SessionState* session, std::string_view command_line, RequestContext* ctx) {
  const std::string_view line = common::Trim(command_line);
  if (line.empty() || line.front() == '#') return std::string();
  const std::vector<std::string> words = core::Words(line);
  const std::string verb = common::ToLower(words[0]);
  const std::vector<std::string> args(words.begin() + 1, words.end());

  // Cost-aware admission: classify, then run under a per-class slot (or
  // shed with a retry hint when the class's queue is full). Cancellation
  // covers the queue wait too — a deadline-expired request must not
  // consume the slot it queued for.
  const RequestClass cls = ClassifyVerb(verb);
  const AdmissionController::Decision d =
      admission_.Admit(cls, ctx->cancel);
  if (d.cancelled) return ctx->cancel->Check();
  if (!d.admitted) {
    stats_.sheds.fetch_add(1, std::memory_order_relaxed);
    ctx->retry_after_ms = d.retry_after_ms;
    return Status::Unavailable(
        "server busy (" +
        std::string(cls == RequestClass::kExpensive ? "expensive" : "cheap") +
        " queue full), retry in " + std::to_string(d.retry_after_ms) + "ms");
  }
  struct SlotGuard {
    AdmissionController* admission;
    RequestClass cls;
    ~SlotGuard() { admission->Release(cls); }
  } guard{&admission_, cls};
  return ExecuteAdmitted(session, line, verb, args, ctx->cancel);
}

common::Result<std::string> SemandaqService::ExecuteAdmitted(
    SessionState* session, std::string_view line, const std::string& verb,
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (verb == "help") return Help();
  if (verb == "stats") return RenderStats();

  // Read commands: pin an epoch and compute on it lock-free.
  if (verb == "show") return CmdShow(args);
  if (verb == "epoch") return CmdEpoch(args);
  if (verb == "detect") return CmdDetect(args, cancel);
  if (verb == "mine") return CmdMine(args, cancel);
  if (verb == "clean") return CmdClean(session, args, cancel);
  if (verb == "map") return CmdMap(args, cancel);
  if (verb == "report") return CmdReport(args, cancel);
  if (verb == "explore") return CmdExplore(args, cancel);
  if (verb == "sql") return CmdSql(line.substr(verb.size()), cancel);
  if (verb == "diff") return CmdDiff(session);
  if (verb == "apply") return CmdApply(session);

  // Everything else mutates the master or walks the shared catalog:
  // serialized behind the writer lock, republishing what it touched.
  std::lock_guard<std::mutex> lock(sys_mu_);

  if (verb == "ls") {
    std::string out;
    for (const auto& name : sys_.database().RelationNames()) {
      const auto* rel = sys_.database().FindRelation(name);
      out += name + " (" + std::to_string(rel->size()) + " tuples: " +
             rel->schema().ToString() + ")\n";
    }
    return out.empty() ? std::string("(no relations)\n") : out;
  }

  if (verb == "load") {
    if (args.size() != 2) {
      return Status::InvalidArgument("usage: load NAME PATH");
    }
    SEMANDAQ_ASSIGN_OR_RETURN(relational::Relation rel,
                              relational::LoadRelationCsv(args[0], args[1]));
    SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(rel)));
    SEMANDAQ_RETURN_IF_ERROR(RepublishLocked(args[0]));
    return "loaded " + args[0] + "\n";
  }

  if (verb == "save") {
    if (args.size() < 2) {
      return Status::InvalidArgument(
          "usage: save REL PATH [compact=N] [sync=always|batch(N)|none]");
    }
    size_t compact_after = 0;
    std::optional<storage::SyncPolicy> sync;
    SEMANDAQ_RETURN_IF_ERROR(
        core::ParseSaveOptions(args, 2, &compact_after, &sync));
    SEMANDAQ_ASSIGN_OR_RETURN(
        auto stats, sys_.SaveRelation(args[0], args[1], compact_after, sync));
    std::string out = "saved " + args[0] + " to " + args[1] + " (" +
                      std::to_string(stats.live_rows) + " tuples, " +
                      std::to_string(stats.num_columns) + " columns, " +
                      std::to_string(stats.file_bytes) + " bytes)";
    if (compact_after > 0) {
      out += "; compaction armed at " + std::to_string(compact_after) +
             " WAL record(s)";
    }
    if (sync.has_value()) out += "; wal sync=" + sync->ToString();
    return out + "\n";
  }

  if (verb == "open") {
    if (args.size() != 2) {
      return Status::InvalidArgument("usage: open NAME PATH");
    }
    SEMANDAQ_ASSIGN_OR_RETURN(auto stats,
                              sys_.OpenRelation(args[0], args[1], cancel));
    SEMANDAQ_RETURN_IF_ERROR(RepublishLocked(args[0]));
    return "opened " + args[0] + " from " + args[1] + " (" +
           std::to_string(stats.live_rows) + " tuples, " +
           std::to_string(stats.num_columns) + " columns, +" +
           std::to_string(stats.wal_records) + " wal record(s))\n";
  }

  if (verb == "savedb") {
    if (args.size() != 1) return Status::InvalidArgument("usage: savedb DIR");
    SEMANDAQ_ASSIGN_OR_RETURN(auto stats, sys_.SaveDatabase(args[0]));
    return "saved " + std::to_string(stats.relations) + " relation(s) to " +
           args[0] + " (manifest " + stats.manifest_path + ")\n";
  }

  if (verb == "opendb") {
    if (args.size() != 1) return Status::InvalidArgument("usage: opendb DIR");
    SEMANDAQ_ASSIGN_OR_RETURN(auto stats, sys_.OpenDatabase(args[0], cancel));
    for (const auto& name : sys_.database().RelationNames()) {
      SEMANDAQ_RETURN_IF_ERROR(RepublishLocked(name));
    }
    return "opened " + std::to_string(stats.relations) + " relation(s) from " +
           args[0] + " (" + std::to_string(stats.live_rows) + " tuples, +" +
           std::to_string(stats.wal_records) + " wal record(s))\n";
  }

  if (verb == "gen") {
    if (args.size() != 3) {
      return Status::InvalidArgument("usage: gen customer|hospital N NOISE%");
    }
    SEMANDAQ_ASSIGN_OR_RETURN(size_t n, core::ParseCount(args[1]));
    SEMANDAQ_ASSIGN_OR_RETURN(size_t noise_pct, core::ParseCount(args[2]));
    const double noise = static_cast<double>(noise_pct) / 100.0;
    if (common::EqualsIgnoreCase(args[0], "customer")) {
      workload::CustomerWorkloadOptions opts;
      opts.num_tuples = n;
      opts.noise_rate = noise;
      auto wl = workload::CustomerGenerator::Generate(opts);
      const std::string dirty = wl.dirty.name();
      const std::string clean = wl.clean.name();
      SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.dirty)));
      SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.clean)));
      SEMANDAQ_RETURN_IF_ERROR(RepublishLocked(dirty));
      SEMANDAQ_RETURN_IF_ERROR(RepublishLocked(clean));
      return "generated customer (+ customer_gold), " + std::to_string(n) +
             " tuples at " + args[2] + "% noise\n";
    }
    if (common::EqualsIgnoreCase(args[0], "hospital")) {
      workload::HospitalWorkloadOptions opts;
      opts.num_tuples = n;
      opts.noise_rate = noise;
      auto wl = workload::HospitalGenerator::Generate(opts);
      const std::string dirty = wl.dirty.name();
      const std::string clean = wl.clean.name();
      SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.dirty)));
      SEMANDAQ_RETURN_IF_ERROR(sys_.Connect(std::move(wl.clean)));
      SEMANDAQ_RETURN_IF_ERROR(RepublishLocked(dirty));
      SEMANDAQ_RETURN_IF_ERROR(RepublishLocked(clean));
      return "generated hospital (+ hospital_gold), " + std::to_string(n) +
             " tuples at " + args[2] + "% noise\n";
    }
    return Status::InvalidArgument("unknown workload: " + args[0]);
  }

  if (verb == "cfd") {
    SEMANDAQ_RETURN_IF_ERROR(
        sys_.constraints().AddCfdsFromText(common::Trim(line.substr(verb.size()))));
    return "added; Sigma now has " + std::to_string(sys_.constraints().size()) +
           " CFD(s)\n";
  }

  if (verb == "cfds") {
    std::string out;
    for (const auto& c : sys_.constraints().cfds()) out += c.ToString() + "\n";
    return out.empty() ? std::string("(no CFDs)\n") : out;
  }

  if (verb == "validate") {
    if (args.size() != 1) return Status::InvalidArgument("usage: validate REL");
    SEMANDAQ_ASSIGN_OR_RETURN(auto report, sys_.constraints().Validate(args[0]));
    std::string out = report.satisfiable ? "SATISFIABLE" : "UNSATISFIABLE";
    out += ": " + report.explanation + "\n";
    if (report.satisfiable && !report.witness.empty()) {
      out += "witness:";
      for (size_t i = 0; i < report.witness.size(); ++i) {
        out += " " + report.witness_attrs[i] + "=" +
               report.witness[i].ToDisplayString();
      }
      out += "\n";
    }
    return out;
  }

  return Status::InvalidArgument("unknown command '" + verb + "' (try: help)");
}

common::Result<std::string> SemandaqService::CmdShow(
    const std::vector<std::string>& args) {
  if (args.empty()) return Status::InvalidArgument("usage: show REL [N]");
  SnapshotPtr snap = Pin(args[0]);
  if (snap == nullptr) return Status::NotFound("no relation named " + args[0]);
  size_t n = 10;
  if (args.size() > 1) {
    SEMANDAQ_ASSIGN_OR_RETURN(n, core::ParseCount(args[1]));
  }
  return snap->relation.ToAsciiTable(n);
}

common::Result<std::string> SemandaqService::CmdEpoch(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: epoch REL");
  SnapshotPtr snap = Pin(args[0]);
  if (snap == nullptr) return Status::NotFound("no relation named " + args[0]);
  return "epoch " + std::to_string(snap->epoch) + "\n";
}

common::Result<std::string> SemandaqService::CmdDetect(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (args.empty()) {
    return Status::InvalidArgument(
        "usage: detect REL [sql] [threads=N] [simd=LEVEL]");
  }
  bool want_sql = false;
  detect::DetectorOptions options;
  size_t threads = 1;  // validated, then ignored: detection runs serially
  bool native_opts_given = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (common::EqualsIgnoreCase(args[i], "sql")) {
      want_sql = true;
      continue;
    }
    bool matched = false;
    SEMANDAQ_RETURN_IF_ERROR(core::ParseSweepOption(
        args[i], &threads, &options.simd_level, &matched));
    if (!matched) {
      return Status::InvalidArgument(
          "unknown detect option '" + args[i] +
          "' (usage: detect REL [sql] [threads=N] [simd=LEVEL])");
    }
    native_opts_given = true;
  }
  if (want_sql && native_opts_given) {
    return Status::InvalidArgument(
        "threads=/simd= apply to the native detector only");
  }
  if (want_sql) {
    // The SQL detector stores its tableaus beside the data: it runs on a
    // scratch catalog of the pinned epoch, never on the master.
    SnapshotPtr snap = Pin(args[0]);
    if (snap == nullptr) return Status::NotFound("no relation named " + args[0]);
    SEMANDAQ_ASSIGN_OR_RETURN(relational::Database scratch, ScratchCatalog({snap}));
    detect::SqlDetector detector(&scratch, args[0], CfdsFor(args[0]));
    SEMANDAQ_ASSIGN_OR_RETURN(auto table, detector.Detect());
    return table.Summary() + "\n";
  }

  SEMANDAQ_ASSIGN_OR_RETURN(PinnedDetection d,
                            DetectPinned(args[0], options, cancel));
  return d.table.Summary() + "\n";
}

common::Result<std::string> SemandaqService::CmdMine(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (args.empty()) {
    return Status::InvalidArgument("usage: mine REL [threads=N] [simd=LEVEL]");
  }
  discovery::CfdMinerOptions options;
  for (size_t i = 1; i < args.size(); ++i) {
    bool matched = false;
    SEMANDAQ_RETURN_IF_ERROR(core::ParseSweepOption(
        args[i], &options.num_threads, &options.simd_level, &matched));
    if (!matched) {
      return Status::InvalidArgument(
          "unknown mine option '" + args[i] +
          "' (usage: mine REL [threads=N] [simd=LEVEL])");
    }
  }
  SnapshotPtr snap = Pin(args[0]);
  if (snap == nullptr) return Status::NotFound("no relation named " + args[0]);
  ThreadLease lease = scheduler_.Acquire(options.num_threads);
  options.num_threads = lease.lanes();
  options.pool = lease.pool();
  options.cancel = cancel;
  discovery::CfdMiner miner(&snap->relation, options);
  SEMANDAQ_ASSIGN_OR_RETURN(std::vector<cfd::Cfd> mined, miner.Mine());
  // The sweep ran on the pinned epoch; only the Sigma append takes the
  // writer lock.
  size_t added = 0;
  {
    std::lock_guard<std::mutex> lock(sys_mu_);
    for (cfd::Cfd& c : mined) {
      SEMANDAQ_RETURN_IF_ERROR(sys_.constraints().AddCfd(std::move(c)));
      ++added;
    }
    return "mined " + std::to_string(added) + " CFD(s) from " + args[0] +
           "; Sigma now has " + std::to_string(sys_.constraints().size()) +
           " CFD(s)\n";
  }
}

common::Result<std::string> SemandaqService::CmdClean(
    SessionState* session, const std::vector<std::string>& args,
    common::CancelToken* cancel) {
  if (args.empty()) {
    return Status::InvalidArgument("usage: clean REL [threads=N] [simd=LEVEL]");
  }
  repair::RepairOptions options;
  size_t threads = 1;  // validated, then ignored: repair runs serially
  for (size_t i = 1; i < args.size(); ++i) {
    bool matched = false;
    SEMANDAQ_RETURN_IF_ERROR(core::ParseSweepOption(
        args[i], &threads, &options.simd_level, &matched));
    if (!matched) {
      return Status::InvalidArgument(
          "unknown clean option '" + args[i] +
          "' (usage: clean REL [threads=N] [simd=LEVEL])");
    }
  }
  SnapshotPtr snap = Pin(args[0]);
  if (snap == nullptr) return Status::NotFound("no relation named " + args[0]);
  std::vector<cfd::Cfd> cfds = CfdsFor(args[0]);
  options.cancel = cancel;
  repair::CostModel model(snap->relation.schema(), {});
  repair::BatchRepair cleaner(&snap->relation, std::move(cfds),
                              std::move(model), std::move(options));
  SEMANDAQ_ASSIGN_OR_RETURN(auto repair, cleaner.Run());
  std::ostringstream out;
  out << "candidate repair: " << repair.changes.size() << " cell(s), cost "
      << repair.total_cost << ", " << repair.iterations << " round(s), "
      << repair.null_escapes << " NULL escape(s), remaining "
      << repair.remaining_violations
      << "\nuse 'diff' to review, 'apply' to commit\n";
  session->pending_repair = std::move(repair);
  session->pending_relation = args[0];
  session->pending_epoch = snap->epoch;
  return out.str();
}

common::Result<std::string> SemandaqService::CmdDiff(SessionState* session) {
  if (!session->pending_repair.has_value()) {
    return Status::FailedPrecondition("no pending repair (run 'clean REL' first)");
  }
  SnapshotPtr snap = Pin(session->pending_relation);
  if (snap == nullptr) {
    return Status::NotFound("no relation named " + session->pending_relation);
  }
  std::ostringstream out;
  out << "pending repair for '" << session->pending_relation << "':\n";
  for (const auto& ch : session->pending_repair->changes) {
    out << "  #" << ch.tid << " " << snap->relation.schema().attr(ch.col).name
        << ": " << ch.original.ToDisplayString() << " -> "
        << ch.repaired.ToDisplayString();
    if (!ch.alternatives.empty()) {
      out << "   (alternatives:";
      for (const auto& [v, cost] : ch.alternatives) {
        out << " " << v.ToDisplayString();
      }
      out << ")";
    }
    out << "\n";
  }
  return out.str();
}

common::Result<std::string> SemandaqService::CmdApply(SessionState* session) {
  if (!session->pending_repair.has_value()) {
    return Status::FailedPrecondition("no pending repair (run 'clean REL' first)");
  }
  std::lock_guard<std::mutex> lock(sys_mu_);
  // Appends leave a repair valid; an in-place rewrite after the epoch it
  // was computed on (another session's apply) makes it stale, unless every
  // change is already in place, so that writing it changes no value.
  const std::shared_ptr<Slot> slot = SlotFor(session->pending_relation, false);
  const relational::Relation* rel =
      sys_.database().FindRelation(session->pending_relation);
  const auto& changes = session->pending_repair->changes;
  const auto in_place = [rel](const repair::CellChange& ch) {
    return rel->IsLive(ch.tid) && rel->cell(ch.tid, ch.col) == ch.repaired;
  };
  if (slot != nullptr && rel != nullptr &&
      slot->rewrite_epoch > session->pending_epoch &&
      !std::all_of(changes.begin(), changes.end(), in_place)) {
    return Status::FailedPrecondition(
        "pending repair of '" + session->pending_relation +
        "' is stale: cells were rewritten after epoch " +
        std::to_string(session->pending_epoch) + " (run 'clean' again)");
  }
  SEMANDAQ_RETURN_IF_ERROR(
      sys_.ApplyRepair(session->pending_relation, *session->pending_repair));
  const size_t n = changes.size();
  session->pending_repair.reset();
  std::string out = "applied " + std::to_string(n) + " change(s) to " +
                    session->pending_relation;
  SEMANDAQ_ASSIGN_OR_RETURN(bool compacted,
                            sys_.CompactIfDue(session->pending_relation));
  if (compacted) out += " (snapshot compacted)";
  SEMANDAQ_RETURN_IF_ERROR(RepublishLocked(session->pending_relation));
  return out + "\n";
}

common::Result<std::string> SemandaqService::CmdMap(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (args.empty()) return Status::InvalidArgument("usage: map REL [N]");
  size_t n = 20;
  if (args.size() > 1) {
    SEMANDAQ_ASSIGN_OR_RETURN(n, core::ParseCount(args[1]));
  }
  SEMANDAQ_ASSIGN_OR_RETURN(PinnedDetection d, DetectPinned(args[0], {}, cancel));
  return audit::AsciiRender::QualityMap(d.snap->relation, d.table, n);
}

common::Result<std::string> SemandaqService::CmdReport(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (args.size() != 1) return Status::InvalidArgument("usage: report REL");
  SEMANDAQ_ASSIGN_OR_RETURN(PinnedDetection d, DetectPinned(args[0], {}, cancel));
  audit::DataAuditor auditor(&d.snap->relation, std::move(d.cfds));
  SEMANDAQ_ASSIGN_OR_RETURN(auto outcome, auditor.Audit(d.table));
  const audit::QualityReport report =
      audit::BuildQualityReport(outcome, d.snap->relation.schema());
  return audit::AsciiRender::BarChart(report) + "\n" +
         audit::AsciiRender::PieChart(report) + "\n" +
         audit::AsciiRender::Statistics(report);
}

common::Result<std::string> SemandaqService::CmdExplore(
    const std::vector<std::string>& args, common::CancelToken* cancel) {
  if (args.size() < 3) {
    return Status::InvalidArgument("usage: explore REL CFD# PAT#");
  }
  SEMANDAQ_ASSIGN_OR_RETURN(size_t ci, core::ParseCount(args[1]));
  SEMANDAQ_ASSIGN_OR_RETURN(size_t pi, core::ParseCount(args[2]));
  SEMANDAQ_ASSIGN_OR_RETURN(PinnedDetection d, DetectPinned(args[0], {}, cancel));
  if (ci > INT_MAX) return Status::OutOfRange("no CFD with index " + args[1]);
  if (pi > INT_MAX) return Status::OutOfRange("no pattern with index " + args[2]);
  // The explorer takes the pinned detection; both die with this call.
  const core::DataExplorer explorer(&d.snap->relation, std::move(d.cfds),
                                    std::move(d.table));
  const int cfd = static_cast<int>(ci);
  const int pattern = static_cast<int>(pi);
  // Drill into the first matching LHS automatically.
  SEMANDAQ_ASSIGN_OR_RETURN(auto matches, explorer.LhsMatches(cfd, pattern));
  if (matches.empty()) return std::string("(no tuples match this pattern)\n");
  return explorer.RenderDrilldown(cfd, pattern, matches.front().lhs);
}

common::Result<std::string> SemandaqService::CmdSql(
    std::string_view query, common::CancelToken* cancel) {
  // Pin one consistent set: the latest epoch of every published relation.
  std::vector<SnapshotPtr> pinned;
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    for (const auto& [key, slot] : slots_) {
      if (SnapshotPtr snap = std::atomic_load(&slot->snap)) {
        pinned.push_back(std::move(snap));
      }
    }
  }
  SEMANDAQ_ASSIGN_OR_RETURN(relational::Database scratch, ScratchCatalog(pinned));
  sql::Engine engine(&scratch);
  engine.set_cancel(cancel);
  SEMANDAQ_ASSIGN_OR_RETURN(relational::Relation result,
                            engine.Query(common::Trim(query)));
  return result.ToAsciiTable(50);
}

}  // namespace semandaq::server
