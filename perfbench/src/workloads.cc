#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/command_words.h"
#include "core/semandaq.h"
#include "detect/native_detector.h"
#include "discovery/fd_miner.h"
#include "replay.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/service.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "workload/customer_gen.h"
#include "workload/hospital_gen.h"

namespace perfbench {

namespace {

using semandaq::common::Result;
using semandaq::common::Status;
using semandaq::relational::Relation;
using semandaq::relational::Row;
using semandaq::server::SemandaqService;
using Session = SemandaqService::SessionState;
namespace workload = semandaq::workload;

// ------------------------------------------------------------- per-layer

/// Every per-layer metric the traced run reports, with the end-to-end
/// metric and workload it should move (perfbench/README.md).
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
};
constexpr LayerMetric kLayers[] = {
    {"server.wire_us", "us", "cheap_ms_p50,ops_s@interactive-64k"},
    {"server.frame_codec_us", "us", "cheap_ms_p50@interactive-64k"},
    {"server.response_kb", "KB", "ops_s@interactive-64k"},
    {"scheduler.acquire_us", "us", "detect_ms_p99@interactive-64k"},
    {"scheduler.lanes_granted", "lanes", "detect_ms_p50@analytics-1m"},
    {"service.sheds", "count", "fail_frac@interactive-64k"},
    {"service.epochs_served", "count", "cheap_ms_p50@interactive-64k"},
    {"service.pin_us", "us", "cheap_ms_p50@interactive-64k"},
    {"service.execute_ms.detect", "ms", "detect_ms_p50@all"},
    {"service.execute_ms.epoch", "ms", "cheap_ms_p50@interactive-64k"},
    {"service.execute_ms.show", "ms", "cheap_ms_p50@interactive-64k"},
    {"service.execute_ms.validate", "ms", "cheap_ms_p50@interactive-64k"},
    {"service.execute_ms.map", "ms", "map_ms_p50@interactive-64k"},
    {"service.execute_ms.sql", "ms", "sql_ms_p50@analytics-1m"},
    {"service.execute_ms.report", "ms", "report_ms_p50@analytics-1m"},
    {"service.execute_ms.clean", "ms", "clean_ms_p50@analytics-1m"},
    {"service.execute_ms.mine", "ms", "mine_ms_p50@analytics-1m"},
    {"service.overhead_us.detect", "us", "detect_ms_p50@interactive-64k"},
    {"service.append_batch_ms", "ms", "append_ms_p50@ingest-64k"},
    {"snapshot.publish_ms", "ms", "append_ms_p50@ingest-64k"},
    {"relational.insert_us_per_row", "us", "append_ms_p50@ingest-64k"},
    {"relational.encode_sync_ms", "ms", "append_ms_p50@ingest-64k"},
    {"relational.clone_ms", "ms", "sql_ms_p50@analytics-1m"},
    {"relational.freeze_ms", "ms", "sql_ms_p50@analytics-1m"},
    {"storage.wal_records", "count", "append_ms_p99@ingest-64k"},
    {"storage.wal_bytes_per_user_byte", "ratio", "append_ms_p99@ingest-64k"},
    {"storage.compactions", "count", "append_ms_p99@ingest-64k"},
    {"storage.compaction_ms", "ms", "append_ms_p99@ingest-64k"},
    {"storage.open_ms", "ms", "setup_s@analytics-1m"},
    {"storage.replay_records_s", "records/s", "setup_s@analytics-1m"},
    {"storage.snapshot_bytes_per_user_byte", "ratio", "peak_rss_mb@analytics-1m"},
    {"detect.detect_ms", "ms", "detect_ms_p50@analytics-1m"},
    {"detect.detect_ms_1lane", "ms", "detect_ms_p50@analytics-1m"},
    {"detect.speedup_4v1", "x", "detect_ms_p50@analytics-1m"},
    {"detect.summary_us", "us", "detect_ms_p50@interactive-64k"},
    {"detect.violating_tuples", "count", "detect_ms_p50@all"},
    {"detect.groups", "count", "detect_ms_p50@all"},
    {"discovery.mine_ms", "ms", "mine_ms_p50@analytics-1m"},
    {"discovery.fd_mine_ms", "ms", "mine_ms_p50@analytics-1m"},
    {"discovery.cfds_mined", "count", "mine_ms_p50@analytics-1m"},
    {"audit.audit_ms", "ms", "report_ms_p50@analytics-1m"},
    {"audit.render_ms", "ms", "report_ms_p50@analytics-1m,map_ms_p50@interactive-64k"},
    {"repair.run_ms", "ms", "clean_ms_p50@analytics-1m,ingest-64k"},
    {"repair.rounds", "count", "clean_ms_p50@analytics-1m"},
    {"repair.cells_changed", "count", "clean_ms_p50@analytics-1m"},
    {"sql.query_ms", "ms", "sql_ms_p50@analytics-1m,interactive-64k"},
    {"sql.catalog_ms", "ms", "sql_ms_p50@analytics-1m,interactive-64k"},
    {"cfd.validate_us", "us", "cheap_ms_p50@interactive-64k"},
    {"generator.late_ms_max", "ms", "append_ms_p99@ingest-64k"},
    {"trace.coverage", "ratio", "all"},
    {"trace.overhead_pct", "%", "all"},
};

/// Verbs every traced run reports an Execute time for; a verb the
/// workload's stream lacks is probed once on the workload's data.
const char* const kVerbs[] = {"detect", "epoch", "show", "validate", "map",
                              "sql", "report", "clean", "mine"};

// ------------------------------------------------------------------ data

struct Sizes {
  size_t customer = 0;
  size_t hospital = 0;
  size_t tail = 0;
  size_t ref = 0;
};

Relation GenCustomer(size_t n, uint64_t seed, bool clean = false) {
  workload::CustomerWorkloadOptions opts;
  opts.num_tuples = n;
  opts.noise_rate = 0.05;
  opts.seed = seed;
  workload::CustomerWorkload wl = workload::CustomerGenerator::Generate(opts);
  return clean ? std::move(wl.clean) : std::move(wl.dirty);
}

Relation GenHospital(size_t n, uint64_t seed) {
  workload::HospitalWorkloadOptions opts;
  opts.num_tuples = n;
  opts.noise_rate = 0.05;
  opts.seed = seed;
  return std::move(workload::HospitalGenerator::Generate(opts).dirty);
}

std::vector<Row> LiveRows(const Relation& rel) {
  std::vector<Row> rows;
  rows.reserve(rel.size());
  rel.ForEach([&](semandaq::relational::TupleId, const Row& row) { rows.push_back(row); });
  return rows;
}

uint64_t UserBytes(const Row& row) {
  uint64_t n = 0;
  for (const auto& v : row) n += v.is_null() ? 0 : v.ToDisplayString().size();
  return n;
}

/// `cfd REL: ...` commands, one per CFD line of a generator's Sigma text.
std::vector<std::string> SigmaCommands(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string t(semandaq::common::Trim(line));
    if (!t.empty() && t[0] != '#') out.push_back("cfd " + t);
  }
  return out;
}

std::string VerbOf(const std::string& cmd) {
  const size_t sp = cmd.find(' ');
  return semandaq::common::ToLower(cmd.substr(0, sp));
}

/// Latency class of a command: the cheap verbs share one.
std::string ClassOf(const std::string& cmd) {
  const std::string v = VerbOf(cmd);
  return (v == "epoch" || v == "show" || v == "validate") ? "cheap" : v;
}

bool Matches(const std::string& cmd, const std::string& got, const std::string& want) {
  if (VerbOf(cmd) == "mine") return MinePrefix(got) == MinePrefix(want);
  return got == want;
}

/// A session's request sequence: each command repeated by its weight, in a
/// seeded shuffle (or in order), cycled. Fixed proportions per cycle keep
/// the verb mix, and so ops_s, the same from run to run.
std::vector<std::string> Deck(const std::vector<std::pair<std::string, int>>& mix,
                              uint64_t seed, bool shuffle) {
  std::vector<std::string> deck;
  for (const auto& [cmd, w] : mix) {
    for (int i = 0; i < w; ++i) deck.push_back(cmd);
  }
  if (shuffle) {
    semandaq::common::Rng rng(seed);
    for (size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng.NextBelow(i)]);
    }
  }
  return deck;
}

// ------------------------------------------------------------- workloads

/// Sub-windows per measured window (see WindowShape).
constexpr size_t kBuckets = 10;

/// What distinguishes the wire workloads; ingest reuses the traced parts.
struct Spec {
  size_t sessions = 1;
  std::vector<std::pair<std::string, int>> mix;
  bool shuffle = true;
  /// Sessions stop only at the end of a deck cycle once time is up, so a
  /// mix of few, long requests always completes the same verb proportions.
  bool whole_cycles = false;
  /// The latency class reported as focus_ms_p50: the request kind the
  /// workload exists to measure.
  std::string focus;
  std::vector<std::string> sigma;
  std::vector<std::string> relations;  // published relations (warm-up)
  std::string primary = "customer";    // detect / append / storage probes
  std::string mine_rel;                // discovery probes
  /// Setups per measured run; setup_s is their median.
  size_t setups = 9;
  Sizes sizes;
};

Spec MakeSpec(const Options& o) {
  Spec s;
  const std::string paper = workload::CustomerGenerator::PaperCfds();
  if (o.workload == "interactive-64k") {
    s.sessions = 4;
    s.mix = {{"detect customer", 3},
             {"detect hospital", 2},
             {"epoch customer", 2},
             {"epoch hospital", 2},
             {"show customer 10", 1},
             {"show hospital 10", 1},
             {"validate customer", 1},
             {"map customer 20", 1},
             {"sql SELECT NAME, CITY, ZIP FROM customer WHERE CC='44' AND CNT<>'UK'", 1}};
    s.sigma = SigmaCommands(paper);
    for (auto& c : SigmaCommands(workload::HospitalGenerator::HospitalCfds())) {
      s.sigma.push_back(c);
    }
    s.focus = "cheap";
    s.relations = {"customer", "hospital"};
    s.mine_rel = "hospital";
    s.sizes.customer = o.smoke ? 2000 : 64000;
    s.sizes.hospital = o.smoke ? 2000 : 64000;
  } else if (o.workload == "analytics-1m") {
    s.sessions = 1;
    s.mix = {{"detect customer threads=0", 4},
             {"sql SELECT CNT, COUNT(*) FROM customer GROUP BY CNT", 2},
             {"report customer", 1},
             {"clean customer threads=0", 1},
             {"mine ref threads=0", 2}};
    s.sigma = SigmaCommands(paper);
    s.whole_cycles = true;
    s.setups = 3;
    s.focus = "report";
    s.relations = {"customer", "ref"};
    s.mine_rel = "ref";
    s.sizes.customer = o.smoke ? 20000 : 1000000;
    s.sizes.tail = o.smoke ? 1000 : 40000;
    s.sizes.ref = o.smoke ? 2000 : 64000;
  } else if (o.workload == "ingest-64k") {
    s.sessions = 1;
    s.mix = {{"detect customer", 2}, {"clean customer", 1}, {"apply", 1}};
    s.shuffle = false;
    s.focus = "append";
    s.sigma = SigmaCommands(paper);
    s.relations = {"customer"};
    s.mine_rel = "customer";
    s.sizes.customer = o.smoke ? 2000 : 64000;
  }
  return s;
}

/// Generates the seeded database directory of a wire workload.
Status GenerateDatabase(const Options& o, const Spec& s, const std::string& dir) {
  semandaq::core::Semandaq sys;
  semandaq::storage::SyncPolicy none;
  none.mode = semandaq::storage::SyncPolicy::Mode::kNone;
  sys.set_wal_sync_policy(none);
  SEMANDAQ_RETURN_IF_ERROR(sys.Connect(GenCustomer(s.sizes.customer, o.seed)));
  if (s.sizes.hospital > 0) {
    SEMANDAQ_RETURN_IF_ERROR(sys.Connect(GenHospital(s.sizes.hospital, Mix(o.seed, 1))));
  }
  if (s.sizes.ref > 0) {
    Relation ref = GenCustomer(s.sizes.ref, Mix(o.seed, 2), /*clean=*/true);
    ref.set_name("ref");
    SEMANDAQ_RETURN_IF_ERROR(sys.Connect(std::move(ref)));
  }
  SEMANDAQ_RETURN_IF_ERROR(sys.SaveDatabase(dir).status());
  if (s.sizes.tail > 0) {
    // The WAL tail a restart replays: appended after the snapshot.
    Relation* rel = sys.database().FindMutableRelation("customer");
    for (Row& row : LiveRows(GenCustomer(s.sizes.tail, Mix(o.seed, 3)))) {
      SEMANDAQ_RETURN_IF_ERROR(rel->Insert(std::move(row)).status());
    }
    SEMANDAQ_RETURN_IF_ERROR(sys.AttachedWal("customer")->status());
  }
  return Status::OK();
}

/// Serial reference outputs: a one-lane service over a copy of the
/// database answers each distinct command of the mix once.
Status ComputeReference(const Spec& s, const std::string& db,
                        std::map<std::string, std::string>* ref) {
  semandaq::server::ServiceOptions so;
  so.scheduler_lanes = 1;
  SemandaqService svc(so);
  // Holding the one spare lane makes every later grant serial, including
  // the verbs (map, report) that always ask for all lanes.
  semandaq::server::ThreadLease hold = svc.scheduler().Acquire(0);
  Session session;
  SEMANDAQ_RETURN_IF_ERROR(svc.Execute(&session, "opendb " + db).status());
  for (const std::string& c : s.sigma) {
    SEMANDAQ_RETURN_IF_ERROR(svc.Execute(&session, c).status());
  }
  for (const auto& [cmd, w] : s.mix) {
    if (ref->count(cmd) > 0) continue;
    SEMANDAQ_ASSIGN_OR_RETURN(std::string out, svc.Execute(&session, cmd));
    (*ref)[cmd] = std::move(out);
  }
  return Status::OK();
}

/// Starts semandaq_server on a database copy, loads Sigma and warms every
/// relation with one serial `show REL 1`. Returns seconds from spawn to
/// ready for the first timed request.
Result<double> BootServer(const Options& o, const Spec& s, const std::string& db,
                          ChildProcess* proc, uint16_t* port) {
  const Clock::time_point t0 = Clock::now();
  std::string rest;
  if (!proc->Start({o.server_bin, "--port=0", "--lanes=0", "--db=" + db},
                   "semandaq_server listening on ", &rest)) {
    return Status::Internal("semandaq_server did not start");
  }
  *port = static_cast<uint16_t>(std::stoi(rest.substr(rest.rfind(':') + 1)));
  SEMANDAQ_ASSIGN_OR_RETURN(auto client,
                            semandaq::server::Client::Connect("127.0.0.1", *port));
  std::vector<std::string> boot = s.sigma;
  for (const std::string& rel : s.relations) boot.push_back("show " + rel + " 1");
  for (const std::string& c : boot) {
    SEMANDAQ_ASSIGN_OR_RETURN(auto r, client.Call(c));
    if (!r.ok) return Status::Internal("setup command failed: " + c + ": " + r.text);
  }
  return MsSince(t0) / 1000.0;
}

/// Latencies per latency class plus failure counts of one window.
struct Tally {
  /// One completed request: when it completed (ms after the window
  /// opened), its latency class and latency.
  struct Event {
    double at_ms;
    std::string cls;
    double lat_ms;
  };
  std::vector<Event> events;
  std::map<std::string, Samples> lat;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Clock::time_point last_done;
  std::string first_failure;

  void Add(Clock::time_point start, const std::string& cls, Clock::time_point t0,
           Clock::time_point done) {
    const double ms = MsBetween(t0, done);
    lat[cls].Add(ms);
    events.push_back({MsBetween(start, done), cls, ms});
    last_done = done;
  }
  void Merge(const Tally& t) {
    for (const auto& [k, v] : t.lat) lat[k].Append(v);
    events.insert(events.end(), t.events.begin(), t.events.end());
    attempted += t.attempted;
    failed += t.failed;
    last_done = std::max(last_done, t.last_done);
    if (first_failure.empty()) first_failure = t.first_failure;
  }
  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

void WireSession(uint16_t port, const std::vector<std::string>& deck, bool whole_cycles,
                 const std::map<std::string, std::string>& ref, Clock::time_point start,
                 Clock::time_point end, Tally* t) {
  auto client = semandaq::server::Client::Connect("127.0.0.1", port);
  size_t i = 0;
  Clock::time_point prev_done = Clock::now();
  while (Clock::now() < end || (whole_cycles && i % deck.size() != 0)) {
    const std::string& cmd = deck[i++ % deck.size()];
    ++t->attempted;
    if (!client.ok()) {
      t->Fail("connect: " + client.status().ToString());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      client = semandaq::server::Client::Connect("127.0.0.1", port);
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    auto r = client->Call(cmd);
    prev_done = Clock::now();
    if (!r.ok()) {
      t->Fail(cmd + ": " + r.status().ToString());
      client = semandaq::server::Client::Connect("127.0.0.1", port);
      continue;
    }
    if (!r->ok || !Matches(cmd, r->text, ref.at(cmd))) {
      t->Fail(cmd + ": response differs from the serial reference");
      continue;
    }
    t->Add(start, ClassOf(cmd), t0, prev_done);
  }
}

/// How a window turns events into metrics. With `buckets` > 1 the window
/// is cut into that many equal sub-windows and each rate or median is the
/// median of its per-sub-window values, so a burst of interference from
/// elsewhere on a shared host moves one sub-window, not the result.
struct WindowShape {
  double window_ms = 0;
  size_t buckets = 1;
};

/// Median over sub-windows of the request rate (per second) of the classes
/// in `classes` (empty = all), or of their latency median when !rate.
double BucketMedian(const Tally& t, const WindowShape& w, const std::set<std::string>& classes,
                    bool rate) {
  std::vector<Samples> per(w.buckets);
  const double width = w.window_ms / static_cast<double>(w.buckets);
  for (const Tally::Event& e : t.events) {
    if (!classes.empty() && classes.count(e.cls) == 0) continue;
    const size_t b = std::min(w.buckets - 1, static_cast<size_t>(std::max(0.0, e.at_ms) / width));
    per[b].Add(e.lat_ms);
  }
  Samples values;
  for (const Samples& p : per) {
    if (rate) {
      values.Add(static_cast<double>(p.size()) * 1000.0 / width);
    } else if (!p.empty()) {
      values.Add(p.Median());
    }
  }
  return values.Median();
}

/// The latency metrics a window produced, named `<class>_ms_p50` and, where
/// at least ten samples lie beyond it, `<class>_ms_p99`.
void EmitLatencies(const Tally& t, const WindowShape& w, Report* r) {
  for (const auto& [cls, s] : t.lat) {
    r->Metric(cls + "_ms_p50", BucketMedian(t, w, {cls}, false), "ms");
    if (s.Supports(0.99)) r->Metric(cls + "_ms_p99", s.Pct(0.99), "ms");
    r->Stamp("samples." + cls, std::to_string(s.size()));
  }
}

/// Every end-to-end metric of a window. `ops_classes` names the requests
/// ops_s counts (empty = all).
void EmitCommon(const Tally& t, const WindowShape& w, const std::set<std::string>& ops_classes,
                const Samples& setups, double peak_rss_mb, const std::string& focus,
                Report* r) {
  r->Metric("setup_s", setups.Median(), "s");
  r->Stamp("setups", std::to_string(setups.size()));
  r->Metric("ops_s", BucketMedian(t, w, ops_classes, true), "ops/s");
  r->Metric("fail_frac",
            t.attempted > 0 ? static_cast<double>(t.failed) / static_cast<double>(t.attempted) : 1,
            "ratio");
  r->Metric("peak_rss_mb", peak_rss_mb, "MB");
  if (t.lat.count(focus) > 0) r->Metric("focus_ms_p50", BucketMedian(t, w, {focus}, false), "ms");
  r->Count(t.attempted, t.failed);
  r->Check("window.no_failures", t.failed == 0, t.first_failure);
  r->Check("window.completed_requests", !t.events.empty());
  r->Stamp("window_ms", Fmt(w.window_ms));
  r->Stamp("window_buckets", std::to_string(w.buckets));
  EmitLatencies(t, w, r);
}

// ------------------------------------------------------------ traced run

/// Per-layer values gathered by the traced phases; emitted against kLayers.
using Layer = std::map<std::string, double>;

double SpanMs(const std::map<std::string, Tracer::Agg>& agg, const std::string& name) {
  auto it = agg.find(name);
  return it == agg.end() ? -1 : it->second.total_us.Median() / 1000.0;
}

/// Sets `key` from span `name` unless a value is already there (stream
/// spans take precedence over probe spans).
void FromSpan(Layer* l, const std::map<std::string, Tracer::Agg>& agg,
              const std::string& key, const std::string& name, double scale) {
  if (l->count(key) > 0) return;
  const double ms = SpanMs(agg, name);
  if (ms >= 0) (*l)[key] = ms * scale;
}

void SpansToLayer(const std::map<std::string, Tracer::Agg>& agg, Layer* l) {
  FromSpan(l, agg, "scheduler.acquire_us", "scheduler.acquire", 1000);
  FromSpan(l, agg, "service.pin_us", "service.pin", 1000);
  FromSpan(l, agg, "detect.detect_ms", "detect.detect", 1);
  FromSpan(l, agg, "detect.summary_us", "detect.summary", 1000);
  FromSpan(l, agg, "discovery.mine_ms", "discovery.mine", 1);
  FromSpan(l, agg, "audit.audit_ms", "audit.audit", 1);
  FromSpan(l, agg, "audit.render_ms", "audit.render", 1);
  FromSpan(l, agg, "repair.run_ms", "repair.run", 1);
  FromSpan(l, agg, "sql.query_ms", "sql.query", 1);
  FromSpan(l, agg, "sql.catalog_ms", "sql.catalog", 1);
  FromSpan(l, agg, "relational.clone_ms", "relational.clone", 1);
  FromSpan(l, agg, "relational.freeze_ms", "relational.freeze", 1);
  FromSpan(l, agg, "cfd.validate_us", "cfd.validate", 1000);
}

/// Parses "candidate repair: N cell(s), cost C, R round(s), ..." and
/// "mined N CFD(s)" into layer counts.
void ParseCounts(const std::string& cmd, const std::string& out, Layer* l) {
  const std::string v = VerbOf(cmd);
  if (v == "clean") {
    size_t cells = 0, rounds = 0;
    double cost = 0;
    if (std::sscanf(out.c_str(), "candidate repair: %zu cell(s), cost %lf, %zu round", &cells,
                    &cost, &rounds) == 3) {
      (*l)["repair.cells_changed"] = static_cast<double>(cells);
      (*l)["repair.rounds"] = static_cast<double>(rounds);
    }
  } else if (v == "mine") {
    size_t mined = 0;
    if (std::sscanf(out.c_str(), "mined %zu", &mined) == 1) {
      (*l)["discovery.cfds_mined"] = static_cast<double>(mined);
    }
  }
}

struct TraceState {
  SemandaqService* svc = nullptr;
  Session exec_session;
  Session replay_session;
  std::atomic<uint64_t> next_req{1};
  std::map<std::string, Samples> exec_ms;  // per verb
  Layer layer;
  Report* report = nullptr;
};

/// One command three ways, serially: over the wire (when `wire` is set),
/// through Execute, and as a traced replica. All outputs must agree, and
/// the wire one must match the serial reference when one is given.
void SerialTriple(TraceState* st, semandaq::server::Client* wire, const std::string& cmd,
                  const std::string* want, Samples* codec_us,
                  Samples* resp_kb, double* exec_sum, double* replay_sum,
                  Samples* overhead_us, Samples* detect_1lane, Samples* detect_full,
                  Samples* lanes) {
  Report* r = st->report;
  std::string wire_text;
  if (wire != nullptr) {
    auto w = wire->Call(cmd);
    if (!w.ok() || !w->ok) {
      r->Check("trace.wire " + cmd, false, w.ok() ? w->text : w.status().ToString());
      return;
    }
    wire_text = w->text;
  }
  const Clock::time_point t1 = Clock::now();
  auto e = st->svc->Execute(&st->exec_session, cmd);
  const double exec_ms = MsSince(t1);
  if (!e.ok()) {
    r->Check("trace.execute " + cmd, false, e.status().ToString());
    return;
  }
  const uint64_t req = st->next_req++;
  const Clock::time_point t2 = Clock::now();
  size_t granted = 0;
  auto p = Replay(*st->svc, &st->replay_session, cmd, req, &granted);
  const double replay_ms = MsSince(t2);
  if (!p.ok() || !Matches(cmd, *p, *e)) {
    r->Check("trace.replica_equals_execute " + cmd, false,
             p.ok() ? "output differs" : p.status().ToString());
    return;
  }
  if (wire != nullptr && !Matches(cmd, wire_text, *e)) {
    r->Check("trace.wire_equals_execute " + cmd, false, "output differs");
    return;
  }
  if (want != nullptr && !Matches(cmd, *e, *want)) {
    r->Check("trace.execute_equals_reference " + cmd, false, "output differs");
    return;
  }
  ParseCounts(cmd, *e, &st->layer);
  if (lanes != nullptr && granted > 0) lanes->Add(static_cast<double>(granted));
  st->exec_ms[VerbOf(cmd)].Add(exec_ms);
  *exec_sum += exec_ms;
  *replay_sum += replay_ms;
  if (wire != nullptr) {
    const Clock::time_point t3 = Clock::now();
    const std::string payload = semandaq::server::EncodeResponse(true, *e);
    auto decoded = semandaq::server::DecodeResponse(payload);
    codec_us->Add(MsSince(t3) * 1000.0);
    if (!decoded.ok() || decoded->text != *e) r->Check("trace.frame_codec", false);
    resp_kb->Add(static_cast<double>(payload.size()) / 1024.0);
  }
  if (VerbOf(cmd) == "detect") {
    std::map<std::string, double> spans = Tracer::Get().RequestTotals(req);
    const double engine_us = spans["service.pin"] + spans["detect.detect"] +
                             spans["detect.summary"];
    overhead_us->Add(exec_ms * 1000.0 - engine_us);
    // The same detection on one lane and on every lane, for the speedup.
    const std::vector<std::string> words = semandaq::core::Words(cmd);
    auto snap = st->svc->Pin(words[1]);
    for (size_t requested : {size_t{1}, size_t{0}}) {
      semandaq::server::ThreadLease lease = st->svc->scheduler().Acquire(requested);
      semandaq::detect::DetectorOptions options;
      options.num_threads = lease.lanes();
      semandaq::detect::NativeDetector detector(
          &snap->relation, st->svc->system_unsynchronized().constraints().CfdsFor(words[1]),
          options);
      detector.set_thread_pool(lease.pool());
      detector.set_encoded(&*snap->encoded);
      const Clock::time_point t4 = Clock::now();
      auto table = detector.Detect();
      (requested == 1 ? detect_1lane : detect_full)->Add(MsSince(t4));
      if (table.ok() && words[1] == "customer") {
        st->layer["detect.violating_tuples"] = static_cast<double>(table->NumViolatingTuples());
        st->layer["detect.groups"] = static_cast<double>(table->groups().size());
      }
    }
  }
}

/// Phase A: the stream's first requests run serially three ways (wire,
/// Execute, replica), then every verb the stream lacks runs once as a probe.
void SerialPhase(TraceState* st, semandaq::server::Client* wire,
                 const std::vector<std::string>& stream,
                 const std::map<std::string, std::string>* ref, double budget_ms,
                 const Spec& s) {
  Samples wire_us, codec_us, resp_kb, overhead_us, d1, dfull, lanes;
  double exec_sum = 0, replay_sum = 0;
  const Clock::time_point t0 = Clock::now();
  std::set<std::string> seen;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i >= 4 && MsSince(t0) > budget_ms) break;
    const std::string& cmd = stream[i];
    seen.insert(VerbOf(cmd));
    const std::string* want = nullptr;
    if (ref != nullptr) want = &ref->at(cmd);
    SerialTriple(st, wire, cmd, want, &codec_us, &resp_kb, &exec_sum, &replay_sum,
                 &overhead_us, &d1, &dfull, &lanes);
  }
  // Transport cost per request: the same cheap command over the wire and
  // through Execute. Engine-heavy commands would bury it in their noise.
  const std::string probe = "epoch " + s.primary;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point w0 = Clock::now();
    auto w = wire->Call(probe);
    const Clock::time_point e0 = Clock::now();
    auto e = st->svc->Execute(&st->exec_session, probe);
    const double exec_ms = MsSince(e0);
    if (!w.ok() || !w->ok || !e.ok()) {
      st->report->Check("trace.wire_probe", false);
      break;
    }
    wire_us.Add((MsBetween(w0, e0) - exec_ms) * 1000.0);
  }
  Layer& l = st->layer;
  l["server.wire_us"] = wire_us.Median();
  l["server.frame_codec_us"] = codec_us.Median();
  l["server.response_kb"] = resp_kb.Mean();
  l["trace.overhead_pct"] = exec_sum > 0 ? 100.0 * (replay_sum - exec_sum) / exec_sum : 0;
  // Lanes the stream's requests were granted; the concurrent replay, where
  // there is one, replaces this with the grants under contention.
  if (!lanes.empty()) l["scheduler.lanes_granted"] = lanes.Mean();
  if (!overhead_us.empty()) l["service.overhead_us.detect"] = overhead_us.Median();
  if (!d1.empty()) {
    l["detect.detect_ms_1lane"] = d1.Median();
    l["detect.speedup_4v1"] = dfull.Median() > 0 ? d1.Median() / dfull.Median() : 0;
  }
  // Probes: verbs outside the stream, once each on this workload's data.
  const std::map<std::string, std::string> probes = {
      {"detect", "detect " + s.primary},
      {"epoch", "epoch " + s.primary},
      {"show", "show " + s.primary + " 10"},
      {"validate", "validate " + s.primary},
      {"map", "map " + s.primary + " 20"},
      {"sql", "sql SELECT CNT, COUNT(*) FROM customer GROUP BY CNT"},
      {"report", "report " + s.primary},
      {"clean", "clean " + s.primary + " threads=0"},
      {"mine", "mine " + s.mine_rel + " threads=0"}};
  for (const char* verb : kVerbs) {
    if (seen.count(verb) > 0) continue;
    SerialTriple(st, nullptr, probes.at(verb), nullptr, &codec_us, &resp_kb,
                 &exec_sum, &replay_sum, &overhead_us, &d1, &dfull, nullptr);
  }
  for (const auto& [verb, samples] : st->exec_ms) {
    l["service.execute_ms." + verb] = samples.Median();
  }
}

/// Phase B: the stream replayed by as many concurrent sessions as the
/// workload has, each output checked against the serial reference.
void ConcurrentReplay(TraceState* st, const Spec& s, uint64_t seed,
                      const std::map<std::string, std::string>& ref, double ms) {
  const Clock::time_point end =
      Clock::now() + std::chrono::microseconds(static_cast<int64_t>(ms * 1000));
  std::vector<std::thread> threads;
  std::vector<Samples> lanes(s.sessions);
  std::vector<double> gap_ms(s.sessions, 0.0);
  std::atomic<uint64_t> bad{0};
  for (size_t k = 0; k < s.sessions; ++k) {
    threads.emplace_back([&, k] {
      Session session;
      const std::vector<std::string> deck = Deck(s.mix, Mix(seed, 100 + k), s.shuffle);
      Clock::time_point prev = Clock::now();
      for (size_t i = 0; Clock::now() < end; ++i) {
        const std::string& cmd = deck[i % deck.size()];
        size_t granted = 0;
        gap_ms[k] = std::max(gap_ms[k], MsSince(prev));
        auto out = Replay(*st->svc, &session, cmd, st->next_req++, &granted);
        prev = Clock::now();
        if (!out.ok() || !Matches(cmd, *out, ref.at(cmd))) ++bad;
        if (granted > 0) lanes[k].Add(static_cast<double>(granted));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // A closed loop has no schedule to fall behind; its lateness is the
  // generator's own longest gap between a response and the next request.
  st->layer["generator.late_ms_max"] = *std::max_element(gap_ms.begin(), gap_ms.end());
  st->report->Check("trace.concurrent_replica_equals_reference", bad.load() == 0,
                    std::to_string(bad.load()) + " mismatches");
  Samples all;
  for (const Samples& l : lanes) all.Append(l);
  if (!all.empty()) st->layer["scheduler.lanes_granted"] = all.Mean();
}

/// The write path, on the service's primary relation: K real AppendBatch
/// calls, a snapshot + WAL replay of what they wrote, then K replicated
/// batches, with compaction armed so that exactly one compaction falls in
/// the replicated half.
void WritePhase(TraceState* st, const Spec& s, uint64_t seed, const std::string& dir) {
  Report* r = st->report;
  Layer& l = st->layer;
  constexpr size_t kBatches = 8;
  constexpr size_t kRows = 64;
  std::vector<Row> feed = LiveRows(GenCustomer(2 * kBatches * kRows, Mix(seed, 7)));
  const std::string path = dir + "/probe_" + s.primary + ".sdq";
  const std::string wal = semandaq::storage::WalPathFor(path);
  auto saved = st->svc->Execute(&st->exec_session,
                                "save " + s.primary + " " + path + " compact=" +
                                    std::to_string(kBatches * kRows * 3 / 2) +
                                    " sync=batch(64)");
  if (!saved.ok()) {
    r->Check("trace.write_probe_save", false, saved.status().ToString());
    return;
  }
  const uint64_t wal_base = FileSize(wal);
  uint64_t user_bytes = 0;
  Samples append_ms;
  size_t fed = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<Row> batch(feed.begin() + fed, feed.begin() + fed + kRows);
    fed += kRows;
    for (const Row& row : batch) user_bytes += UserBytes(row);
    const Clock::time_point t0 = Clock::now();
    auto a = st->svc->AppendBatch(s.primary, std::move(batch));
    append_ms.Add(MsSince(t0));
    if (!a.ok()) r->Check("trace.append_batch", false, a.status().ToString());
  }
  l["service.append_batch_ms"] = append_ms.Median();
  l["storage.wal_bytes_per_user_byte"] =
      user_bytes > 0 ? static_cast<double>(FileSize(wal) - wal_base) / user_bytes : 0;

  // Storage: read the snapshot and replay the WAL the batches wrote.
  {
    auto loaded = semandaq::storage::SnapshotReader::Read(path);
    if (!loaded.ok()) {
      r->Check("trace.snapshot_read", false, loaded.status().ToString());
      return;
    }
    uint64_t snap_user = 0;
    loaded->relation.ForEach(
        [&](semandaq::relational::TupleId, const Row& row) { snap_user += UserBytes(row); });
    l["storage.snapshot_bytes_per_user_byte"] =
        snap_user > 0 ? static_cast<double>(FileSize(path)) / snap_user : 0;
    const Clock::time_point t0 = Clock::now();
    auto replayed = semandaq::storage::ReplayWal(wal, loaded->manifest_checksum,
                                                 &loaded->relation);
    const double replay_s = MsSince(t0) / 1000.0;
    r->Check("trace.wal_replays_appended_rows",
             replayed.ok() && *replayed == kBatches * kRows,
             replayed.ok() ? std::to_string(*replayed) : replayed.status().ToString());
    if (replayed.ok()) {
      l["storage.wal_records"] = static_cast<double>(*replayed);
      l["storage.replay_records_s"] = replay_s > 0 ? *replayed / replay_s : 0;
    }
  }

  Tracer::Get().Clear();
  size_t compactions = 0;
  Samples compaction_ms;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<Row> batch(feed.begin() + fed, feed.begin() + fed + kRows);
    fed += kRows;
    const uint64_t req = st->next_req++;
    auto c = ReplayAppend(*st->svc, s.primary, std::move(batch), req);
    if (!c.ok()) {
      r->Check("trace.append_replica", false, c.status().ToString());
      return;
    }
    if (*c) {
      ++compactions;
      compaction_ms.Add(Tracer::Get().RequestTotals(req)["storage.compact"] / 1000.0);
    }
  }
  const auto agg = Tracer::Get().Aggregate();
  l["relational.insert_us_per_row"] = SpanMs(agg, "relational.insert") * 1000.0 / kRows;
  l["relational.encode_sync_ms"] = SpanMs(agg, "relational.encode_sync");
  l["snapshot.publish_ms"] = SpanMs(agg, "snapshot.publish");
  l["storage.compactions"] = static_cast<double>(compactions);
  if (!compaction_ms.empty()) l["storage.compaction_ms"] = compaction_ms.Median();
  r->Check("trace.one_compaction_in_replica", compactions == 1, std::to_string(compactions));
  // The published state must hold every row both halves appended.
  auto snap = st->svc->Pin(s.primary);
  r->Check("trace.appends_visible",
           snap != nullptr && st->svc->system_unsynchronized()
                                      .database()
                                      .FindRelation(s.primary)
                                      ->size() == snap->relation.size() + kBatches * kRows);
}

/// FdMiner::Mine on the discovery relation (mine runs CfdMiner; the FD
/// sweep is timed on its own here).
void FdProbe(TraceState* st, const Spec& s) {
  auto snap = st->svc->Pin(s.mine_rel);
  if (snap == nullptr) return;
  semandaq::server::ThreadLease lease = st->svc->scheduler().Acquire(0);
  semandaq::discovery::FdMinerOptions options;
  options.num_threads = lease.lanes();
  options.pool = lease.pool();
  semandaq::discovery::FdMiner miner(&snap->relation, options);
  const Clock::time_point t0 = Clock::now();
  std::vector<semandaq::discovery::DiscoveredFd> fds = miner.Mine();
  st->layer["discovery.fd_mine_ms"] = MsSince(t0);
}

void EmitLayers(const Layer& l, Report* r) {
  for (const LayerMetric& m : kLayers) {
    auto it = l.find(m.name);
    if (it == l.end()) {
      r->Check(std::string("layer.") + m.name, false, "not measured");
      continue;
    }
    r->Metric(m.name, it->second, m.unit, std::string("moves=") + m.moves);
  }
}

/// Stream of the traced replay: the sessions' decks interleaved round-robin,
/// the order in which a closed loop with equal latencies would send them.
std::vector<std::string> InterleavedStream(const Spec& s, uint64_t seed, size_t n) {
  std::vector<std::vector<std::string>> decks;
  for (size_t k = 0; k < s.sessions; ++k) {
    decks.push_back(Deck(s.mix, Mix(seed, 100 + k), s.shuffle));
  }
  std::vector<std::string> out;
  for (size_t i = 0; out.size() < n; ++i) {
    for (size_t k = 0; k < s.sessions && out.size() < n; ++k) {
      out.push_back(decks[k][i % decks[k].size()]);
    }
  }
  return out;
}

void StampCommon(const Options& o, const Spec& s, Report* r) {
  r->Stamp("rows.customer", std::to_string(s.sizes.customer));
  if (s.sizes.hospital > 0) r->Stamp("rows.hospital", std::to_string(s.sizes.hospital));
  if (s.sizes.tail > 0) r->Stamp("rows.wal_tail", std::to_string(s.sizes.tail));
  if (s.sizes.ref > 0) r->Stamp("rows.ref", std::to_string(s.sizes.ref));
  r->Stamp("sessions", std::to_string(s.sessions));
  r->Stamp("wal_dir_fs", FsType(o.work));
}

// ------------------------------------------------------- wire workloads

bool RunWire(const Options& o, Report* r) {
  const Spec s = MakeSpec(o);
  StampCommon(o, s, r);
  r->Stamp("lanes", "0 (hardware)");
  r->Stamp("wal_sync", "always (server default; no writes in the window)");
  const std::string db = o.work + "/db";
  Clock::time_point t0 = Clock::now();
  const Status gen = GenerateDatabase(o, s, db);
  if (!gen.ok()) {
    std::fprintf(stderr, "generate: %s\n", gen.ToString().c_str());
    return false;
  }
  r->Stamp("generate_s", Fmt(MsSince(t0) / 1000.0));
  t0 = Clock::now();
  std::map<std::string, std::string> ref;
  {
    const std::string copy = o.work + "/ref";
    const Status st = CopyDir(db, copy) ? ComputeReference(s, copy, &ref)
                                        : Status::Internal("copy failed");
    if (!st.ok()) {
      std::fprintf(stderr, "reference: %s\n", st.ToString().c_str());
      return false;
    }
    RemoveTree(copy);
  }
  r->Stamp("reference_s", Fmt(MsSince(t0) / 1000.0));

  // Set up several times, each from a fresh copy; the last server stays.
  const size_t setups = o.trace ? 1 : s.setups;
  Samples setup_s;
  ChildProcess server;
  uint16_t port = 0;
  for (size_t k = 0; k < setups; ++k) {
    server.Stop();
    if (k > 0) RemoveTree(o.work + "/run" + std::to_string(k - 1));
    const std::string copy = o.work + "/run" + std::to_string(k);
    if (!CopyDir(db, copy)) return false;
    auto booted = BootServer(o, s, copy, &server, &port);
    if (!booted.ok()) {
      std::fprintf(stderr, "boot: %s\n", booted.status().ToString().c_str());
      return false;
    }
    setup_s.Add(*booted);
  }

  if (!o.trace) {
    std::vector<Tally> tallies(s.sessions);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::milliseconds(static_cast<int64_t>(o.seconds * 1000));
    for (size_t k = 0; k < s.sessions; ++k) {
      threads.emplace_back(WireSession, port, Deck(s.mix, Mix(o.seed, 100 + k), s.shuffle),
                           s.whole_cycles, std::cref(ref), start, end, &tallies[k]);
    }
    for (std::thread& t : threads) t.join();
    Tally all;
    all.last_done = start;
    for (const Tally& t : tallies) all.Merge(t);
    WindowShape shape;
    shape.window_ms = s.whole_cycles ? MsBetween(start, all.last_done) : o.seconds * 1000.0;
    shape.buckets = s.whole_cycles ? 1 : kBuckets;
    EmitCommon(all, shape, {}, setup_s, PeakRssMb(server.pid()), s.focus, r);
    server.Stop();
    return true;
  }

  // Traced run: an in-process service over another fresh copy.
  semandaq::server::ServiceOptions so;
  SemandaqService svc(so);
  TraceState st;
  st.svc = &svc;
  st.report = r;
  {
    const std::string copy = o.work + "/trace";
    if (!CopyDir(db, copy)) return false;
    const Clock::time_point t0 = Clock::now();
    auto opened = svc.Execute(&st.exec_session, "opendb " + copy);
    st.layer["storage.open_ms"] = MsSince(t0);
    if (!opened.ok()) return false;
    for (const std::string& c : s.sigma) {
      if (!svc.Execute(&st.exec_session, c).ok()) return false;
    }
    for (const std::string& rel : s.relations) {
      if (!svc.Execute(&st.exec_session, "show " + rel + " 1").ok()) return false;
    }
  }
  auto client = semandaq::server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return false;
  const double budget = o.seconds * 1000.0;
  SerialPhase(&st, &*client, InterleavedStream(s, o.seed, 400), &ref, budget * 0.3, s);
  server.Stop();
  FdProbe(&st, s);
  SpansToLayer(Tracer::Get().Aggregate(), &st.layer);  // serial phase and probes
  Tracer::Get().Clear();
  const uint64_t epochs0 = svc.stats().epochs_served.load();
  ConcurrentReplay(&st, s, o.seed, ref, budget * 0.5);
  st.layer["trace.coverage"] = Tracer::Get().Coverage(kRequestSpan);
  Layer stream_layers;
  SpansToLayer(Tracer::Get().Aggregate(), &stream_layers);
  for (const auto& [k, v] : stream_layers) st.layer[k] = v;  // stream beats probe
  st.layer["service.sheds"] = static_cast<double>(svc.stats().sheds.load());
  st.layer["service.epochs_served"] =
      static_cast<double>(svc.stats().epochs_served.load() - epochs0);
  WritePhase(&st, s, o.seed, o.work);
  EmitLayers(st.layer, r);
  r->Count(st.next_req.load() - 1, 0);
  return true;
}

// ---------------------------------------------------------------- ingest

/// The ingest window: an open-loop writer, two detect readers and a
/// clean/apply steward against one in-process service.
struct IngestWindow {
  Tally writer, readers, steward;
  double late_ms_max = 0;
  double rss_peak_mb = 0;
  Clock::time_point start, end;
};

void RunIngestWindow(SemandaqService* svc, std::vector<std::vector<Row>>* feed,
                     double seconds, IngestWindow* w) {
  w->start = Clock::now();
  w->end = w->start + std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
  w->writer.last_done = w->readers.last_done = w->steward.last_done = w->start;
  std::vector<Tally> readers(2);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (size_t b = 0; b < feed->size(); ++b) {
      const Clock::time_point due = w->start + std::chrono::milliseconds(50 * b);
      if (due >= w->end) break;
      std::this_thread::sleep_until(due);
      w->late_ms_max = std::max(w->late_ms_max, MsSince(due));
      ++w->writer.attempted;
      auto appended = svc->AppendBatch("customer", std::move((*feed)[b]));
      const Clock::time_point done = Clock::now();
      if (!appended.ok()) {
        w->writer.Fail("append: " + appended.status().ToString());
        continue;
      }
      w->writer.Add(w->start, "append", due, done);
      w->rss_peak_mb = std::max(w->rss_peak_mb, SelfRssMb());
    }
  });
  for (Tally& t : readers) {
    threads.emplace_back([&] {
      Session session;
      while (Clock::now() < w->end) {
        ++t.attempted;
        const Clock::time_point t0 = Clock::now();
        auto out = svc->Execute(&session, "detect customer");
        if (!out.ok()) {
          t.Fail("detect: " + out.status().ToString());
          continue;
        }
        t.Add(w->start, "detect", t0, Clock::now());
      }
    });
  }
  threads.emplace_back([&] {
    Session session;
    Tally& t = w->steward;
    while (Clock::now() < w->end) {
      for (const char* cmd : {"clean customer", "apply"}) {
        ++t.attempted;
        const Clock::time_point t0 = Clock::now();
        auto out = svc->Execute(&session, cmd);
        if (!out.ok()) {
          t.Fail(std::string(cmd) + ": " + out.status().ToString());
          break;
        }
        t.Add(w->start, VerbOf(cmd), t0, Clock::now());
      }
      std::this_thread::sleep_until(
          std::min(w->end, Clock::now() + std::chrono::milliseconds(500)));
    }
  });
  for (std::thread& t : threads) t.join();
  for (const Tally& t : readers) w->readers.Merge(t);
}

/// The end-of-run gates: the live detect equals a serial detector on a
/// standalone copy of the final relation, and reopening snapshot + WAL in a
/// fresh facade reproduces it byte for byte.
void IngestChecks(SemandaqService* svc, const std::string& snapshot, Report* r,
                  double* open_ms) {
  Session session;
  auto live = svc->Execute(&session, "detect customer");
  if (!live.ok()) {
    r->Check("ingest.final_detect", false, live.status().ToString());
    return;
  }
  auto snap = svc->Pin("customer");
  const Relation standalone = snap->relation.Clone();
  semandaq::detect::NativeDetector serial(
      &standalone, svc->system_unsynchronized().constraints().CfdsFor("customer"));
  auto table = serial.Detect();
  r->Check("ingest.live_detect_equals_serial_standalone",
           table.ok() && table->Summary() + "\n" == *live);

  semandaq::core::Semandaq fresh;
  const Clock::time_point t0 = Clock::now();
  auto opened = fresh.OpenRelation("customer", snapshot);
  *open_ms = MsSince(t0);
  if (!opened.ok()) {
    r->Check("ingest.reopen", false, opened.status().ToString());
    return;
  }
  const Status sigma =
      fresh.constraints().AddCfdsFromText(workload::CustomerGenerator::PaperCfds());
  auto reopened = fresh.DetectErrors("customer");
  r->Check("ingest.reopened_detect_equals_live",
           sigma.ok() && reopened.ok() && reopened->Summary() + "\n" == *live &&
               opened->live_rows == standalone.size(),
           std::to_string(opened->live_rows) + " rows reopened, " +
               std::to_string(standalone.size()) + " live");
}

bool RunIngest(const Options& o, Report* r) {
  const Spec s = MakeSpec(o);
  StampCommon(o, s, r);
  r->Stamp("lanes", "0 (hardware)");
  r->Stamp("wal_sync", "batch(64)");
  r->Stamp("compact_after", "20000");
  r->Stamp("append", "64 rows every 50 ms, open loop");
  const Relation base = GenCustomer(s.sizes.customer, o.seed);
  const double window_s = o.trace ? o.seconds * 0.5 : o.seconds;
  const size_t batches = static_cast<size_t>(window_s / 0.05) + 1;
  std::vector<std::vector<Row>> feed;
  {
    std::vector<Row> rows = LiveRows(GenCustomer(batches * 64, Mix(o.seed, 5)));
    for (size_t b = 0; b < batches; ++b) {
      feed.emplace_back(rows.begin() + b * 64, rows.begin() + (b + 1) * 64);
    }
  }
  r->Stamp("rows.feed", std::to_string(batches * 64));
  const double rss_base = SelfRssMb();

  semandaq::server::ServiceOptions so;
  so.wal_sync.mode = semandaq::storage::SyncPolicy::Mode::kBatch;
  so.wal_sync.batch_records = 64;
  std::unique_ptr<SemandaqService> svc;
  std::string dir;
  Samples setup_s;
  const size_t setups = o.trace ? 1 : s.setups;
  for (size_t k = 0; k < setups; ++k) {
    svc.reset();
    dir = o.work + "/ingest" + std::to_string(k);
    if (!MakeDirs(dir)) return false;
    Relation copy = base;
    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<SemandaqService>(so);
    Session boot;
    std::vector<std::string> cmds = {"save customer " + dir +
                                     "/customer.sdq compact=20000 sync=batch(64)"};
    for (const std::string& c : s.sigma) cmds.push_back(c);
    cmds.push_back("show customer 1");
    if (!svc->system_unsynchronized().Connect(std::move(copy)).ok()) return false;
    for (const std::string& c : cmds) {
      auto out = svc->Execute(&boot, c);
      if (!out.ok()) {
        std::fprintf(stderr, "setup %s: %s\n", c.c_str(), out.status().ToString().c_str());
        return false;
      }
    }
    setup_s.Add(MsSince(t0) / 1000.0);
  }

  IngestWindow w;
  RunIngestWindow(svc.get(), &feed, window_s, &w);
  Tally all;
  all.last_done = w.start;
  all.Merge(w.writer);
  all.Merge(w.steward);
  all.Merge(w.readers);
  double open_ms = 0;
  IngestChecks(svc.get(), dir + "/customer.sdq", r, &open_ms);

  if (!o.trace) {
    // ops_s counts the readers' detects; peak_rss_mb is growth over the
    // baseline taken once the feed was generated.
    WindowShape shape;
    shape.window_ms = window_s * 1000.0;
    shape.buckets = kBuckets;
    EmitCommon(all, shape, {"detect"}, setup_s, w.rss_peak_mb - rss_base, s.focus, r);
    r->Metric("late_ms_max", w.late_ms_max, "ms");
    return true;
  }

  // Traced run: the window's final state, served three ways.
  TraceState st;
  st.svc = svc.get();
  st.report = r;
  st.layer["storage.open_ms"] = open_ms;
  st.layer["generator.late_ms_max"] = w.late_ms_max;
  const std::string db = o.work + "/ingest_db";
  if (!svc->Execute(&st.exec_session, "savedb " + db).ok()) return false;
  ChildProcess server;
  uint16_t port = 0;
  if (!CopyDir(db, db + "_copy")) return false;
  if (!BootServer(o, s, db + "_copy", &server, &port).ok()) return false;
  auto client = semandaq::server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return false;
  SerialPhase(&st, &*client, InterleavedStream(s, o.seed, 400), nullptr,
              o.seconds * 1000.0 * 0.3, s);
  server.Stop();
  FdProbe(&st, s);
  SpansToLayer(Tracer::Get().Aggregate(), &st.layer);
  st.layer["trace.coverage"] = Tracer::Get().Coverage(kRequestSpan);
  st.layer["service.sheds"] = static_cast<double>(svc->stats().sheds.load());
  st.layer["service.epochs_served"] = static_cast<double>(svc->stats().epochs_served.load());
  WritePhase(&st, s, o.seed, o.work);
  EmitLayers(st.layer, r);
  r->Count(st.next_req.load() - 1 + all.attempted, all.failed);
  return true;
}

}  // namespace

bool RunWorkload(const Options& o, Report* r) {
  if (o.workload == "interactive-64k" || o.workload == "analytics-1m") return RunWire(o, r);
  if (o.workload == "ingest-64k") return RunIngest(o, r);
  return false;
}

}  // namespace perfbench
