#ifndef SEMANDAQ_SERVER_SERVICE_H_
#define SEMANDAQ_SERVER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/semandaq.h"
#include "detect/native_detector.h"
#include "detect/violation.h"
#include "repair/batch_repair.h"
#include "server/scheduler.h"
#include "server/snapshot.h"

namespace semandaq::server {

/// Service construction knobs.
struct ServiceOptions {
  /// Worker-lane budget shared by all concurrent requests (0 = hardware
  /// thread count). See RequestScheduler.
  size_t scheduler_lanes = 0;
  /// Default WAL durability for save/savedb (overridable per save command
  /// with sync=MODE). See storage::SyncPolicy and docs/robustness.md.
  storage::SyncPolicy wal_sync;
  /// Cost-aware admission control (docs/robustness.md): per-class
  /// concurrency caps and bounded queues, shedding with busy + retry
  /// hint past them. Disabled by default.
  AdmissionOptions admission;
};

/// Monotonic service counters, exposed by the `stats` command and bumped
/// by the service and its transport (the TcpServer watchdog owns the
/// timeout/cancel events). All relaxed atomics: ops data, not barriers.
struct ServiceStats {
  /// Requests shed by admission control with a busy response.
  std::atomic<uint64_t> sheds{0};
  /// Requests cancelled by the watchdog for running past their deadline.
  std::atomic<uint64_t> timeouts{0};
  /// Requests cancelled by a client CANCEL frame or a dead connection.
  std::atomic<uint64_t> cancels{0};
  /// Epoch pins handed to read requests (Pin calls that found a snapshot).
  std::atomic<uint64_t> epochs_served{0};
};

/// The one implementation of Semandaq's text-command grammar (Help() lists
/// it), over one Semandaq system: the stand-in for the paper's web front
/// end. `semandaq_cli` drives it in-process with a single SessionState;
/// `semandaq_server` with one per connection. Many sessions execute
/// against a shared database, with reads running in parallel against
/// pinned immutable epochs and writes serialized behind one writer lock.
///
/// Concurrency model (docs/server.md):
///
///   * Every relation has a publication slot holding the latest
///     RelationSnapshot, swapped with atomic shared_ptr publication.
///     Read commands (detect / mine / clean / sql / show / map / report /
///     explore / epoch) pin the snapshot with one atomic load and compute
///     on it lock-free — they never block on writers, and a writer never
///     waits for readers (old epochs die by refcount when the last pin
///     drops).
///   * Write commands (load / open / gen / apply / savedb / opendb / the
///     programmatic AppendBatch) and constraint/catalog commands take
///     `sys_mu_`, mutate the master through the facade, and republish the
///     affected slots before releasing it.
///   * Mining is read-compute + a brief write tail: the levelwise sweep
///     runs on the pinned epoch, only the final AddCfd batch takes the
///     writer lock.
///   * Worker lanes come from the RequestScheduler, for `mine` only: it
///     leases min(requested, free) lanes and degrades toward serial under
///     load — legal because the miners' output is byte-identical across
///     thread counts. Detection, repair and encoding run on the request's
///     own thread (docs/architecture.md, "Where lanes are used").
///
/// A read computed on epoch k is byte-identical to a serial run against a
/// standalone copy of the relation as of epoch k — the property
/// tests/server_concurrency_test.cc stresses.
///
/// Sessions are represented by SessionState values owned by the caller
/// (the CLI's one, or the transport's one per connection); the service
/// itself is stateless per request beyond them, so it is safe to call
/// Execute from any number of threads.
class SemandaqService {
 public:
  explicit SemandaqService(ServiceOptions options = {});

  SemandaqService(const SemandaqService&) = delete;
  SemandaqService& operator=(const SemandaqService&) = delete;

  /// Per-session command state: the pending candidate repair of the last
  /// `clean` (its change list and counters), and the epoch it was computed
  /// against (`apply` refuses it once a later epoch rewrote cells in place).
  struct SessionState {
    std::optional<repair::RepairResult> pending_repair;
    std::string pending_relation;
    uint64_t pending_epoch = 0;
  };

  /// Per-request execution context, owned by the transport. `cancel` is
  /// threaded into every engine loop the command runs (nullptr = not
  /// cancellable). On an Unavailable (admission-shed) result,
  /// `retry_after_ms` carries the busy response's machine-readable hint.
  struct RequestContext {
    common::CancelToken* cancel = nullptr;
    uint32_t retry_after_ms = 0;
  };

  /// Executes one command line for one session and returns the rendered
  /// output. Thread-safe; any number of sessions may execute concurrently.
  /// Blank lines and `#` comments yield empty output. Never throws: every
  /// failure comes back as the Status inside the Result.
  common::Result<std::string> Execute(SessionState* session,
                                      std::string_view command_line) {
    RequestContext ctx;
    return Execute(session, command_line, &ctx);
  }

  /// Execute with a request context: cancellation/deadline checkpoints in
  /// every engine loop, and cost-aware admission (when enabled) that can
  /// shed the request with Unavailable + ctx->retry_after_ms.
  common::Result<std::string> Execute(SessionState* session,
                                      std::string_view command_line,
                                      RequestContext* ctx);

  /// The command reference text.
  static std::string Help();

  /// Pins the latest published epoch of `relation` (publishing one first
  /// if the relation exists but was never published). nullptr when the
  /// relation is unknown. The returned snapshot stays valid and immutable
  /// for as long as the pointer is held.
  SnapshotPtr Pin(const std::string& relation);

  /// Appends `rows` to `relation` as one write batch and publishes the new
  /// epoch (the programmatic writer the concurrency stress test and
  /// ingest-style embeddings use). Runs any due snapshot compaction.
  /// Returns the number of rows appended.
  common::Result<size_t> AppendBatch(const std::string& relation,
                                     std::vector<relational::Row> rows);

  RequestScheduler& scheduler() { return scheduler_; }
  AdmissionController& admission() { return admission_; }
  ServiceStats& stats() { return stats_; }

  /// The `stats` command's body: one `key=value` per line (lane budget and
  /// free lanes, per-class active/queued gauges, shed/timeout/cancel and
  /// epochs-served counters) — machine-parseable by design.
  std::string RenderStats() const;

  /// The underlying facade, NOT synchronized: callers must guarantee no
  /// concurrent Execute/Pin/AppendBatch while touching it (bootstrap and
  /// tests only).
  core::Semandaq& system_unsynchronized() { return sys_; }

 private:
  /// One relation's publication slot. `snap` is accessed with the atomic
  /// shared_ptr free functions; the counters only under sys_mu_.
  struct Slot {
    SnapshotPtr snap;
    uint64_t next_epoch = 1;
    /// The master's overwrite_version at the last publication, and the
    /// last epoch published after it moved (appends leave it alone).
    uint64_t overwrite_version = 0;
    uint64_t rewrite_epoch = 0;
  };

  /// The slot for `relation` (lowercase key), created on demand.
  std::shared_ptr<Slot> SlotFor(const std::string& relation, bool create);

  /// Rebuilds and publishes `relation`'s snapshot from the master (or
  /// clears the slot if the relation vanished). Caller holds sys_mu_.
  common::Status RepublishLocked(const std::string& relation);

  /// Copy of the CFDs registered for `relation` (brief sys_mu_ hold).
  std::vector<cfd::Cfd> CfdsFor(const std::string& relation);

  /// One native detection computed on a pinned epoch, with the CFDs the
  /// table's indices refer to.
  struct PinnedDetection {
    SnapshotPtr snap;
    std::vector<cfd::Cfd> cfds;
    detect::ViolationTable table;
  };

  /// The read path of every detecting verb (detect, map, report, explore):
  /// pin `relation`'s latest epoch, copy its CFDs and run the native
  /// detector on the pin.
  common::Result<PinnedDetection> DetectPinned(const std::string& relation,
                                               detect::DetectorOptions options,
                                               common::CancelToken* cancel);

  /// The dispatch body Execute wraps with admission control.
  common::Result<std::string> ExecuteAdmitted(SessionState* session,
                                              std::string_view line,
                                              const std::string& verb,
                                              const std::vector<std::string>& args,
                                              common::CancelToken* cancel);

  common::Result<std::string> CmdShow(const std::vector<std::string>& args);
  common::Result<std::string> CmdEpoch(const std::vector<std::string>& args);
  common::Result<std::string> CmdDetect(const std::vector<std::string>& args,
                                        common::CancelToken* cancel);
  common::Result<std::string> CmdMine(const std::vector<std::string>& args,
                                      common::CancelToken* cancel);
  common::Result<std::string> CmdClean(SessionState* session,
                                       const std::vector<std::string>& args,
                                       common::CancelToken* cancel);
  common::Result<std::string> CmdDiff(SessionState* session);
  common::Result<std::string> CmdApply(SessionState* session);
  common::Result<std::string> CmdMap(const std::vector<std::string>& args,
                                     common::CancelToken* cancel);
  common::Result<std::string> CmdReport(const std::vector<std::string>& args,
                                        common::CancelToken* cancel);
  common::Result<std::string> CmdExplore(const std::vector<std::string>& args,
                                         common::CancelToken* cancel);
  common::Result<std::string> CmdSql(std::string_view query,
                                     common::CancelToken* cancel);

  core::Semandaq sys_;
  /// The writer lock: serializes every master/catalog/constraint mutation
  /// and the facade-routed commands. Never held while a read command
  /// computes (only while it copies CFDs or pins).
  std::mutex sys_mu_;
  RequestScheduler scheduler_;
  AdmissionController admission_;
  ServiceStats stats_;
  std::mutex slots_mu_;
  std::unordered_map<std::string, std::shared_ptr<Slot>> slots_;
};

}  // namespace semandaq::server

#endif  // SEMANDAQ_SERVER_SERVICE_H_
