#ifndef SEMANDAQ_SERVER_SCHEDULER_H_
#define SEMANDAQ_SERVER_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"

namespace semandaq::server {

class RequestScheduler;

/// Admission cost class of one request (docs/robustness.md, Admission
/// control). Cheap verbs answer from already-materialized state in
/// microseconds; expensive verbs run engine scans/sweeps for milliseconds
/// to minutes. Classing them separately keeps a storm of expensive
/// requests from starving the cheap ones behind it (the head-of-line
/// metric tools/bench_server_qps.py records).
enum class RequestClass : uint8_t { kCheap = 0, kExpensive = 1 };

/// The admission class of one command-grammar verb. Unknown verbs come
/// back cheap: they fail fast in Execute's dispatch anyway.
RequestClass ClassifyVerb(std::string_view verb);

/// Cost-aware admission knobs (ServiceOptions::admission). Zeros pick
/// lane-derived defaults at construction.
struct AdmissionOptions {
  /// Master switch; disabled means every request is admitted at once (the
  /// pre-admission behavior).
  bool enabled = false;
  /// Concurrent expensive requests allowed in flight. 0 = half the worker
  /// lane budget, min 1 — expensive work can never saturate every lane.
  size_t max_expensive = 0;
  /// Concurrent cheap requests allowed in flight. 0 = 4x the lane budget
  /// (cheap verbs barely touch the lanes; the cap only bounds pathology).
  size_t max_cheap = 0;
  /// Queued (waiting) requests tolerated per class before new arrivals
  /// are shed with a busy response.
  size_t queue_limit_expensive = 8;
  size_t queue_limit_cheap = 64;
  /// Base of the busy response's retry hint; the hint scales with the
  /// shedding class's queue depth.
  uint32_t retry_after_ms = 100;
};

/// Per-class bounded admission: at most max_* requests of a class run at
/// once, at most queue_limit_* wait behind them, and everything past that
/// is shed immediately with a machine-readable retry hint. Waiting
/// requests leave the queue early when their cancel token trips (a queued
/// request past its deadline must not consume the slot it was waiting
/// for). Construction derives zero knobs from the lane budget.
class AdmissionController {
 public:
  AdmissionController(AdmissionOptions options, size_t total_lanes);

  /// One admission verdict. `admitted` means the caller MUST call
  /// Release(cls) when its request finishes. `cancelled` means the
  /// caller's token tripped while queued (report Check()'s status).
  /// Otherwise the request was shed: respond busy with `retry_after_ms`.
  struct Decision {
    bool admitted = false;
    bool cancelled = false;
    uint32_t retry_after_ms = 0;
  };

  /// Admits, queues (until a slot frees or `cancel` trips), or sheds.
  /// Thread-safe. New arrivals never jump a non-empty queue.
  Decision Admit(RequestClass cls, common::CancelToken* cancel);

  /// Returns an admitted request's slot. Wakes one queued waiter.
  void Release(RequestClass cls);

  bool enabled() const { return options_.enabled; }
  const AdmissionOptions& options() const { return options_; }

  /// Gauges for the stats surface.
  size_t active(RequestClass cls) const;
  size_t queued(RequestClass cls) const;

 private:
  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  size_t active_[2] = {0, 0};
  size_t queued_[2] = {0, 0};
};

/// A request's granted slice of the server's worker-lane budget: how many
/// lanes it may run (>= 1; the session's own thread is always one) and,
/// when more than one, a private ThreadPool sized to exactly that many
/// lanes. Only the miners take it, as (options.num_threads = lanes(),
/// options.pool = pool()); detection, repair and encoding run on the
/// request's own thread. Mined output is byte-identical across thread
/// counts, so a degraded grant changes only latency, never results.
///
/// Move-only; destruction returns the lanes (and the pool, for reuse) to
/// the scheduler.
class ThreadLease {
 public:
  ThreadLease(ThreadLease&& other) noexcept;
  ThreadLease& operator=(ThreadLease&& other) noexcept;
  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;
  ~ThreadLease();

  /// Total lanes this request may run, including the calling thread (1 =
  /// run serial).
  size_t lanes() const { return workers_ + 1; }

  /// The pool backing the extra lanes; nullptr when lanes() == 1 (the miners
  /// treat that as "run serial", matching num_threads == 1).
  common::ThreadPool* pool() const { return pool_.get(); }

 private:
  friend class RequestScheduler;
  ThreadLease(RequestScheduler* scheduler, size_t workers,
              std::unique_ptr<common::ThreadPool> pool)
      : scheduler_(scheduler), workers_(workers), pool_(std::move(pool)) {}

  RequestScheduler* scheduler_ = nullptr;  // null after move-out / serial
  size_t workers_ = 0;                     // lanes beyond the caller
  std::unique_ptr<common::ThreadPool> pool_;
};

/// Multiplexes a fixed budget of worker lanes (hardware width by default)
/// across concurrent sessions, so 100 clients asking for `threads=0` share
/// the machine instead of oversubscribing it 100-fold.
///
/// Policy: admission control by degradation, never by blocking. Acquire
/// resolves the request (0 = all hardware threads) and grants
/// min(resolved - 1, lanes still free) extra workers — under load that
/// rounds down to a serial grant, which is always legal because the
/// miners' output is thread-count invariant. Each session's own thread is
/// its first lane and is never budgeted: total CPU demand is bounded by
/// (connections + lane budget), and a request never waits on another
/// request's lease to make progress.
///
/// Pools are cached by size and reused across leases (a ThreadPool spawns
/// OS threads in its constructor; churning them per request would dominate
/// small detects). The cache only ever holds pools whose lanes were part
/// of the budget, so its memory is bounded by the budget too.
class RequestScheduler {
 public:
  /// `total_lanes` = 0 sizes the budget to the hardware thread count.
  explicit RequestScheduler(size_t total_lanes = 0);

  /// Grants a lease for a request asking for `requested_threads` (the
  /// threads=N grammar: 0 = all hardware threads, 1 = serial, N = N
  /// lanes). Never blocks; under contention the grant degrades toward
  /// serial. Thread-safe.
  ThreadLease Acquire(size_t requested_threads);

  size_t total_lanes() const { return total_lanes_; }

  /// Lanes currently free (for tests and the stats surface).
  size_t available() const;

 private:
  friend class ThreadLease;

  /// Returns `workers` lanes (and optionally the pool that ran them) to
  /// the budget. Called by ~ThreadLease.
  void Release(size_t workers, std::unique_ptr<common::ThreadPool> pool);

  const size_t total_lanes_;
  mutable std::mutex mu_;
  size_t available_;
  /// Idle pools keyed by lane count, ready for the next same-width lease.
  std::unordered_map<size_t, std::vector<std::unique_ptr<common::ThreadPool>>>
      idle_pools_;
};

}  // namespace semandaq::server

#endif  // SEMANDAQ_SERVER_SCHEDULER_H_
