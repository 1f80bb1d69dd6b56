#ifndef SEMANDAQ_COMMON_THREAD_POOL_H_
#define SEMANDAQ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace semandaq::common {

class ThreadPool;

/// Resolves a user-facing thread-count knob: 0 means "one lane per hardware
/// thread", anything else is taken literally. Never returns 0 (a host that
/// reports unknown concurrency resolves to 1).
size_t ResolveThreadCount(size_t requested);

/// Resolves the miners' lane source: an explicitly attached (borrowed) pool
/// always wins; otherwise num_threads == 1 means serial (returns nullptr)
/// and any other value spins up a private pool in *owned with exactly
/// ResolveThreadCount(num_threads) lanes — so `threads=N` really runs N
/// lanes, it is not rounded up to a wider shared pool. The caller keeps
/// *owned alive for as long as the returned pool is used.
ThreadPool* ResolvePool(ThreadPool* attached, size_t num_threads,
                        std::unique_ptr<ThreadPool>* owned);

/// A fixed-size worker pool for fork-join parallelism: Run(n, fn) invokes
/// fn(0) .. fn(n-1), distributing the calls over the lanes, and returns only
/// when all of them have completed.
///
/// The pool is deliberately minimal — no futures, no task graph, no work
/// stealing beyond a shared index counter — because the miners' per-level
/// fan-out needs exactly "run these N closures, then continue". A pool of
/// `num_threads` lanes starts `num_threads - 1` background workers; the
/// thread calling Run is the remaining lane, so a single-lane pool runs
/// everything inline with no synchronization beyond one atomic. Workers are
/// parked on a condition variable between batches, so repeated levels and
/// Mine() calls do not pay thread spawn cost.
///
/// Closures must not throw: an exception escaping a background worker would
/// std::terminate. Tasks that can fail report through their slot of a
/// caller-owned result vector instead (each task index is run by exactly one
/// lane, so per-index slots need no locking).
class ThreadPool {
 public:
  /// Starts a pool with `num_threads` lanes (>= 1; pass the result of
  /// ResolveThreadCount for user-facing knobs).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes, including the caller's.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Invokes fn(i) for every i in [0, n) across the lanes and blocks until
  /// all calls returned. Task indices are claimed dynamically, so uneven
  /// per-index work still balances. One Run at a time: the pool is not
  /// reentrant and Run must not be called from inside a task.
  void Run(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for a new batch
  std::condition_variable done_cv_;  // Run waits here for batch completion
  // Batch state. fn_/total_ are written under mu_ before the epoch bump
  // that publishes them; next_ is the shared claim counter.
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t total_ = 0;
  std::atomic<size_t> next_{0};
  size_t done_ = 0;     // completed calls, guarded by mu_
  size_t active_ = 0;   // workers inside a claim loop, guarded by mu_
  uint64_t epoch_ = 0;  // batch sequence number, guarded by mu_
  bool stop_ = false;   // guarded by mu_
};

}  // namespace semandaq::common

#endif  // SEMANDAQ_COMMON_THREAD_POOL_H_
