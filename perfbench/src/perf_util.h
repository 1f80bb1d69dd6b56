// Shared plumbing for the Semandaq benchmark's load generator: clocks, latency
// samples, in-memory spans, result lines, and process/file helpers.
#ifndef SEMANDAQ_PERFBENCH_PERF_UTIL_H_
#define SEMANDAQ_PERFBENCH_PERF_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t0) { return MsBetween(t0, Clock::now()); }

/// Latency (or any) samples with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// p in [0, 1]; 0 when empty.
  double Pct(double p) const;
  double Median() const { return Pct(0.5); }
  double Mean() const;
  double Sum() const;
  /// A percentile is reported only when at least ten samples lie beyond it.
  bool Supports(double p) const {
    return static_cast<double>(v_.size()) * (1.0 - p) >= 10.0;
  }

 private:
  std::vector<double> v_;
};

/// One finished span: a named interval inside one request. Spans of one
/// request share `req`; `parent` indexes the enclosing span in the same
/// thread's buffer (-1 for the request's root).
struct Span {
  uint64_t req = 0;
  const char* name = nullptr;
  int parent = -1;
  double t0_us = 0;
  double t1_us = 0;
};

/// In-memory span recorder. Each thread appends to its own buffer; the
/// buffers are merged only when the run ends, so recording costs two clock
/// reads and a vector push.
class Tracer {
 public:
  static Tracer& Get();

  /// Opens a span on the calling thread, nested in its innermost open span.
  void Begin(uint64_t req, const char* name);
  void End();

  /// Per span name: samples of its duration, in microseconds.
  struct Agg {
    Samples total_us;
  };
  std::map<std::string, Agg> Aggregate() const;

  /// Sum over requests of non-root self time divided by the sum of root
  /// span durations (1.0 = every microsecond attributed to a layer).
  double Coverage(const char* root_name) const;

  /// Total duration per span name of request `req`, from the calling
  /// thread's buffer (the request must have run on this thread).
  std::map<std::string, double> RequestTotals(uint64_t req);

  /// Drops every recorded span. No thread may be recording.
  void Clear();

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int> open;
  };
  Buffer* Local();

  mutable std::mutex mu_;
  std::vector<Buffer*> buffers_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(uint64_t req, const char* name) { Tracer::Get().Begin(req, name); }
  ~Scoped() { Tracer::Get().End(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
};

/// What one run reports: metric lines, checks, counts and the run stamp,
/// printed as plain `key value` lines for perfbench/run.py to assemble.
class Report {
 public:
  /// `tag` names the end-to-end metric and workload a per-layer metric
  /// should move (empty for end-to-end metrics).
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& tag = "");
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Stamp(const std::string& key, const std::string& value);
  void Count(uint64_t attempted, uint64_t failed);
  void Print() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
  bool ok_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A child process (the TCP server), killed and reaped by the destructor.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess() { Stop(); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Starts `argv` with stdout piped back; waits (up to 120 s) for a line
  /// starting with `ready_prefix` and returns its remainder.
  bool Start(const std::vector<std::string>& argv, const std::string& ready_prefix,
             std::string* ready_rest);
  /// SIGKILL + waitpid (idempotent).
  void Stop();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// Peak resident set (VmHWM) of `pid`, in MB; 0 when unreadable.
double PeakRssMb(pid_t pid);
/// Current resident set of this process, in MB (from /proc/self/statm).
double SelfRssMb();

/// Copies a flat directory of regular files.
bool CopyDir(const std::string& from, const std::string& to);
/// rm -rf (only ever called on directories under the run's work dir).
void RemoveTree(const std::string& path);
bool MakeDirs(const std::string& path);
uint64_t FileSize(const std::string& path);
/// Filesystem type name of `path` (ext4, xfs, tmpfs, overlay, ...).
std::string FsType(const std::string& path);

/// FNV-1a, for stable per-session seeds.
uint64_t Mix(uint64_t a, uint64_t b);

std::string Fmt(double v);

}  // namespace perfbench

#endif  // SEMANDAQ_PERFBENCH_PERF_UTIL_H_
