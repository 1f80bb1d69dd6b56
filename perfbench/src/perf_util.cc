#include "perf_util.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double Samples::Pct(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = std::ceil(p * static_cast<double>(s.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return s[std::min(idx, s.size() - 1)];
}

double Samples::Sum() const {
  double t = 0;
  for (double x : v_) t += x;
  return t;
}

double Samples::Mean() const { return v_.empty() ? 0 : Sum() / static_cast<double>(v_.size()); }

// ------------------------------------------------------------------ tracer

namespace {
double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Buffer* Tracer::Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    local = new Buffer();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(local);
  }
  return local;
}

void Tracer::Begin(uint64_t req, const char* name) {
  Buffer* b = Local();
  Span s;
  s.req = req;
  s.name = name;
  s.parent = b->open.empty() ? -1 : b->open.back();
  s.t0_us = NowUs();
  b->spans.push_back(s);
  b->open.push_back(static_cast<int>(b->spans.size() - 1));
}

void Tracer::End() {
  Buffer* b = Local();
  b->spans[static_cast<size_t>(b->open.back())].t1_us = NowUs();
  b->open.pop_back();
}

std::map<std::string, Tracer::Agg> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Agg> out;
  for (const Buffer* b : buffers_) {
    for (const Span& s : b->spans) out[s.name].total_us.Add(s.t1_us - s.t0_us);
  }
  return out;
}

double Tracer::Coverage(const char* root_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double root = 0, root_self = 0;
  for (const Buffer* b : buffers_) {
    std::vector<double> child(b->spans.size(), 0.0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.t1_us - s.t0_us;
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      if (s.parent < 0 && std::strcmp(s.name, root_name) == 0) {
        root += s.t1_us - s.t0_us;
        root_self += s.t1_us - s.t0_us - child[i];
      }
    }
  }
  return root > 0 ? (root - root_self) / root : 0;
}

std::map<std::string, double> Tracer::RequestTotals(uint64_t req) {
  std::map<std::string, double> out;
  const Buffer* b = Local();
  for (auto it = b->spans.rbegin(); it != b->spans.rend() && it->req == req; ++it) {
    out[it->name] += it->t1_us - it->t0_us;
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Buffer* b : buffers_) b->spans.clear();
}

// ------------------------------------------------------------------ report

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void Report::Metric(const std::string& name, double value, const std::string& unit,
                    const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back("metric " + name + " " + Fmt(value) + " " + unit +
                   (tag.empty() ? "" : " " + tag));
}

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok) ok_ = false;
  std::string d = detail;
  std::replace(d.begin(), d.end(), '\n', ' ');
  lines_.push_back("check " + name + " " + (ok ? "ok" : "FAIL") +
                   (d.empty() ? "" : " " + d));
}

void Report::Stamp(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back("stamp " + key + " " + value);
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  std::printf("result %s %llu %llu\n", ok_ ? "correct" : "incorrect",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::fflush(stdout);
}

// ----------------------------------------------------------- child process

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         const std::string& ready_prefix, std::string* ready_rest) {
  // Everything the child needs is prepared before fork: between fork and
  // exec a multi-threaded parent's child may only make async-signal-safe
  // calls.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return false;
  const int devnull = open("/dev/null", O_WRONLY | O_CLOEXEC);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    if (devnull >= 0) close(devnull);
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the generator
    dup2(fds[1], STDOUT_FILENO);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  if (devnull >= 0) close(devnull);
  pid_ = pid;
  out_fd_ = fds[0];
  std::string buf;
  const Clock::time_point t0 = Clock::now();
  while (MsSince(t0) < 120000) {
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    char c;
    const ssize_t n = read(out_fd_, &c, 1);
    if (n <= 0) return false;
    if (c != '\n') {
      buf.push_back(c);
      continue;
    }
    if (buf.rfind(ready_prefix, 0) == 0) {
      *ready_rest = buf.substr(ready_prefix.size());
      return true;
    }
    buf.clear();
  }
  return false;
}

void ChildProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

// ------------------------------------------------------------------- files

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double SelfRssMb() {
  std::ifstream in("/proc/self/statm");
  double size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

bool MakeDirs(const std::string& path) {
  std::string cur;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') cur = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    cur += part + "/";
    if (mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

bool CopyDir(const std::string& from, const std::string& to) {
  if (!MakeDirs(to)) return false;
  DIR* d = opendir(from.c_str());
  if (d == nullptr) return false;
  bool ok = true;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::ifstream in(from + "/" + name, std::ios::binary);
    std::ofstream out(to + "/" + name, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    if (!out) ok = false;
  }
  closedir(d);
  return ok;
}

void RemoveTree(const std::string& path) {
  struct stat st;
  if (lstat(path.c_str(), &st) != 0) return;
  if (S_ISDIR(st.st_mode)) {
    if (DIR* d = opendir(path.c_str())) {
      while (dirent* e = readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") RemoveTree(path + "/" + name);
      }
      closedir(d);
    }
    rmdir(path.c_str());
  } else {
    unlink(path.c_str());
  }
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

std::string FsType(const std::string& path) {
  struct statfs sf;
  if (statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t x : {a, b}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace perfbench
