// semandaq_perf: the Semandaq benchmark's load generator and traced replayer.
//
//   semandaq_perf --workload=NAME --seed=N --seconds=S --trace=0|1
//                 --server=PATH --work=DIR [--smoke]
//
// Prints `stamp`, `metric` and `check` lines and a final `result` line;
// perfbench/run.py turns them into the benchmark's JSON result. Exits 2 on
// bad arguments and 1 when a workload cannot be set up.

#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/simd/simd.h"
#include "perf_util.h"
#include "workloads.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: semandaq_perf --workload=NAME --seed=N --seconds=S --trace=0|1"
               " --server=PATH --work=DIR [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive perfbench/run.py
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Flag(argv[i], "--workload", &v)) {
      o.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(argv[i], "--trace", &v)) {
      o.trace = v == "1";
    } else if (Flag(argv[i], "--server", &v)) {
      o.server_bin = v;
    } else if (Flag(argv[i], "--work", &v)) {
      o.work = v;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      o.smoke = true;
    } else {
      return Usage();
    }
  }
  if (o.workload.empty() || o.server_bin.empty() || o.work.empty() || o.seconds <= 0) {
    return Usage();
  }
  if (!perfbench::MakeDirs(o.work)) return 1;

  perfbench::Report report;
  report.Stamp("workload", o.workload);
  report.Stamp("seed", std::to_string(o.seed));
  report.Stamp("seconds", perfbench::Fmt(o.seconds));
  report.Stamp("trace", o.trace ? "1" : "0");
  report.Stamp("smoke", o.smoke ? "1" : "0");
  report.Stamp("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Stamp("build_type", SEMANDAQ_PERF_BUILD_TYPE);
  report.Stamp("compiler", __VERSION__);
  report.Stamp("simd_tier", std::string(semandaq::common::simd::LevelName(
                                semandaq::common::simd::ActiveLevel())));
  if (!perfbench::RunWorkload(o, &report)) {
    std::fprintf(stderr, "semandaq_perf: workload %s failed to set up\n", o.workload.c_str());
    return 1;
  }
  report.Print();
  return 0;
}
