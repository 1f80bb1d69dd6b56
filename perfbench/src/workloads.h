// The benchmark's three workloads (perfbench/README.md explains why each
// exists and which layers it stresses).
#ifndef SEMANDAQ_PERFBENCH_WORKLOADS_H_
#define SEMANDAQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perf_util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: the measured window, reporting end-to-end metrics.
  /// true: the traced replay, reporting per-layer metrics.
  bool trace = false;
  /// Tiny inputs and short phases, for the benchmark's own smoke test.
  bool smoke = false;
  std::string server_bin;
  /// Scratch directory for generated databases (inside the checkout).
  std::string work;
};

/// Runs `options.workload`; false on an unknown workload or a setup
/// failure (the caller then prints no result).
bool RunWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // SEMANDAQ_PERFBENCH_WORKLOADS_H_
