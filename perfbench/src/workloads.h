#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file
/// The benchmark's four closed-loop workloads (one client, each query
/// issued after the previous one returns). See RunWorkload.

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, no spans. true: per-layer metrics from
  /// spans around every layer call plus a serial replay of each query.
  bool trace = false;
  /// Directory for the generated dataset CSV and the trace file.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;  ///< targets
  std::uint64_t failed = 0;     ///< targets that errored, were NaN or wrong
  /// Every check passed (per-target checks and run-level self-checks).
  bool correct = true;
  /// End-to-end metrics without trace, per-layer metrics with trace.
  std::vector<Metric> metrics;
  /// Printed for the reader, not part of the result object.
  std::vector<Metric> notes;
  /// One line per failed check.
  std::vector<std::string> problems;
};

/// Pool workers a workload's queries run on (0 = calling thread only).
std::size_t PoolWorkers(const std::string& workload);

/// Generates the workload's inputs from config.seed, writes the dataset
/// CSV, times the set-up (load, model, solver), computes reference
/// answers outside the timed window, then runs queries back to back for
/// config.seconds (and at least the workload's minimum query count),
/// checking every answer. Fails only on an unknown workload or when the
/// inputs cannot be built; wrong answers land in the report.
skypref::Result<RunReport> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
