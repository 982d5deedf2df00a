// Benchmark runner: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--git-sha SHA]
//
// Prints the environment, every metric as "<name> <value> <unit>", and as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. Check failures go to stderr. Exit 0 when the run completed
// (correct or not), 1 when its inputs could not be built, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.work_dir.empty() ||
      !(config.seconds > 0.0)) {
    return Usage();
  }

  std::printf(
      "env {\"cpu_model\": %s, \"nproc\": %u, \"pool_workers\": %zu, "
      "\"compiler\": %s, \"cxx_flags\": %s, \"build_type\": %s, "
      "\"failpoints_compiled_in\": %s, \"git_sha\": %s, \"seed\": %llu, "
      "\"trace\": %d}\n",
      JsonString(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      perfbench::PoolWorkers(config.workload),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      PERFBENCH_FAILPOINTS ? "true" : "false", JsonString(git_sha).c_str(),
      static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0);
  std::fflush(stdout);

  skypref::Result<perfbench::RunReport> run = perfbench::RunWorkload(config);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const perfbench::RunReport& report = run.value();
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  for (const auto* list : {&report.metrics, &report.notes}) {
    for (const perfbench::Metric& metric : *list) {
      std::printf("%s %s %s\n", metric.name.c_str(),
                  JsonNumber(metric.value).c_str(), metric.unit.c_str());
    }
  }
  std::string metrics;
  for (const perfbench::Metric& metric : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(metric.name) + ": {\"value\": " +
               JsonNumber(metric.value) + ", \"unit\": " +
               JsonString(metric.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct && report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
