// The four benchmark workloads. Each runs against depstor's public API,
// measures for a fixed wall time, checks every output outside the timed
// window, and returns its metrics by name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_lib.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< per-layer pass instead of the end-to-end pass
};

/// Load threads, serve connections and server workers, intra-solve workers
/// of solve_fan: the benchmark host's nproc.
inline constexpr int kLoadThreads = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;          ///< human-readable lines
  std::vector<std::string> check_failures;  ///< output checks that failed
  long long attempted = 0;
  long long failed = 0;
  SpanRecorder spans;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail_check(const std::string& what) { check_failures.push_back(what); }
};

const std::vector<std::string>& workload_names();

/// Runs one workload; throws InvalidArgument for an unknown name.
void run_workload(const RunOptions& options, RunReport& report);

/// Every per-layer metric the traced pass reports, with its unit. A workload
/// that does not measure a metric (its calls never reach the layer, or serve's
/// result events do not carry the count) reports 0 for it and notes "n/a".
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
