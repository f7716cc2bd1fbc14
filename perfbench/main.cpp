// perfbench — depstor's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable table, a provenance line, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"} holding
// every metric it measured (end-to-end with --trace 0, per-layer with
// --trace 1). Exits 1 when an output check failed, 2 on a usage error or
// when the run guard refuses to time.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "analysis/audit.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunOptions;
using perfbench::RunReport;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

/// Reasons the run would not measure what the benchmark defines; empty
/// when it may be timed.
std::vector<std::string> guard_violations() {
  std::vector<std::string> out;
  for (const char* var :
       {"DEPSTOR_AUDIT", "DEPSTOR_TRACE", "DEPSTOR_STATS",
        "DEPSTOR_INCREMENTAL"}) {
    if (std::getenv(var) != nullptr) {
      out.push_back(std::string(var) + " is set");
    }
  }
#ifndef NDEBUG
  out.push_back("perfbench was built without NDEBUG");
#endif
  // With DEPSTOR_AUDIT unset this reports how the library itself was built.
  if (out.empty() && depstor::analysis::debug_audit_enabled()) {
    out.push_back("the depstor library was built without NDEBUG");
  }
  return out;
}

/// (steal, total) jiffies of all CPUs from /proc/stat; zeros when absent.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v = 0, total = 0, steal = 0;
  in >> cpu;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (opt.seconds <= 0) return usage("--seconds must be positive");
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == opt.workload;
  if (!known) return usage("unknown workload " + opt.workload);

  const std::vector<std::string> refused = guard_violations();
  if (!refused.empty()) {
    for (const auto& r : refused) {
      std::cerr << "perfbench: refusing to time: " << r << "\n";
    }
    return 2;
  }

  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) load[0] = -1;
  {
    depstor::JsonWriter w;
    w.begin_object().key("provenance").begin_object()
        .field("workload", opt.workload)
        .field("seed", std::to_string(opt.seed))
        .field("seconds", opt.seconds)
        .field("trace", opt.trace)
        .field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
        .field("load_threads", perfbench::kLoadThreads)
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .field("loadavg_1m", load[0])
        .end_object().end_object();
    std::cout << w.str() << "\n";
  }

  RunReport report;
  const auto steal0 = cpu_steal_jiffies();
  try {
    perfbench::run_workload(opt, report);
  } catch (const std::exception& e) {
    report.fail_check(std::string("workload aborted: ") + e.what());
  }
  const auto steal1 = cpu_steal_jiffies();
  if (steal1.second > steal0.second) {
    // Time the hypervisor ran other guests on this machine's CPUs: the
    // main source of run-to-run spread on a shared virtual machine.
    report.notes.push_back(
        "host steal: " +
        fmt(100.0 * (steal1.first - steal0.first) /
            (steal1.second - steal0.second)) +
        "% of CPU time during the run");
  }

  const long long failed =
      report.failed + static_cast<long long>(report.check_failures.size());
  const long long attempted = std::max(report.attempted, failed);
  if (!opt.trace) {
    report.add("failed_share",
               attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
               "ratio");
  }

  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << (opt.trace ? " (traced pass: per-layer metrics)"
                          : " (end-to-end metrics)")
            << "\n";
  for (const auto& m : report.metrics) {
    std::cout << "  " << m.name << " = " << fmt(m.value) << " " << m.unit
              << "\n";
  }
  if (opt.trace) {
    for (const auto& [name, unit] : perfbench::layer_metrics()) {
      bool present = false;
      for (const auto& m : report.metrics) present |= m.name == name;
      if (!present) {
        report.add(name, 0.0, unit);
        std::cout << "  " << name << " = n/a (not measured on this "
                  << "workload; reported as 0)\n";
      }
    }
  } else if (opt.workload != "serve_stream") {
    std::cout << "  max_rate_per_s = n/a (closed-loop workload)\n";
  }
  for (const auto& n : report.notes) std::cout << "  note: " << n << "\n";
  for (const auto& c : report.check_failures) {
    std::cout << "  CHECK FAILED: " << c << "\n";
  }

  if (opt.trace) {
    mkdir(".perfbench_out", 0755);
    const std::string path = ".perfbench_out/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream(path) << report.spans.to_json() << "\n";
    std::cout << "  spans written to " << path << "\n";
  }

  const bool correct = report.check_failures.empty() && failed == 0;
  depstor::JsonWriter w;
  w.begin_object()
      .field("correct", correct)
      .field("attempted", std::max(attempted, 1LL))
      .field("failed", failed)
      .key("metrics")
      .begin_object();
  for (const auto& m : report.metrics) {
    w.key(m.name).begin_object().field("value", m.value).field("unit", m.unit)
        .end_object();
  }
  w.end_object().end_object();
  std::cout << w.str() << std::endl;
  return correct ? 0 : 1;
}
