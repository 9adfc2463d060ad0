// gapsched_perfbench — the repository benchmark.
//
//   gapsched_perfbench --workload <serve_hits|serve_cold|restart_warm>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--work-dir <dir>] [--corrupt-reference]
//
// Prints every metric by name with its unit, then, as the last line of
// standard output, one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// With --trace 0 the metrics are the gated end-to-end ones (the tail
// latencies are printed but left out of the result line); with --trace 1
// the per-layer ones. Every answer is checked against a reference computed by a
// cache-off Engine; any wrong, refused, timed-out or missing answer makes
// the run fail: correct is false and the exit status is 1. A correct run
// whose load generator fell behind its schedule is invalid: it prints no
// result line and exits 3.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

/// End-to-end metrics a --trace 0 run prints but leaves out of its result
/// line: on a shared host the served workloads' tail latencies spread from
/// run to run by more than any bound a gate could hold (perfbench/README.md,
/// Steadiness).
const char* const kPrintedOnly[] = {"latency_p99_ms", "latency_p99_ms.high"};

int usage(const char* why) {
  std::fprintf(stderr,
               "gapsched_perfbench: %s\nusage: gapsched_perfbench --workload "
               "<serve_hits|serve_cold|restart_warm> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--corrupt-reference]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  const perfbench::CpuTimes run_start = perfbench::cpu_times();
  perfbench::RunReport report;
  try {
    if (options.workload == "serve_hits" || options.workload == "serve_cold") {
      report = perfbench::run_serve(options, options.workload == "serve_cold");
    } else if (options.workload == "restart_warm") {
      report = perfbench::run_restart_warm(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }

  const bool correct = report.failed == 0;
  std::printf("host steal: %.2f%% of CPU time during the run\n",
              100.0 * perfbench::steal_share(run_start, perfbench::cpu_times()));
  // A wrong answer fails the run whatever the measurement; a run whose
  // answers were all right but whose load generator fell behind measured
  // nothing worth reporting.
  if (correct && !report.invalid.empty()) {
    std::fprintf(stderr, "gapsched_perfbench: INVALID run: %s\n",
                 report.invalid.c_str());
    return 3;
  }
  if (!options.trace) {
    for (const char* name : kPrintedOnly) {
      const auto it = report.metrics.find(name);
      if (it == report.metrics.end()) continue;
      std::printf("%-40s %.6f %s (printed only, not gated)\n", name,
                  it->second.value, it->second.unit.c_str());
      report.metrics.erase(it);
    }
  }
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-40s %.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("failed_frac %.6f (%zu failed / %zu attempted)\n",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 1.0,
              report.failed, report.attempted);
  if (!correct) {
    std::fprintf(stderr, "gapsched_perfbench: FAILED: %s\n",
                 report.first_error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", report.attempted, report.failed);
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
