#pragma once
// The benchmark's three workloads. See perfbench/README.md for why each
// exists, its offered rates and thread budget, and which layer metric is
// expected to move which end-to-end metric on it.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // required; run.py passes BENCHMARK.json's run_seconds
  bool trace = false;
  /// Falsifies the first reference, so a correct program fails the gate:
  /// the check that the gate can trip.
  bool corrupt_reference = false;
  /// Directory for store files and the span log.
  std::string work_dir = ".";
};

struct RunReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  /// Why the measurement itself cannot be trusted (the load generator fell
  /// behind its schedule): the run reports no result at all.
  std::string invalid;
  Metrics metrics;

  void fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

RunReport run_serve(const RunOptions& options, bool cold);
RunReport run_restart_warm(const RunOptions& options);

}  // namespace perfbench
