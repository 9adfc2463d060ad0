#pragma once
// Shared pieces of the repository benchmark: clocks and order statistics,
// the metric map every workload fills, the request mix and its seeded
// draws, the reference gate that checks every answer, and the request
// frame templates the load generator numbers at send time.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gapsched/engine/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using gapsched::engine::SolveRequest;
using gapsched::engine::SolveResult;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Linear-interpolated quantile q in [0, 1] of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Machine-wide CPU time from /proc/stat, in clock ticks: the share the
/// hypervisor of a virtual machine gave to other guests ("steal") and the
/// total. Zeros when unavailable.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};
CpuTimes cpu_times();
/// Share of the CPU time between two readings that was stolen.
double steal_share(const CpuTimes& from, const CpuTimes& to);

/// One pass of a fixed piece of work that is the benchmark's own, so no
/// change to the program moves its time: sorting, hashing and number text
/// over 32 KiB, the kinds of work the engine's hit path does. How long it
/// takes tracks how fast the host runs the calling thread at the moment.
void reference_work();

/// Host-speed adjustment. A measured time t is reported as t * speed, where
/// speed is a fixed reference reading of reference_work() over the mean
/// reading taken alongside t: the time t would have taken had the host run
/// at the speed of the reference reading. The program's changes move t and
/// not the reference work, so they move adjusted times by the same share.
///
/// Times reference_work() on a thread of its own, one sample every
/// `period_ms`, from construction to destruction. At 0.5 ms a sample and
/// one sample per 10 ms it keeps about 5 % of one CPU busy. A sample is the
/// thread's CPU time, which leaves out the time the probe waited for a CPU
/// behind the benchmark's own threads.
class HostSpeedProbe {
 public:
  /// `reference_ms`: the probe's reading at the host speed adjusted times
  /// are expressed at.
  HostSpeedProbe(double period_ms, double reference_ms);
  ~HostSpeedProbe();
  HostSpeedProbe(const HostSpeedProbe&) = delete;
  HostSpeedProbe& operator=(const HostSpeedProbe&) = delete;

  /// reference_ms over the mean of the samples that started between `from`
  /// and `to`; 1 when there are none.
  double speed(Clock::time_point from, Clock::time_point to) const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// SplitMix64 step: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// One request class of a workload mix.
struct Family {
  std::string scenario;
  std::string solver;
  double alpha = 2.0;
  /// Share of the timed requests drawn from this family (serve mixes).
  double share = 0.0;
};

/// A distinct instance of a workload, with the reference answer every
/// served copy of it must match.
struct Base {
  std::size_t family = 0;
  std::string solver;
  SolveRequest request;
  double ref_cost = 0.0;
  bool ref_feasible = false;
};

/// Draws the scenario of `family` at `scenario_seed`; validate is on, as on
/// every request the benchmark sends. Throws on an unknown name.
Base draw_base(const std::vector<Family>& families, std::size_t family,
               std::uint64_t scenario_seed);

/// Fills ref_cost/ref_feasible of every base with a cache-off Engine.
/// Returns "" or the first problem (rejection, refutation, timeout).
std::string compute_references(std::vector<Base>& bases, std::size_t threads);

/// Falsifies a reference (flips feasibility, shifts the cost) so that any
/// correct answer to the base fails the gate.
void corrupt_reference(Base& base);

/// "" when `result` is a correct answer to `base`: accepted, not timed out,
/// audited without refutation, and equal in cost and feasibility to the
/// reference. Otherwise why not.
std::string check_answer(const Base& base, const SolveResult& result);

/// A time-shifted, job-permuted copy of `request` (canonically equal, so
/// the engine's cache serves it from the same entry).
SolveRequest shifted_permuted_copy(const SolveRequest& request,
                                   std::mt19937_64& rng);

/// A request frame split around its id, so one pre-built frame can be sent
/// many times under fresh ids: text = head + id + tail.
struct FrameTemplate {
  std::size_t base = 0;
  std::string head;
  std::string tail;  // ends in '\n'
  std::string with_id(std::int64_t id) const {
    return head + std::to_string(id) + tail;
  }
};
FrameTemplate make_template(std::size_t base, const std::string& solver,
                            const SolveRequest& request);

/// The pipeline stage names in PipelineStage order.
const std::vector<std::string>& stage_names();

}  // namespace perfbench
