#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "gapsched/engine/engine.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/serve/protocol.hpp"

namespace perfbench {

namespace engine = gapsched::engine;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTimes cpu_times() {
  CpuTimes out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got < 8) return out;
  out.steal = static_cast<double>(v[7]);
  for (unsigned long long x : v) out.total += static_cast<double>(x);
  return out;
}

double steal_share(const CpuTimes& from, const CpuTimes& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

namespace {

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

void reference_work() {
  std::mt19937_64 rng(0x5eed);
  std::vector<std::uint64_t> keys(std::size_t{1} << 12);
  for (std::uint64_t& k : keys) k = rng();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < keys.size(); i += 2) index[keys[i] >> 7] = i;
  std::uint64_t sink = 0;
  for (const std::uint64_t k : keys) {
    const auto it = index.find(k >> 7);
    if (it != index.end()) sink += it->second;
  }
  std::string text;
  for (std::size_t i = 0; i < keys.size(); i += 4) {
    text += std::to_string(keys[i] % 1000003);
    text += ',';
  }
  for (const char* p = text.c_str(); *p != '\0';) {
    char* end = nullptr;
    sink += std::strtoull(p, &end, 10);
    p = end + 1;
  }
  // Keeps the work observable so that it is not optimised away.
  static volatile std::uint64_t observed = 0;
  observed = observed + sink;
}

struct HostSpeedProbe::State {
  double reference_ms = 0.0;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::vector<std::pair<Clock::time_point, double>> samples;
  std::thread thread;
};

HostSpeedProbe::HostSpeedProbe(double period_ms, double reference_ms)
    : state_(new State) {
  State& st = *state_;
  st.reference_ms = reference_ms;
  const auto period = std::chrono::duration<double, std::milli>(period_ms);
  st.thread = std::thread([&st, period] {
    std::unique_lock<std::mutex> lk(st.mu);
    while (!st.stop) {
      lk.unlock();
      const auto at = Clock::now();
      const double cpu_start = thread_cpu_ms();
      reference_work();
      const double ms = thread_cpu_ms() - cpu_start;
      lk.lock();
      st.samples.emplace_back(at, ms);
      st.cv.wait_for(lk, period, [&st] { return st.stop; });
    }
  });
}

HostSpeedProbe::~HostSpeedProbe() {
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->stop = true;
  }
  state_->cv.notify_all();
  state_->thread.join();
}

double HostSpeedProbe::speed(Clock::time_point from,
                             Clock::time_point to) const {
  std::lock_guard<std::mutex> lk(state_->mu);
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [at, ms] : state_->samples) {
    if (at < from || at > to) continue;
    sum += ms;
    ++n;
  }
  return n > 0 && sum > 0.0
             ? state_->reference_ms * static_cast<double>(n) / sum
             : 1.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (a * 1000003ULL + b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Base draw_base(const std::vector<Family>& families, std::size_t family,
               std::uint64_t scenario_seed) {
  const Family& fam = families.at(family);
  auto instance = gapsched::scenarios::make_scenario(fam.scenario,
                                                     scenario_seed);
  if (!instance.has_value()) {
    throw std::runtime_error("unknown scenario " + fam.scenario);
  }
  static const auto registry =
      engine::SolverRegistry::create_with_builtins();
  const engine::Solver* solver = registry->find(fam.solver);
  if (solver == nullptr) throw std::runtime_error("unknown solver " + fam.solver);
  Base base;
  base.family = family;
  base.solver = fam.solver;
  base.request.instance = std::move(*instance);
  base.request.objective = solver->info().objective;
  base.request.params.alpha = fam.alpha;
  base.request.params.validate = true;
  return base;
}

std::string compute_references(std::vector<Base>& bases, std::size_t threads) {
  engine::Engine reference({.threads = threads, .cache = false});
  std::vector<engine::BatchJob> jobs;
  jobs.reserve(bases.size());
  for (const Base& base : bases) jobs.push_back({base.solver, base.request});
  const std::vector<SolveResult> results = reference.solve_batch(jobs);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const SolveResult& r = results[i];
    if (!r.ok || r.timed_out || !r.audit_error.empty()) {
      return "reference solve of " + bases[i].solver + " failed: " + r.error +
             r.audit_error;
    }
    bases[i].ref_cost = r.cost;
    bases[i].ref_feasible = r.feasible;
  }
  return {};
}

void corrupt_reference(Base& base) {
  base.ref_feasible = !base.ref_feasible;
  base.ref_cost += 1.0;
}

std::string check_answer(const Base& base, const SolveResult& result) {
  if (!result.ok) return "rejected: " + result.error;
  if (result.timed_out) return "timed_out";
  if (!result.audited) return "not audited";
  if (!result.audit_error.empty()) return "refuted: " + result.audit_error;
  if (result.feasible != base.ref_feasible) return "feasibility differs";
  const double tol = 1e-9 * std::max(1.0, std::abs(base.ref_cost));
  if (result.feasible && std::abs(result.cost - base.ref_cost) > tol) {
    return "cost " + std::to_string(result.cost) + " differs from reference " +
           std::to_string(base.ref_cost);
  }
  return {};
}

SolveRequest shifted_permuted_copy(const SolveRequest& request,
                                   std::mt19937_64& rng) {
  SolveRequest copy = request;
  const auto delta = static_cast<gapsched::Time>(rng() % 997);
  for (gapsched::Job& job : copy.instance.jobs) {
    job.allowed = job.allowed.shifted(delta);
  }
  std::shuffle(copy.instance.jobs.begin(), copy.instance.jobs.end(), rng);
  return copy;
}

FrameTemplate make_template(std::size_t base, const std::string& solver,
                            const SolveRequest& request) {
  const std::string frame = gapsched::serve::request_frame(0, solver, request);
  static const std::string kId = "\"id\":0";
  const std::size_t at = frame.find(kId);
  if (at == std::string::npos) {
    throw std::runtime_error("request frame without an id field");
  }
  FrameTemplate t;
  t.base = base;
  t.head = frame.substr(0, at + kId.size() - 1);
  t.tail = frame.substr(at + kId.size()) + "\n";
  return t;
}

const std::vector<std::string>& stage_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (std::size_t s = 0; s < engine::kPipelineStageCount; ++s) {
      out.emplace_back(
          engine::to_string(static_cast<engine::PipelineStage>(s)));
    }
    return out;
  }();
  return names;
}

}  // namespace perfbench
