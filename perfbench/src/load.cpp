#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <random>
#include <thread>

#include "gapsched/serve/protocol.hpp"

namespace perfbench {

namespace serve = gapsched::serve;
namespace io = gapsched::io;

namespace {

/// How long past its last due time a phase may take before the client
/// gives up on missing answers (they then count as failed).
constexpr double kGraceSeconds = 30.0;

/// Counts finished worker threads so the caller can wait with a deadline.
class Finish {
 public:
  explicit Finish(std::size_t workers) : remaining_(workers) {}
  void done() {
    std::lock_guard<std::mutex> lk(mu_);
    --remaining_;
    cv_.notify_all();
  }
  bool wait_until(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_until(lk, deadline, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t remaining_;
};

}  // namespace

struct LoadClient::Conn {
  serve::TcpStream stream;
  serve::LineBuffer lines;

  /// Next complete frame; nullopt on EOF or a transport error.
  std::optional<std::string> next_frame() {
    for (;;) {
      if (auto line = lines.next(); line.has_value()) return line;
      if (lines.overflowed()) return std::nullopt;
      char buf[65536];
      const long got = stream.recv_some(buf, sizeof buf);
      if (got <= 0) return std::nullopt;
      lines.append(std::string_view(buf, static_cast<std::size_t>(got)));
    }
  }
};

std::size_t PhaseResult::correct() const {
  return static_cast<std::size_t>(std::count_if(
      slots.begin(), slots.end(), [](const Slot& s) { return s.correct; }));
}

Clock::time_point PhaseResult::end() const {
  Clock::time_point last = start;
  for (const Slot& s : slots) {
    if (s.answered) last = std::max(last, s.recv);
  }
  return last;
}

double pooled_rate(const std::vector<PhaseResult>& phases, bool adjusted) {
  double answers = 0.0;
  double busy_s = 0.0;
  for (const PhaseResult& phase : phases) {
    answers += static_cast<double>(phase.correct());
    busy_s += ms_between(phase.start, phase.end()) / 1000.0 *
              (adjusted ? phase.speed : 1.0);
  }
  return busy_s > 0.0 ? answers / busy_s : 0.0;
}

double pooled_latency(const std::vector<PhaseResult>& phases, double q,
                      bool adjusted) {
  std::vector<double> samples;
  for (const PhaseResult& phase : phases) {
    const double scale = adjusted ? phase.speed : 1.0;
    for (const Slot& s : phase.slots) {
      if (s.answered) samples.push_back(ms_between(s.due, s.recv) * scale);
    }
  }
  return quantile(std::move(samples), q);
}

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> offsets;
  for (double t = gap(rng); t < seconds; t += gap(rng)) offsets.push_back(t);
  return offsets;
}

LoadClient::LoadClient(const std::vector<FrameTemplate>& templates,
                       const std::vector<Base>& bases)
    : templates_(templates), bases_(bases) {}

LoadClient::~LoadClient() = default;

bool LoadClient::connect(int port, std::size_t connections,
                         std::string* error) {
  for (std::size_t c = 0; c < connections; ++c) {
    auto stream = serve::TcpStream::connect("127.0.0.1", port, error);
    if (!stream.has_value()) return false;
    auto conn = std::make_unique<Conn>();
    conn->stream = std::move(*stream);
    conns_.push_back(std::move(conn));
  }
  return true;
}

void LoadClient::close() {
  for (auto& conn : conns_) conn->stream.close();
  conns_.clear();
}

std::int64_t LoadClient::frame_id(const std::string& line) {
  static const std::string kResult = "{\"frame\":\"result\",\"id\":";
  static const std::string kError = "{\"frame\":\"error\",\"id\":";
  const std::string* prefix = nullptr;
  if (line.starts_with(kResult)) prefix = &kResult;
  if (line.starts_with(kError)) prefix = &kError;
  if (prefix == nullptr) return -1;
  return std::strtoll(line.c_str() + prefix->size(), nullptr, 10);
}

void LoadClient::absorb(Slot& slot, const std::string& line,
                        bool traced) const {
  slot.answered = true;
  slot.result_bytes = line.size();
  std::string error;
  if (line.starts_with("{\"frame\":\"error\"")) {
    const auto head = io::frame_head_from_json(line, &error);
    slot.error = "error frame: " + (head.has_value() ? head->message : error);
  } else if (const auto result = io::result_from_json(line, &error);
             !result.has_value()) {
    slot.error = "unparseable result: " + error;
  } else {
    slot.error = check_answer(bases_[templates_[slot.item].base], *result);
    if (traced) slot.stats = result->stats;
  }
  slot.correct = slot.error.empty();
}

PhaseResult LoadClient::closed_loop(const std::vector<std::size_t>& items,
                                    std::size_t window, double seconds,
                                    bool traced) {
  PhaseResult phase;
  phase.slots.resize(items.size());
  const std::int64_t first_id = next_id_;
  next_id_ += static_cast<std::int64_t>(items.size());
  phase.start = Clock::now();
  phase.planned_s = seconds;
  const auto stop = phase.start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::atomic<std::size_t> next{0};
  std::vector<std::string> errors(conns_.size());
  Finish finish(conns_.size());

  const auto drive = [&](std::size_t c) {
    Conn& conn = *conns_[c];
    std::size_t outstanding = 0;
    const auto send_next = [&]() -> bool {
      if (Clock::now() >= stop) return false;
      const std::size_t k = next.fetch_add(1);
      if (k >= items.size()) return false;
      Slot& slot = phase.slots[k];
      slot.item = items[k];
      slot.id = first_id + static_cast<std::int64_t>(k);
      slot.due = slot.sent = Clock::now();
      if (!conn.stream.send_all(templates_[slot.item].with_id(slot.id))) {
        errors[c] = "send failed";
        return false;
      }
      ++outstanding;
      return true;
    };
    for (std::size_t w = 0; w < window && send_next(); ++w) {
    }
    while (outstanding > 0) {
      const auto line = conn.next_frame();
      if (!line.has_value()) {
        errors[c] = "connection closed with answers outstanding";
        break;
      }
      const std::int64_t id = frame_id(*line);
      if (id < first_id ||
          id >= first_id + static_cast<std::int64_t>(items.size())) {
        continue;  // hello and other control frames
      }
      Slot& slot = phase.slots[static_cast<std::size_t>(id - first_id)];
      slot.recv = Clock::now();
      absorb(slot, *line, traced);
      slot.parsed = Clock::now();
      --outstanding;
      send_next();
    }
    finish.done();
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns_.size(); ++c) threads.emplace_back(drive, c);
  if (!finish.wait_until(stop + std::chrono::seconds(
                                    static_cast<int>(kGraceSeconds)))) {
    for (auto& conn : conns_) conn->stream.shutdown_both();
  }
  for (std::thread& t : threads) t.join();

  phase.slots.resize(std::min(next.load(), items.size()));
  for (const std::string& e : errors) {
    if (!e.empty() && phase.error.empty()) phase.error = e;
  }
  return phase;
}

PhaseResult LoadClient::open_loop(const std::vector<std::size_t>& items,
                                  const std::vector<double>& offsets_s,
                                  double seconds, bool traced) {
  PhaseResult phase;
  phase.planned_s = seconds;
  const std::size_t n = std::min(items.size(), offsets_s.size());
  phase.slots.resize(n);
  phase.gen_lag_ms.assign(n, 0.0);
  const std::int64_t first_id = next_id_;
  next_id_ += static_cast<std::int64_t>(n);
  for (std::size_t k = 0; k < n; ++k) {
    phase.slots[k].item = items[k];
    phase.slots[k].id = first_id + static_cast<std::int64_t>(k);
  }
  const std::size_t conns = conns_.size();
  // A short lead so every thread is parked before the first arrival.
  phase.start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double offset_s) {
    return phase.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(offset_s));
  };
  std::vector<std::string> errors(conns + 1);
  Finish finish(conns + 1);

  // Sender writes due/sent, receivers write the answer fields: disjoint
  // members of each slot.
  const auto sender = [&] {
    for (std::size_t k = 0; k < n; ++k) {
      Slot& slot = phase.slots[k];
      slot.due = at(offsets_s[k]);
      std::this_thread::sleep_until(slot.due);
      slot.sent = Clock::now();
      phase.gen_lag_ms[k] = ms_between(slot.due, slot.sent);
      if (!conns_[k % conns]->stream.send_all(
              templates_[slot.item].with_id(slot.id))) {
        errors[conns] = "send failed";
        for (auto& conn : conns_) conn->stream.shutdown_both();
        break;
      }
    }
    finish.done();
  };
  const auto receiver = [&](std::size_t c) {
    std::size_t expected = n / conns + (c < n % conns ? 1 : 0);
    while (expected > 0) {
      const auto line = conns_[c]->next_frame();
      if (!line.has_value()) {
        errors[c] = "connection closed with answers outstanding";
        break;
      }
      const std::int64_t id = frame_id(*line);
      if (id < first_id || id >= first_id + static_cast<std::int64_t>(n)) {
        continue;
      }
      Slot& slot = phase.slots[static_cast<std::size_t>(id - first_id)];
      slot.recv = Clock::now();
      absorb(slot, *line, traced);
      slot.parsed = Clock::now();
      --expected;
    }
    finish.done();
  };

  std::vector<std::thread> threads;
  threads.emplace_back(sender);
  for (std::size_t c = 0; c < conns; ++c) threads.emplace_back(receiver, c);
  const double last = n > 0 ? offsets_s[n - 1] : 0.0;
  if (!finish.wait_until(at(last + kGraceSeconds))) {
    for (auto& conn : conns_) conn->stream.shutdown_both();
  }
  for (std::thread& t : threads) t.join();

  for (const std::string& e : errors) {
    if (!e.empty() && phase.error.empty()) phase.error = e;
  }
  return phase;
}

std::optional<io::ServerStatsWire> LoadClient::fetch_stats(
    int port, std::string* error) {
  auto stream = serve::TcpStream::connect("127.0.0.1", port, error);
  if (!stream.has_value()) return std::nullopt;
  Conn conn;
  conn.stream = std::move(*stream);
  if (!conn.stream.send_all(serve::stats_request_frame() + "\n", error)) {
    return std::nullopt;
  }
  while (auto line = conn.next_frame()) {
    if (line->starts_with("{\"frame\":\"stats\"")) {
      return io::server_stats_from_json(*line, error);
    }
  }
  if (error != nullptr) *error = "connection closed before the stats frame";
  return std::nullopt;
}

}  // namespace perfbench
