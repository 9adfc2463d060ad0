#pragma once
// The benchmark's client side of a gapsched::serve::Server: a fixed set of
// TCP connections driven either in a closed loop (a fixed number of
// outstanding requests per connection) or in an open loop (one pacing
// sender walking a pre-drawn arrival schedule, one receiver per
// connection). Every answer is parsed and checked against its base's
// reference as it arrives.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "gapsched/engine/types.hpp"
#include "gapsched/io/json.hpp"

namespace perfbench {

/// One issued request and what came back for it.
struct Slot {
  std::size_t item = 0;  // index into the client's frame templates
  std::int64_t id = 0;
  Clock::time_point due{};   // when it was due to be sent
  Clock::time_point sent{};  // when the sender started writing it
  Clock::time_point recv{};  // when its answer frame was complete
  Clock::time_point parsed{};
  bool answered = false;
  bool correct = false;
  std::string error;
  std::size_t result_bytes = 0;
  /// The server's own accounting of the answer (stage times, cache and
  /// solver counters), kept by traced runs only.
  gapsched::engine::SolveStats stats{};
};

struct PhaseResult {
  std::vector<Slot> slots;  // issued requests, in issue order
  Clock::time_point start{};
  double planned_s = 0.0;          // phase length the requests were spread over
  std::vector<double> gen_lag_ms;  // open loop: sent - due
  std::string error;               // transport failure, if any
  /// Host speed over the phase (HostSpeedProbe::speed); the phase's
  /// host-speed-adjusted times are its measured times times this.
  double speed = 1.0;

  std::size_t correct() const;
  /// When the last answer arrived; `start` when none did.
  Clock::time_point end() const;
};

/// Correct answers per second over all phases: every phase's correct
/// answers over the summed time from each phase's start to its last answer,
/// each phase's time host-speed-adjusted when `adjusted`.
double pooled_rate(const std::vector<PhaseResult>& phases, bool adjusted);

/// The q-quantile of due -> answer latency over every answered request of
/// every phase, each host-speed-adjusted when `adjusted`.
double pooled_latency(const std::vector<PhaseResult>& phases, double q,
                      bool adjusted);

/// Poisson arrival offsets (seconds from phase start) at `rate` per second
/// over `seconds`, drawn from `seed`.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed);

class LoadClient {
 public:
  /// `templates[i].base` indexes `bases`; both must outlive the client.
  LoadClient(const std::vector<FrameTemplate>& templates,
             const std::vector<Base>& bases);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  bool connect(int port, std::size_t connections, std::string* error);
  void close();

  /// Sends items[0..] keeping `window` requests outstanding per connection
  /// until `seconds` have passed or the items run out, then collects every
  /// outstanding answer.
  PhaseResult closed_loop(const std::vector<std::size_t>& items,
                          std::size_t window, double seconds, bool traced);

  /// Sends items[i] at offsets_s[i] (all below `seconds`) after the phase
  /// start, round-robin over the connections, and waits for every answer.
  PhaseResult open_loop(const std::vector<std::size_t>& items,
                        const std::vector<double>& offsets_s, double seconds,
                        bool traced);

  /// Fetches the server's `stats` frame over a fresh connection.
  static std::optional<gapsched::io::ServerStatsWire> fetch_stats(
      int port, std::string* error);

 private:
  struct Conn;

  /// Parses one answer frame into its slot and checks it.
  void absorb(Slot& slot, const std::string& line, bool traced) const;
  /// Id of a result/error frame, or -1 for control frames.
  static std::int64_t frame_id(const std::string& line);

  const std::vector<FrameTemplate>& templates_;
  const std::vector<Base>& bases_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::int64_t next_id_ = 1;
};

}  // namespace perfbench
