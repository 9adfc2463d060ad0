// gapsched_serve — the long-lived solve server (serve/server.hpp): NDJSON
// frames over TCP, canonical-key-sharded workers, and one engine::Engine
// (registry, solve cache, optional --store) shared by every shard and
// connection.
//
//   $ ./gapsched_serve --port 7421 --shards 4
//   gapsched_serve listening on 127.0.0.1:7421 (4 shards, 16 solvers)
//
// Shutdown is always graceful: SIGTERM, SIGINT, or a client "drain" frame
// stops the acceptor, completes every request already accepted onto a
// shard, flushes every connection, and exits 0. An exit code of 0 is the
// contract that no accepted request was dropped.

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "gapsched/serve/server.hpp"
#include "gapsched/util/flags.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

using gapsched::read_value;
using Opts = gapsched::serve::ServerOptions;
using Value = std::string_view;

constexpr gapsched::Flag<Opts> kFlags[] = {
    {"--host", "<addr>", "bind address (default 127.0.0.1)", 0,
     [](Opts& o, Value v) { return read_value(v, &o.host); }},
    {"--port", "<p>",
     "TCP port in [0, 65535]; 0 picks an ephemeral port and prints it "
     "(default 0)", 0,
     [](Opts& o, Value v) { return read_value(v, &o.port); }},
    {"--shards", "<n>", "worker shards, at most 256; 0 = min(4, cores)", 0,
     [](Opts& o, Value v) { return read_value(v, &o.shards); }},
    {"--shard-queue", "<n>", "per-shard task queue depth (default 128)", 0,
     [](Opts& o, Value v) { return read_value(v, &o.shard_queue); }},
    {"--outbound-queue", "<n>",
     "per-connection outbound frame queue depth (default 256)", 0,
     [](Opts& o, Value v) { return read_value(v, &o.outbound_queue); }},
    {"--cache-capacity", "<n>", "shared solve-cache entry cap (default 65536)",
     0, [](Opts& o, Value v) { return read_value(v, &o.cache_capacity); }},
    {"--store", "<path>",
     "persistent on-disk solve store shared by all shards, CLI sessions, "
     "and restarts (created if missing; loads oracle-gated)", 0,
     [](Opts& o, Value v) { return read_value(v, &o.store_path); }},
    {"--spill-min-ms", "<x>",
     "only persist solves that took >= x ms (default 0.1)", 0,
     [](Opts& o, Value v) { return read_value(v, &o.store_spill_min_ms); }},
    {"--store-max-bytes", "<n>",
     "store size budget; compaction keeps the most expensive entries "
     "(default unbounded)", 0,
     [](Opts& o, Value v) { return read_value(v, &o.store_max_bytes); }},
};

int usage() {
  std::cerr
      << "usage: gapsched_serve [options]\n"
      << gapsched::flag_usage<Opts>(kFlags)
      << "protocol: newline-delimited JSON frames (request/result/stats/\n"
      << "drain/error); results stream in completion order, clients\n"
      << "reorder by id. SIGTERM or a drain frame triggers a graceful\n"
      << "drain; exit 0 means no accepted request was dropped.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Opts options;
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::string error = gapsched::parse_flags<Opts>(kFlags, args, &options);
  if (!error.empty()) {
    std::cerr << error << "\n";
    return usage();
  }

  gapsched::serve::Server server(options);
  if (!server.start(&error)) {
    std::cerr << "cannot start server on " << options.host << ":"
              << options.port << ": " << error << "\n";
    return 1;
  }
  // The READY line is the startup contract scripts wait on (the ephemeral
  // port is only known here).
  std::cout << "gapsched_serve listening on " << options.host << ":"
            << server.port() << " (" << server.shards() << " shards, "
            << server.registry().size() << " solvers"
            << (options.store_path.empty() ? std::string()
                                           : ", store " + options.store_path)
            << ")" << std::endl;

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  // Park until SIGTERM/SIGINT or a client drain frame. The wait wakes
  // every 200 ms to poll the signal flag (signal handlers cannot notify a
  // condition variable safely).
  while (g_signal == 0) {
    if (server.wait_drain_requested(0.2)) break;
  }

  std::cout << "gapsched_serve draining ("
            << (g_signal != 0 ? "signal" : "drain frame") << ")"
            << std::endl;
  server.drain();

  const gapsched::io::ServerStatsWire stats = server.stats();
  std::cout << "gapsched_serve drained: " << stats.pipeline.requests
            << " request(s), " << stats.cache.hits << " cache hit(s), "
            << stats.pipeline.refuted << " refutation(s)";
  if (!options.store_path.empty()) {
    std::cout << ", " << stats.cache.spilled << " spilled, "
              << stats.cache.disk_hits << " disk hit(s)";
  }
  std::cout << std::endl;
  return 0;
}
