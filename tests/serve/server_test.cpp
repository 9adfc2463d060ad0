// serve/server.hpp — the full serving loop over loopback TCP: mixed bursts
// with costs cross-checked against a local engine, a concurrent burst over
// the shared cache, the client reorder contract and completion-order
// streaming, graceful drain mid-burst, queue-expired deadlines, malformed,
// hostile and oversized frames, out-of-range ports and shard counts
// refused at start, stats aggregation, and the store contract (a foreign
// store file refuses start, a drain leaves every spill durable). Under the CI sanitizer lanes this suite doubles as the
// thread-safety gate for the whole acceptor/reader/shard/writer topology.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/serve/protocol.hpp"
#include "gapsched/serve/server.hpp"
#include "gapsched/serve/shard.hpp"
#include "../support/temp_path.hpp"

namespace gapsched::serve {
namespace {

ServerOptions loopback(std::size_t shards) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.shards = shards;
  return options;
}

engine::SolveRequest scenario_request(const std::string& name,
                                      std::uint64_t seed,
                                      engine::Objective objective) {
  auto instance = scenarios::make_scenario(name, seed);
  EXPECT_TRUE(instance.has_value()) << name;
  engine::SolveRequest request;
  if (instance.has_value()) request.instance = std::move(*instance);
  request.objective = objective;
  request.params.validate = true;
  return request;
}

/// Sends `frames` and collects every response until `expected` result or
/// error frames arrived (hello/stats chatter skipped).
struct Collected {
  std::map<std::int64_t, engine::SolveResult> results;
  /// Error frames in arrival order; ids repeat (unattributable frames all
  /// answer with id -1), so this is not a map.
  std::vector<std::pair<std::int64_t, std::string>> errors;
  /// Result ids in arrival order: the server streams completion order.
  std::vector<std::int64_t> order;
  /// Result frames for an id that was already answered.
  std::size_t repeated = 0;
  std::string transport_error;

  std::size_t errors_for(std::int64_t id) const {
    std::size_t n = 0;
    for (const auto& [eid, message] : errors) n += eid == id ? 1 : 0;
    return n;
  }
};

void exchange(ClientChannel& channel, const std::vector<std::string>& frames,
              std::size_t expected, Collected* got) {
  for (const std::string& frame : frames) {
    if (!channel.send(frame, &got->transport_error)) return;
  }
  while (got->results.size() + got->errors.size() < expected) {
    const auto line = channel.next_frame(&got->transport_error);
    if (!line.has_value()) {
      if (got->transport_error.empty()) got->transport_error = "early EOF";
      return;
    }
    std::string error;
    const auto head = io::frame_head_from_json(*line, &error);
    ASSERT_TRUE(head.has_value()) << error << " in " << *line;
    if (head->frame == "hello" || head->frame == "stats" ||
        head->frame == "drain") {
      continue;
    }
    if (head->frame == "error") {
      got->errors.emplace_back(head->id, head->message);
      continue;
    }
    ASSERT_EQ(head->frame, "result") << *line;
    const auto result = io::result_from_json(*line, &error);
    ASSERT_TRUE(result.has_value()) << error;
    if (!got->results.emplace(head->id, *result).second) ++got->repeated;
    got->order.push_back(head->id);
  }
}

/// Asks for the server's tallies and reads up to the stats frame. The
/// writer sends frames in the order they were queued, so a result or
/// error frame still arriving here answered an id a second time.
std::optional<io::ServerStatsWire> fetch_stats(ClientChannel& channel,
                                               Collected* got) {
  if (!channel.send(stats_request_frame(), &got->transport_error)) {
    return std::nullopt;
  }
  for (;;) {
    const auto line = channel.next_frame(&got->transport_error);
    if (!line.has_value()) {
      if (got->transport_error.empty()) got->transport_error = "early EOF";
      return std::nullopt;
    }
    std::string error;
    const auto head = io::frame_head_from_json(*line, &error);
    if (!head.has_value()) {
      got->transport_error = error;
      return std::nullopt;
    }
    if (head->frame == "result" || head->frame == "error") ++got->repeated;
    if (head->frame == "stats") {
      auto stats = io::server_stats_from_json(*line, &error);
      if (!stats.has_value()) got->transport_error = error;
      return stats;
    }
  }
}

/// `request` with every job `delta` later and the job list reversed: other
/// bytes on the wire, the same canonical form and so the same shard key.
engine::SolveRequest shifted_and_permuted(engine::SolveRequest request,
                                          Time delta) {
  for (Job& job : request.instance.jobs) job.allowed.shift(delta);
  std::reverse(request.instance.jobs.begin(), request.instance.jobs.end());
  return request;
}

TEST(ServeServer, MixedBurstMatchesTheLocalEngineAndReordersById) {
  Server server(loopback(3));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  struct Case {
    std::string scenario;
    std::string solver;
    engine::Objective objective;
  };
  const std::vector<Case> cases = {
      {"mega_mixed", "gap_dp", engine::Objective::kGaps},
      {"sparse_spread", "gap_dp", engine::Objective::kGaps},
      {"poly_scale:120", "bcd_poly_gap", engine::Objective::kGaps},
      {"stretched:8:power_longhaul", "power_dp", engine::Objective::kPower},
      {"nested_windows", "power_dp", engine::Objective::kPower},
  };

  // The local referee: same registry family, same requests, solved
  // in-process.
  engine::Engine local;
  std::vector<engine::SolveRequest> requests;
  std::vector<double> expected_costs;
  std::vector<bool> expected_feasible;
  std::vector<std::string> frames;
  std::int64_t id = 0;
  for (int round = 0; round < 4; ++round) {
    for (const Case& c : cases) {
      engine::SolveRequest request = scenario_request(
          c.scenario, 100 + static_cast<std::uint64_t>(round), c.objective);
      const engine::Solver* solver = local.registry().find(c.solver);
      ASSERT_NE(solver, nullptr) << c.solver;
      const engine::SolveResult reference = local.solve(*solver, request);
      ASSERT_TRUE(reference.ok) << reference.error;
      EXPECT_TRUE(reference.audit_error.empty()) << reference.audit_error;
      expected_costs.push_back(reference.cost);
      expected_feasible.push_back(reference.feasible);
      frames.push_back(request_frame(id++, c.solver, request));
      requests.push_back(std::move(request));
    }
  }

  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;
  Collected got;
  ASSERT_NO_FATAL_FAILURE(
      exchange(*channel, frames, frames.size(), &got));
  ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
  ASSERT_EQ(got.errors.size(), 0u);
  ASSERT_EQ(got.results.size(), frames.size());
  // Responses streamed in completion order; the id-keyed map IS the
  // client-side reorder. Every id maps back onto its local referee.
  for (std::int64_t i = 0; i < id; ++i) {
    ASSERT_TRUE(got.results.count(i)) << "missing response " << i;
    const engine::SolveResult& remote = got.results[i];
    EXPECT_TRUE(remote.ok) << remote.error;
    EXPECT_EQ(remote.feasible,
              expected_feasible[static_cast<std::size_t>(i)])
        << i;
    EXPECT_DOUBLE_EQ(remote.cost, expected_costs[static_cast<std::size_t>(i)])
        << i;
    EXPECT_TRUE(remote.audit_error.empty()) << remote.audit_error;
  }
  server.drain();
}

TEST(ServeServer, ConcurrentBurstOverSharedCacheHasNoDropsOrRefutations) {
  Server server(loopback(4));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Every `duplicate_every`-th request of a family is a shifted, permuted
  // copy of its first draw. The copies route to the first draw's shard and
  // run there one at a time, so all but the first to run hit the cache.
  struct Family {
    std::string scenario;
    std::string solver;
    engine::Objective objective;
    std::size_t requests;
    std::uint64_t seed_base;
    std::size_t duplicate_every;
  };
  const std::vector<Family> families = {
      {"mega_mixed", "gap_dp", engine::Objective::kGaps, 80, 11, 3},
      {"stretched:8:power_longhaul", "power_dp", engine::Objective::kPower,
       40, 21, 4},
  };
  // Dealt round-robin over four connections, each a concurrent client.
  constexpr std::size_t kConnections = 4;
  std::vector<std::vector<std::string>> frames(kConnections);
  std::int64_t id = 0;
  for (const Family& family : families) {
    const engine::SolveRequest base =
        scenario_request(family.scenario, family.seed_base, family.objective);
    for (std::size_t i = 0; i < family.requests; ++i, ++id) {
      const engine::SolveRequest request =
          i == 0 ? base
          : i % family.duplicate_every == 0
              ? shifted_and_permuted(base, static_cast<Time>(37 * i))
              : scenario_request(family.scenario, family.seed_base + i,
                                 family.objective);
      frames[static_cast<std::size_t>(id) % kConnections].push_back(
          request_frame(id, family.solver, request));
    }
  }
  ASSERT_EQ(id, 120);

  std::vector<Collected> got(kConnections);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      auto channel = ClientChannel::dial("127.0.0.1", server.port(),
                                         &got[c].transport_error);
      if (!channel.has_value()) return;
      exchange(*channel, frames[c], frames[c].size(), &got[c]);
      // Reading on to the stats frame catches any id answered twice.
      fetch_stats(*channel, &got[c]);
    });
  }
  for (std::thread& client : clients) client.join();

  std::set<std::int64_t> answered;
  for (const Collected& conn : got) {
    ASSERT_TRUE(conn.transport_error.empty()) << conn.transport_error;
    EXPECT_TRUE(conn.errors.empty());
    EXPECT_EQ(conn.repeated, 0u);
    for (const auto& [rid, result] : conn.results) {
      answered.insert(rid);
      EXPECT_TRUE(result.ok) << rid << ": " << result.error;
      EXPECT_TRUE(result.audited) << rid;
      EXPECT_TRUE(result.audit_error.empty()) << rid << ": "
                                              << result.audit_error;
    }
  }
  // Each of the 120 ids answered exactly once, on the connection it was
  // sent on.
  ASSERT_EQ(answered.size(), 120u);
  for (std::size_t c = 0; c < kConnections; ++c) {
    EXPECT_EQ(got[c].results.size(), frames[c].size()) << c;
    for (const auto& [rid, result] : got[c].results) {
      EXPECT_EQ(static_cast<std::size_t>(rid) % kConnections, c) << rid;
    }
  }
  EXPECT_EQ(*answered.begin(), 0);
  EXPECT_EQ(*answered.rbegin(), 119);

  // Stats aggregation: the per-shard tallies must sum to the burst.
  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;
  Collected tail;
  const auto stats = fetch_stats(*channel, &tail);
  ASSERT_TRUE(stats.has_value()) << tail.transport_error;
  std::uint64_t shard_requests = 0;
  std::uint64_t shard_cache_hits = 0;
  for (const io::ShardStatsWire& shard : stats->shards) {
    shard_requests += shard.requests;
    shard_cache_hits += shard.cache_hits;
    EXPECT_EQ(shard.refuted, 0u);
  }
  EXPECT_EQ(shard_requests, 120u);
  // The duplicates guarantee whole-solve cache hits somewhere.
  EXPECT_GT(shard_cache_hits, 0u);
  EXPECT_GT(stats->cache.hits, 0u);
  EXPECT_EQ(stats->pipeline.requests, shard_requests);
  server.drain();
}

TEST(ServeServer, ResultsStreamInCompletionOrder) {
  Server server(loopback(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // A validated thousand-job bcd solve takes milliseconds; a sparse
  // gap_dp draw routed to the other shard takes microseconds.
  const engine::SolveRequest slow =
      scenario_request("poly_scale:2000", 7, engine::Objective::kGaps);
  const engine::Solver* bcd = server.registry().find("bcd_poly_gap");
  const engine::Solver* dp = server.registry().find("gap_dp");
  ASSERT_NE(bcd, nullptr);
  ASSERT_NE(dp, nullptr);
  const std::size_t slow_shard = shard_of(shard_key(*bcd, slow), 2);
  std::optional<engine::SolveRequest> tiny;
  for (std::uint64_t seed = 1; seed <= 64 && !tiny.has_value(); ++seed) {
    engine::SolveRequest candidate =
        scenario_request("sparse_spread", seed, engine::Objective::kGaps);
    if (shard_of(shard_key(*dp, candidate), 2) != slow_shard) {
      tiny = std::move(candidate);
    }
  }
  ASSERT_TRUE(tiny.has_value()) << "no sparse_spread draw on the other shard";

  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;
  Collected got;
  ASSERT_NO_FATAL_FAILURE(exchange(*channel,
                                   {request_frame(0, "bcd_poly_gap", slow),
                                    request_frame(1, "gap_dp", *tiny)},
                                   2, &got));
  ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
  ASSERT_TRUE(got.errors.empty());
  // Sent second, answered first: the slow answer does not hold it back.
  EXPECT_EQ(got.order, (std::vector<std::int64_t>{1, 0}));
  EXPECT_TRUE(got.results[0].ok) << got.results[0].error;
  EXPECT_TRUE(got.results[1].ok) << got.results[1].error;
  EXPECT_TRUE(got.results[0].audit_error.empty()) << got.results[0].audit_error;
  server.drain();
}

TEST(ServeServer, DrainMidBurstCompletesInFlightAndRejectsNew) {
  // One shard so the burst queues deep enough that drain() is still
  // completing accepted work when the late request lands.
  ServerOptions options = loopback(1);
  options.shard_queue = 256;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;

  // Validated thousand-job bcd solves: a few ms each, serial on the one
  // shard — the drain below spends a long, test-visible window completing
  // them, during which the late request must bounce.
  constexpr int kBurst = 20;
  for (std::int64_t i = 0; i < kBurst; ++i) {
    const engine::SolveRequest request =
        scenario_request("poly_scale:2000", 500 + static_cast<std::uint64_t>(i),
                         engine::Objective::kGaps);
    ASSERT_TRUE(
        channel->send(request_frame(i, "bcd_poly_gap", request), &error))
        << error;
  }
  // Barrier: the reader handles frames serially, so once the stats frame
  // below is answered, every one of the kBurst requests has been ACCEPTED onto
  // the shard — "in flight" in the drain contract's sense. (Without this,
  // requests still sitting unread in the TCP buffer when the drain begins
  // are legitimately rejected as new work.)
  std::map<std::int64_t, engine::SolveResult> results;
  ASSERT_TRUE(channel->send(stats_request_frame(), &error)) << error;
  for (bool synced = false; !synced;) {
    const auto line = channel->next_frame(&error);
    ASSERT_TRUE(line.has_value()) << error;
    std::string parse_error;
    const auto head = io::frame_head_from_json(*line, &parse_error);
    ASSERT_TRUE(head.has_value()) << parse_error;
    if (head->frame == "result") {
      // Early finishers can beat the stats reply onto the wire; keep them.
      const auto result = io::result_from_json(*line, &parse_error);
      ASSERT_TRUE(result.has_value()) << parse_error;
      results[head->id] = *result;
    }
    synced = head->frame == "stats";
  }

  std::thread drainer([&] { server.drain(); });
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The server is draining but its reader is still alive: a new request
  // must bounce with a clean error frame, not a hang or a silent close.
  const engine::SolveRequest late =
      scenario_request("sparse_spread", 1, engine::Objective::kGaps);
  const bool late_sent =
      channel->send(request_frame(999, "gap_dp", late), &error);

  bool late_rejected = false;
  for (;;) {
    const auto line = channel->next_frame(&error);
    if (!line.has_value()) break;  // drain finished: EOF
    std::string parse_error;
    const auto head = io::frame_head_from_json(*line, &parse_error);
    ASSERT_TRUE(head.has_value()) << parse_error;
    if (head->frame == "hello" || head->frame == "stats") continue;
    if (head->frame == "error") {
      EXPECT_EQ(head->id, 999);
      EXPECT_NE(head->message.find("draining"), std::string::npos)
          << head->message;
      late_rejected = true;
      continue;
    }
    ASSERT_EQ(head->frame, "result");
    const auto result = io::result_from_json(*line, &parse_error);
    ASSERT_TRUE(result.has_value()) << parse_error;
    results[head->id] = *result;
  }
  drainer.join();

  // Every request accepted before the drain completed with a real answer.
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kBurst));
  for (std::int64_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(results.count(i)) << "dropped in-flight request " << i;
    EXPECT_TRUE(results[i].ok) << results[i].error;
  }
  // And the late one was refused explicitly (when its frame still made it
  // onto the wire before the writer closed).
  if (late_sent) {
    EXPECT_TRUE(late_rejected);
  }
}

TEST(ServeServer, DeadlineExpiredInQueueAnswersTimedOutWithoutSolving) {
  // One shard: park a queue of real work in front of the dead-lined
  // request so it expires while waiting.
  Server server(loopback(1));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;

  std::vector<std::string> frames;
  for (std::int64_t i = 0; i < 10; ++i) {
    frames.push_back(request_frame(
        i, "gap_dp",
        scenario_request("mega_mixed", 900 + static_cast<std::uint64_t>(i),
                         engine::Objective::kGaps)));
  }
  // One clock tick (1e-6 ms): expired whenever the shard pops it, however
  // fast the work in front drains.
  frames.push_back(request_frame(
      10, "gap_dp",
      scenario_request("sparse_spread", 2, engine::Objective::kGaps), 1e-6));

  Collected got;
  ASSERT_NO_FATAL_FAILURE(exchange(*channel, frames, frames.size(), &got));
  ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
  ASSERT_EQ(got.results.size(), frames.size());
  const engine::SolveResult& expired = got.results[10];
  EXPECT_FALSE(expired.ok);
  EXPECT_TRUE(expired.timed_out);
  EXPECT_NE(expired.error.find("deadline"), std::string::npos)
      << expired.error;
  // The queued-ahead work was untouched by the expiry.
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(got.results[i].ok) << got.results[i].error;
  }
  server.drain();
}

TEST(ServeServer, MalformedFramesDiagnoseAndTheConnectionSurvives) {
  Server server(loopback(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;

  const std::vector<std::string> frames = {
      "this is not json",                        // parse error
      R"({"id": 5})",                            // no frame discriminator
      R"({"frame": "teleport", "id": 6})",       // unknown frame type
      R"({"frame": "request", "id": -3})",       // bad id
      // A malformed request body (instance must be an object).
      R"({"frame": "request", "id": 7, "solver": "gap_dp", "instance": "zap"})",
      // Deadlines past the clock's range (io::kMaxDeadlineMs).
      request_frame(10, "gap_dp",
                    scenario_request("sparse_spread", 3,
                                     engine::Objective::kGaps),
                    1e13),
      request_frame(11, "gap_dp",
                    scenario_request("sparse_spread", 3,
                                     engine::Objective::kGaps),
                    1e300),
      request_frame(8, "no_such_solver",
                    scenario_request("sparse_spread", 3,
                                     engine::Objective::kGaps)),
      // After all that abuse, a well-formed request still answers.
      request_frame(9, "gap_dp",
                    scenario_request("sparse_spread", 3,
                                     engine::Objective::kGaps)),
  };
  Collected got;
  ASSERT_NO_FATAL_FAILURE(exchange(*channel, frames, frames.size(), &got));
  ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
  // Unparseable, untyped, bad-id and out-of-range-deadline frames each
  // answered with their own error frame (unattributable ones under id -1)…
  EXPECT_EQ(got.errors_for(-1), 5u);
  std::size_t deadline_errors = 0;
  for (const auto& [eid, message] : got.errors) {
    deadline_errors +=
        message.find("malformed 'deadline_ms' field") != std::string::npos;
  }
  EXPECT_EQ(deadline_errors, 2u);
  EXPECT_EQ(got.results.count(10) + got.results.count(11), 0u);
  EXPECT_EQ(got.errors_for(6), 1u);
  EXPECT_EQ(got.errors_for(7), 1u);
  // …an unknown solver is a *solved* rejection (it traveled a shard)…
  ASSERT_EQ(got.results.count(8), 1u);
  EXPECT_FALSE(got.results[8].ok);
  // …and the connection still serves real work afterwards.
  ASSERT_EQ(got.results.count(9), 1u);
  EXPECT_TRUE(got.results[9].ok) << got.results[9].error;
  server.drain();
}

TEST(ServeServer, OversizedFramesCloseTheConnectionWithADiagnostic) {
  ServerOptions options = loopback(1);
  options.max_frame_bytes = 2048;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;

  std::string huge = "{\"frame\": \"request\", \"id\": 1, \"pad\": \"";
  huge.append(8192, 'x');
  huge += "\"}";
  ASSERT_TRUE(channel->send(huge, &error)) << error;

  bool diagnosed = false;
  for (;;) {
    const auto line = channel->next_frame(&error);
    if (!line.has_value()) break;  // server closed the connection
    std::string parse_error;
    const auto head = io::frame_head_from_json(*line, &parse_error);
    ASSERT_TRUE(head.has_value()) << parse_error;
    if (head->frame == "error") {
      EXPECT_NE(head->message.find("exceeds"), std::string::npos)
          << head->message;
      diagnosed = true;
    }
  }
  EXPECT_TRUE(diagnosed);
  server.drain();
}

TEST(ServeServer, DrainFrameAcksAndSurfacesTheRequestToTheFrontEnd) {
  Server server(loopback(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_FALSE(server.drain_requested());
  auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(channel.has_value()) << error;
  ASSERT_TRUE(channel->send(drain_frame(), &error)) << error;
  bool acked = false;
  while (!acked) {
    const auto line = channel->next_frame(&error);
    ASSERT_TRUE(line.has_value()) << error;
    std::string parse_error;
    const auto head = io::frame_head_from_json(*line, &parse_error);
    ASSERT_TRUE(head.has_value()) << parse_error;
    if (head->frame == "drain") acked = true;
  }
  // The front end (gapsched_serve's main) is what reacts to the request.
  EXPECT_TRUE(server.wait_drain_requested(5.0));
  server.drain();
  EXPECT_TRUE(server.draining());
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ServeServer, StartRefusesAForeignStoreFile) {
  const std::string path = testing::temp_path("serve_foreign", ".store");
  const std::string foreign(256, 'x');  // long enough for a header, no magic
  {
    std::ofstream out(path, std::ios::binary);
    out << foreign;
  }
  ServerOptions options = loopback(1);
  options.store_path = path;
  Server server(options);
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("not a gapsched store"), std::string::npos) << error;
  // A server that refuses the file leaves it exactly as it found it.
  EXPECT_EQ(read_bytes(path), foreign);
}

TEST(ServeServer, StartRefusesAnOutOfRangePortOrShardCount) {
  // Checked before anything binds or spawns: these servers never listen
  // and never start a shard. SIZE_MAX is what `--shards -1` parses to.
  struct Case {
    int port;
    std::size_t shards;
    const char* diagnostic;
  };
  for (const Case& c : {Case{-1, 1, "port -1 is outside [0, 65535]"},
                        Case{65536, 1, "port 65536 is outside [0, 65535]"},
                        Case{70000, 1, "port 70000 is outside [0, 65535]"},
                        Case{0, kMaxShards + 1, "shards exceed the limit"},
                        Case{0, SIZE_MAX, "shards exceed the limit"}}) {
    ServerOptions options = loopback(c.shards);
    options.port = c.port;
    Server server(options);
    std::string error;
    EXPECT_FALSE(server.start(&error)) << c.port << " " << c.shards;
    EXPECT_EQ(server.port(), 0);
    EXPECT_NE(error.find(c.diagnostic), std::string::npos) << error;
  }
}

TEST(ServeServer, DrainLeavesEverySpillDurable) {
  const std::string path = testing::temp_path("serve_durable", ".store");
  struct Case {
    std::string scenario;
    std::string solver;
    engine::Objective objective;
  };
  const std::vector<Case> cases = {
      {"sparse_spread", "gap_dp", engine::Objective::kGaps},
      {"hall_critical", "gap_dp", engine::Objective::kGaps},
      {"poly_scale:120", "bcd_poly_gap", engine::Objective::kGaps},
      {"nested_windows", "power_dp", engine::Objective::kPower},
  };
  std::vector<engine::SolveRequest> requests;
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    requests.push_back(scenario_request(cases[i].scenario, 31,
                                        cases[i].objective));
    frames.push_back(request_frame(static_cast<std::int64_t>(i),
                                   cases[i].solver, requests.back()));
  }

  Collected got;
  {
    ServerOptions options = loopback(2);
    options.store_path = path;
    options.store_spill_min_ms = 0.0;  // every solve qualifies for disk
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    auto channel = ClientChannel::dial("127.0.0.1", server.port(), &error);
    ASSERT_TRUE(channel.has_value()) << error;
    ASSERT_NO_FATAL_FAILURE(exchange(*channel, frames, frames.size(), &got));
    ASSERT_TRUE(got.transport_error.empty()) << got.transport_error;
    ASSERT_EQ(got.results.size(), frames.size());
    server.drain();
    EXPECT_GT(server.stats().cache.spilled, 0u);
  }

  // A fresh engine on the same file — a restart — finds every answer the
  // server sent on disk, oracle-clean.
  engine::Engine restarted(
      {.store_path = path, .store_spill_min_ms = 0.0});
  ASSERT_EQ(restarted.store_error(), "");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const engine::SolveResult& sent =
        got.results[static_cast<std::int64_t>(i)];
    ASSERT_TRUE(sent.ok) << sent.error;
    const engine::SolveResult res =
        restarted.solve(cases[i].solver, requests[i]);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.stats.cache_hit) << cases[i].scenario;
    EXPECT_EQ(res.feasible, sent.feasible) << cases[i].scenario;
    EXPECT_DOUBLE_EQ(res.cost, sent.cost) << cases[i].scenario;
    EXPECT_EQ(res.audit_error, "") << cases[i].scenario;
  }
  const engine::CacheStats stats = restarted.cache_stats();
  EXPECT_GT(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_rejects, 0u);
}

}  // namespace
}  // namespace gapsched::serve
