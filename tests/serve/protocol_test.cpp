// serve/protocol.hpp — NDJSON frame builders, the line reassembly buffer,
// and host:port parsing. Every frame a builder emits must be a single
// line that the io/json.hpp readers parse straight back (one codec on
// both sides of the wire).

#include <gtest/gtest.h>

#include <string>

#include "gapsched/io/json.hpp"
#include "gapsched/serve/protocol.hpp"

namespace gapsched::serve {
namespace {

engine::SolveRequest sample_request() {
  engine::SolveRequest request;
  request.objective = engine::Objective::kPower;
  request.params.alpha = 2.5;
  request.params.validate = true;
  request.instance.jobs.push_back(Job{TimeSet::window(0, 5)});
  request.instance.jobs.push_back(Job{TimeSet::window(9, 14)});
  return request;
}

TEST(ServeProtocol, FramesAreSingleLines) {
  const engine::SolveRequest request = sample_request();
  engine::SolveResult result;
  result.ok = true;
  result.feasible = true;
  result.cost = 3.5;
  io::ServerStatsWire stats;
  stats.shards.resize(2);
  for (const std::string& frame :
       {hello_frame(4, 12), request_frame(7, "power_dp", request, 250.0),
        result_frame(7, result), stats_request_frame(), stats_frame(stats),
        drain_frame(), error_frame(-1, "multi\nline\tmessage")}) {
    EXPECT_EQ(frame.find('\n'), std::string::npos) << frame;
    EXPECT_FALSE(frame.empty());
    EXPECT_EQ(frame.front(), '{');
    EXPECT_EQ(frame.back(), '}');
  }
}

TEST(ServeProtocol, RequestFrameRoundTripsThroughTheSharedCodec) {
  const engine::SolveRequest request = sample_request();
  const std::string frame = request_frame(42, "power_dp", request, 125.5);

  std::string error;
  const auto head = io::frame_head_from_json(frame, &error);
  ASSERT_TRUE(head.has_value()) << error;
  EXPECT_EQ(head->frame, "request");
  EXPECT_EQ(head->id, 42);
  EXPECT_DOUBLE_EQ(head->deadline_ms, 125.5);

  // The SAME line parses as a request document: the header fields ride at
  // the top level next to the body and the readers ignore what they do
  // not know.
  std::string solver;
  const auto parsed = io::request_from_json(frame, &solver, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(solver, "power_dp");
  EXPECT_EQ(parsed->objective, engine::Objective::kPower);
  EXPECT_DOUBLE_EQ(parsed->params.alpha, 2.5);
  EXPECT_TRUE(parsed->params.validate);
  ASSERT_EQ(parsed->instance.n(), 2u);
  EXPECT_EQ(parsed->instance.jobs[1].allowed, TimeSet::window(9, 14));
}

// The deadline is written in its shortest round-trip form, so the server
// reads back the exact value the client set, not a 6-digit rounding.
TEST(ServeProtocol, RequestFrameDeadlineRoundTripsExactly) {
  for (const double deadline_ms : {12345.678, 0.25}) {
    const std::string frame =
        request_frame(3, "gap_dp", sample_request(), deadline_ms);
    std::string error;
    const auto head = io::frame_head_from_json(frame, &error);
    ASSERT_TRUE(head.has_value()) << error;
    EXPECT_EQ(head->deadline_ms, deadline_ms) << frame;
  }
}

TEST(ServeProtocol, RequestFrameOmitsZeroDeadline) {
  const std::string frame =
      request_frame(1, "gap_dp", sample_request(), 0.0);
  EXPECT_EQ(frame.find("deadline_ms"), std::string::npos);
  std::string error;
  const auto head = io::frame_head_from_json(frame, &error);
  ASSERT_TRUE(head.has_value()) << error;
  EXPECT_DOUBLE_EQ(head->deadline_ms, 0.0);
}

TEST(ServeProtocol, ResultFrameRoundTripsThroughTheSharedCodec) {
  engine::SolveResult result;
  result.ok = true;
  result.feasible = true;
  result.cost = 7.0;
  result.transitions = 7;
  result.timed_out = true;
  result.audited = true;
  result.stats.cache_hit = true;
  result.stats.component_cache_hits = 3;
  const std::string frame = result_frame(9, result);

  std::string error;
  const auto head = io::frame_head_from_json(frame, &error);
  ASSERT_TRUE(head.has_value()) << error;
  EXPECT_EQ(head->frame, "result");
  EXPECT_EQ(head->id, 9);

  const auto parsed = io::result_from_json(frame, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->ok);
  EXPECT_TRUE(parsed->feasible);
  EXPECT_DOUBLE_EQ(parsed->cost, 7.0);
  EXPECT_TRUE(parsed->timed_out);
  EXPECT_TRUE(parsed->audited);
  EXPECT_TRUE(parsed->stats.cache_hit);
}

TEST(ServeProtocol, StatsFrameCarriesTheServerStatsDocument) {
  io::ServerStatsWire wire;
  wire.cache.hits = 5;
  wire.cache.misses = 2;
  wire.pipeline.requests = 7;
  io::ShardStatsWire shard;
  shard.shard = 1;
  shard.requests = 7;
  shard.cache_hits = 5;
  wire.shards.push_back(shard);

  const std::string frame = stats_frame(wire);
  std::string error;
  const auto head = io::frame_head_from_json(frame, &error);
  ASSERT_TRUE(head.has_value()) << error;
  EXPECT_EQ(head->frame, "stats");
  const auto parsed = io::server_stats_from_json(frame, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->cache.hits, 5u);
  ASSERT_EQ(parsed->shards.size(), 1u);
  EXPECT_EQ(parsed->shards[0].requests, 7u);
}

TEST(ServeProtocol, ErrorFrameEscapesItsMessage) {
  const std::string frame =
      error_frame(3, "bad \"frame\": \\ tab\there\nnewline");
  std::string error;
  const auto head = io::frame_head_from_json(frame, &error);
  ASSERT_TRUE(head.has_value()) << error;
  EXPECT_EQ(head->frame, "error");
  EXPECT_EQ(head->id, 3);
  EXPECT_EQ(head->message, "bad \"frame\": \\ tab\there\nnewline");
}

TEST(ServeProtocol, LineBufferReassemblesAcrossChunks) {
  LineBuffer lines(1024);
  lines.append("{\"frame\":\"a\"}\n{\"fr");
  auto first = lines.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "{\"frame\":\"a\"}");
  EXPECT_FALSE(lines.next().has_value());  // second line incomplete
  lines.append("ame\":\"b\"}\r\n\n\n{\"frame\":\"c\"}\n");
  auto second = lines.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "{\"frame\":\"b\"}");  // \r trimmed
  auto third = lines.next();               // blank keep-alives skipped
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*third, "{\"frame\":\"c\"}");
  EXPECT_FALSE(lines.next().has_value());
  EXPECT_FALSE(lines.overflowed());
}

TEST(ServeProtocol, LineBufferPoisonsOnOverlongLines) {
  LineBuffer lines(16);
  EXPECT_TRUE(lines.append("0123456789"));
  EXPECT_FALSE(lines.next().has_value());
  EXPECT_FALSE(lines.overflowed());
  // Crossing the cap without a newline in sight poisons the buffer.
  EXPECT_FALSE(lines.append("0123456789"));
  EXPECT_TRUE(lines.overflowed());
  EXPECT_FALSE(lines.next().has_value());
  // Poisoned means poisoned: later appends stay refused.
  EXPECT_FALSE(lines.append("x\n"));
}

TEST(ServeProtocol, LineBufferCapAppliesPerLineNotPerSession) {
  LineBuffer lines(16);
  // Many short lines streamed through a small buffer never overflow.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(lines.append("0123456789\n"));
    const auto line = lines.next();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "0123456789");
  }
  EXPECT_FALSE(lines.overflowed());
}

TEST(ServeProtocol, ParseHostPortAcceptsAndRejects) {
  std::string host;
  int port = 0;
  ASSERT_TRUE(parse_host_port("127.0.0.1:7421", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7421);
  ASSERT_TRUE(parse_host_port("localhost:1", &host, &port));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 1);
  EXPECT_FALSE(parse_host_port("no-port", &host, &port));
  EXPECT_FALSE(parse_host_port(":7421", &host, &port));
  EXPECT_FALSE(parse_host_port("host:", &host, &port));
  EXPECT_FALSE(parse_host_port("host:0", &host, &port));
  EXPECT_FALSE(parse_host_port("host:99999", &host, &port));
  EXPECT_FALSE(parse_host_port("host:12ab", &host, &port));
}

}  // namespace
}  // namespace gapsched::serve
