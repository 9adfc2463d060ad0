// Corruption battery for the persistent solve store: every corruption
// class — foreign magic, wrong format version, broken record framing,
// flipped bytes in each record region, torn tails, a forged checksum or a
// schedule in the wrong coordinates that only the oracle can catch, and a
// forged rejection or infeasibility verdict that the oracle cannot — must
// degrade an Engine to a fresh solve (counted in disk_rejects /
// store_error), never to a wrong answer.
//
// Method: warm a real store through an Engine once, keep the pristine file
// bytes, then replay the same requests against per-test corrupted copies
// with params.validate on, asserting byte-for-byte cost agreement with
// the cold reference and a clean independent oracle audit.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gapsched/core/hash.hpp"
#include "gapsched/core/transforms.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/prep/prep.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/store/store.hpp"
#include "../support/temp_path.hpp"

namespace gapsched::store {
namespace {

constexpr const char* kSolver = "gap_dp";

/// A fresh store path, unique to this process (see support/temp_path.hpp).
std::string temp_path(const std::string& name) {
  return testing::temp_path(name, ".store");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The warm fixture, built once: a store file populated by a real Engine,
/// the requests that populated it, and the cold reference costs.
struct WarmFixture {
  std::string bytes;  // pristine store file content
  std::vector<engine::SolveRequest> requests;
  std::vector<double> costs;
  std::vector<bool> feasible;
};

const WarmFixture& warm_fixture() {
  static const WarmFixture* fixture = [] {
    auto* fx = new WarmFixture();
    for (const char* name : {"sparse_spread", "hall_critical"}) {
      const auto inst = scenarios::make_scenario(name, 7);
      EXPECT_TRUE(inst.has_value()) << name;
      engine::SolveRequest req;
      req.instance = *inst;
      req.params.validate = true;
      fx->requests.push_back(std::move(req));
    }
    const std::string path = temp_path("warm_fixture");
    {
      engine::EngineOptions opt;
      opt.store_path = path;
      opt.store_spill_min_ms = 0.0;  // persist everything, however cheap
      engine::Engine eng(opt);
      EXPECT_EQ(eng.store_error(), "");
      for (const engine::SolveRequest& req : fx->requests) {
        const engine::SolveResult res = eng.solve(kSolver, req);
        EXPECT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.audit_error, "");
        fx->costs.push_back(res.cost);
        fx->feasible.push_back(res.feasible);
      }
      eng.flush_store();
      EXPECT_GT(eng.cache_stats().spilled, 0u);
    }
    fx->bytes = read_file(path);
    EXPECT_GT(fx->bytes.size(), kFileHeaderBytes);
    return fx;
  }();
  return *fixture;
}

/// Replays the fixture's requests on an Engine over `path`, asserting
/// every answer matches the cold reference and survives its own audit.
/// Returns the engine's cache stats after the replay.
engine::CacheStats replay_and_check(const std::string& path,
                                    bool expect_store_open) {
  const WarmFixture& fx = warm_fixture();
  engine::EngineOptions opt;
  opt.store_path = path;
  opt.store_spill_min_ms = 0.0;
  engine::Engine eng(opt);
  if (expect_store_open) {
    EXPECT_EQ(eng.store_error(), "");
    EXPECT_NE(eng.store(), nullptr);
  } else {
    EXPECT_NE(eng.store_error(), "");
    EXPECT_EQ(eng.store(), nullptr);
  }
  for (std::size_t i = 0; i < fx.requests.size(); ++i) {
    const engine::SolveResult res = eng.solve(kSolver, fx.requests[i]);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.feasible, fx.feasible[i]);
    EXPECT_EQ(res.cost, fx.costs[i]);
    EXPECT_EQ(res.audit_error, "");  // independent oracle re-derivation
  }
  eng.flush_store();
  return eng.cache_stats();
}

/// Offsets of the records in the pristine file, via a read-only handle on
/// a scratch copy (the copy is then discarded).
std::vector<RecordInfo> pristine_records() {
  const std::string path = temp_path("records_probe");
  write_file(path, warm_fixture().bytes);
  std::string error;
  auto store = DiskStore::open(path, {}, &error);
  EXPECT_NE(store, nullptr) << error;
  std::vector<RecordInfo> records = store->records();
  EXPECT_GE(records.size(), 2u);
  return records;
}

// ----------------------------------------------------------------- tests --

TEST(StoreCorruption, IntactStoreServesOracleVerifiedDiskHits) {
  // Control: the un-corrupted file must produce disk hits (each re-audited
  // against the requester's instance before admission) and zero rejects.
  const std::string path = temp_path("intact");
  write_file(path, warm_fixture().bytes);
  const engine::CacheStats stats = replay_and_check(path, true);
  EXPECT_GT(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_rejects, 0u);
}

TEST(StoreCorruption, ForeignMagicFailsOpenAndEngineFallsBack) {
  std::string bytes = warm_fixture().bytes;
  bytes[0] = 'X';  // no longer "gapstore"
  const std::string path = temp_path("bad_magic");
  write_file(path, bytes);

  std::string error;
  EXPECT_EQ(DiskStore::open(path, {}, &error), nullptr);
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

  // The engine runs memory-only — a broken store can cost speed, never
  // correctness or startup.
  const engine::CacheStats stats = replay_and_check(path, false);
  EXPECT_EQ(stats.disk_hits, 0u);
}

TEST(StoreCorruption, WrongFormatVersionIsAbandonedCold) {
  std::string bytes = warm_fixture().bytes;
  bytes[8] = 99;  // version u32 (little-endian low byte) at offset 8
  const std::string path = temp_path("bad_version");
  write_file(path, bytes);

  std::string error;
  EXPECT_EQ(DiskStore::open(path, {}, &error), nullptr);
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  const engine::CacheStats stats = replay_and_check(path, false);
  EXPECT_EQ(stats.disk_hits, 0u);
}

TEST(StoreCorruption, BrokenRecordMagicLosesTheFramedTail) {
  const std::vector<RecordInfo> records = pristine_records();
  std::string bytes = warm_fixture().bytes;
  // Destroy the first record's magic: the per-record framing is gone, so
  // everything from here on is unrecoverable and dropped.
  bytes[records[0].offset] ^= 0xFF;
  const std::string path = temp_path("bad_rmagic");
  write_file(path, bytes);

  const engine::CacheStats stats = replay_and_check(path, true);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_GE(stats.disk_rejects, 1u);
}

TEST(StoreCorruption, FlippedByteInEachRecordRegionIsRejected) {
  const std::vector<RecordInfo> records = pristine_records();
  const RecordInfo& rec = records[0];
  // One flipped byte per checksummed record region: the length fields,
  // the digest, the recorded cost, the key text, the payload, and the
  // checksum itself. Every one must quarantine exactly that record while
  // the later records stay reachable (the framing after it lines up).
  const std::size_t probes[] = {
      rec.offset + 4,               // key_len
      rec.offset + 16,              // digest
      rec.offset + 24,              // cost_ms
      rec.offset + kRecordHeaderBytes,         // first key byte
      rec.offset + rec.bytes - kRecordChecksumBytes - 1,  // last payload byte
      rec.offset + rec.bytes - 1,   // checksum
  };
  for (const std::size_t at : probes) {
    SCOPED_TRACE("flipped byte at offset " + std::to_string(at));
    std::string bytes = warm_fixture().bytes;
    ASSERT_LT(at, bytes.size());
    bytes[at] ^= 0x20;
    const std::string path = temp_path("flip_" + std::to_string(at));
    write_file(path, bytes);

    // The store itself skips the broken record and keeps the rest.
    {
      std::string error;
      auto store = DiskStore::open(path, {}, &error);
      ASSERT_NE(store, nullptr) << error;
      const StoreStats sstats = store->stats();
      // A corrupted length field can desynchronize the framing instead of
      // just failing the checksum; either way the record must be rejected
      // and never served.
      EXPECT_GE(sstats.rejected_records, 1u);
      EXPECT_LE(store->size(), records.size() - 1);
    }

    const engine::CacheStats stats = replay_and_check(path, true);
    EXPECT_GE(stats.disk_rejects, 1u);
  }
}

TEST(StoreCorruption, TruncationMidRecordRecoversThePrefix) {
  const std::vector<RecordInfo> records = pristine_records();
  const RecordInfo& last = records.back();
  std::string bytes = warm_fixture().bytes;
  // Cut the file in the middle of the last record — the torn-write shape
  // a crashed writer without fsync leaves behind.
  bytes.resize(last.offset + last.bytes / 2);
  const std::string path = temp_path("torn");
  write_file(path, bytes);

  {
    std::string error;
    auto store = DiskStore::open(path, {}, &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->size(), records.size() - 1);
    // Recovery discards exactly the partial record bytes left on disk.
    EXPECT_EQ(store->stats().truncated_bytes, last.bytes / 2);
  }

  const engine::CacheStats stats = replay_and_check(path, true);
  EXPECT_GT(stats.disk_hits, 0u);  // the intact prefix still serves
}

TEST(StoreCorruption, ForgedChecksumIsCaughtOnlyByTheOracle) {
  // The adversarial class: corrupt a payload AND recompute the record
  // checksum so framing and checksum verification both pass. The store
  // happily serves the record — the oracle re-audit in the pipeline is
  // the only line of defense, and it must hold.
  const std::vector<RecordInfo> records = pristine_records();
  std::string bytes = warm_fixture().bytes;
  std::size_t forged = 0;
  for (const RecordInfo& rec : records) {
    std::string record = bytes.substr(rec.offset, rec.bytes);
    // Bump the leading digit of the payload's "cost" field in place: the
    // JSON stays valid and parseable, the claimed cost is simply wrong.
    const std::size_t cost_at = record.find("\"cost\": ");
    if (cost_at == std::string::npos) continue;
    char& digit = record[cost_at + 8];
    if (digit < '0' || digit > '9') continue;
    digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
    // Recompute FNV-1a over everything before the checksum and patch it.
    const std::uint64_t sum = fnv1a64(std::string_view(
        record.data(), record.size() - kRecordChecksumBytes));
    for (std::size_t b = 0; b < kRecordChecksumBytes; ++b) {
      record[record.size() - kRecordChecksumBytes + b] =
          static_cast<char>((sum >> (8 * b)) & 0xFF);
    }
    bytes.replace(rec.offset, rec.bytes, record);
    ++forged;
  }
  ASSERT_GT(forged, 0u);
  const std::string path = temp_path("forged");
  write_file(path, bytes);

  // The store layer is fooled: every forged record scans clean and loads.
  {
    std::string error;
    auto store = DiskStore::open(path, {}, &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->size(), records.size());
    EXPECT_EQ(store->stats().rejected_records, 0u);
  }

  // The engine is not: the oracle re-audit refutes the forged cost before
  // admission, the solve falls back fresh, and the answer stays right.
  const engine::CacheStats stats = replay_and_check(path, true);
  EXPECT_GE(stats.disk_rejects, 1u);
}

TEST(StoreCorruption, ForgedRejectionOrInfeasibilityNeverServes) {
  // The oracle only re-checks a schedule: it passes a result that says
  // "rejected" or "infeasible" without looking further. So a record forged
  // to either verdict, with its checksum recomputed, is stopped only by the
  // disk tier's own rule that it holds complete, feasible answers. Each
  // forgery keeps the payload length ("ok": true and "ok":false are both
  // ten bytes), so the framing stays intact.
  for (const auto& [honest, forged] :
       {std::pair<std::string, std::string>{"\"ok\": true", "\"ok\":false"},
        {"\"feasible\": true", "\"feasible\":false"}}) {
    SCOPED_TRACE(forged);
    ASSERT_EQ(honest.size(), forged.size());
    const std::vector<RecordInfo> records = pristine_records();
    std::string bytes = warm_fixture().bytes;
    std::size_t rewritten = 0;
    for (const RecordInfo& rec : records) {
      std::string record = bytes.substr(rec.offset, rec.bytes);
      const std::size_t at = record.find(honest);
      if (at == std::string::npos) continue;
      record.replace(at, honest.size(), forged);
      const std::uint64_t sum = fnv1a64(std::string_view(
          record.data(), record.size() - kRecordChecksumBytes));
      for (std::size_t b = 0; b < kRecordChecksumBytes; ++b) {
        record[record.size() - kRecordChecksumBytes + b] =
            static_cast<char>((sum >> (8 * b)) & 0xFF);
      }
      bytes.replace(rec.offset, rec.bytes, record);
      ++rewritten;
    }
    ASSERT_EQ(rewritten, records.size());
    const std::string path = temp_path("forged_verdict");
    write_file(path, bytes);
    {
      std::string error;
      auto store = DiskStore::open(path, {}, &error);
      ASSERT_NE(store, nullptr) << error;
      EXPECT_EQ(store->size(), records.size());
      EXPECT_EQ(store->stats().rejected_records, 0u);
    }
    // Every request solves fresh and answers as cold.
    const engine::CacheStats stats = replay_and_check(path, true);
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_GE(stats.disk_rejects, 1u);
  }
}

TEST(StoreCorruption, ScheduleValidOnlyBeforeCompressionIsRejected) {
  // A well-framed record whose schedule is right in the component's
  // uncompressed coordinates and wrong in the compressed ones its key
  // hashes. The disk audit reads the compressed component in place, so
  // it must refute the record: one disk reject, a fresh solve, and the
  // cold answer.
  engine::SolveRequest req;
  // n = 4: the 3-unit dead run is under the cut threshold, so one
  // component, compressed to a 1-unit run at the gap cap.
  req.instance = Instance::one_interval({{0, 1}, {0, 1}, {5, 6}, {5, 6}});
  req.params.validate = true;
  const std::string honest_path = temp_path("honest_compressed");
  const std::string path = temp_path("uncompressed_schedule");
  engine::SolveResult cold;
  engine::CacheKey key;
  {
    engine::EngineOptions opt;
    opt.store_path = honest_path;
    opt.store_spill_min_ms = 0.0;
    engine::Engine eng(opt);
    cold = eng.solve(kSolver, req);
    ASSERT_TRUE(cold.ok && cold.feasible) << cold.error;
    eng.flush_store();
    ASSERT_EQ(eng.cache_stats().spilled, 1u);
    const prep::Decomposition dec = prep::decompose(req.instance, 4);
    ASSERT_EQ(dec.components.size(), 1u);
    const CompressedInstance ci =
        compress_dead_time_capped(dec.components[0].instance, 1);
    ASSERT_EQ(ci.dead_time_removed(), 2);
    key = engine::make_cache_key(eng.registry().find(kSolver)->info(),
                                 req.objective, req.params, ci.instance);

    std::string error;
    auto honest = DiskStore::open(honest_path, {}, &error);
    ASSERT_NE(honest, nullptr) << error;
    const auto payload = honest->load(key.digest, key.text);
    ASSERT_TRUE(payload.has_value());
    std::optional<engine::SolveResult> forged =
        io::result_from_json(*payload);
    ASSERT_TRUE(forged.has_value());
    EXPECT_TRUE(
        oracle::audit_schedule(ci.instance, forged->schedule).valid);
    // Move every placement back to uncompressed component time.
    Schedule uncompressed(forged->schedule.size());
    for (std::size_t j = 0; j < forged->schedule.size(); ++j) {
      const Placement& slot = *forged->schedule.at(j);
      uncompressed.place(j, ci.to_original(slot.time), slot.processor);
    }
    forged->schedule = uncompressed;
    EXPECT_TRUE(oracle::audit_schedule(dec.components[0].instance,
                                       forged->schedule)
                    .valid);
    EXPECT_FALSE(
        oracle::audit_schedule(ci.instance, forged->schedule).valid);

    auto store = DiskStore::open(path, {}, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->append(key.digest, key.text,
                              io::result_to_json(*forged), 1.0, &error))
        << error;
  }

  engine::EngineOptions opt;
  opt.store_path = path;
  engine::Engine eng(opt);
  ASSERT_EQ(eng.store_error(), "");
  const engine::SolveResult res = eng.solve(kSolver, req);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.feasible, cold.feasible);
  EXPECT_EQ(res.cost, cold.cost);
  EXPECT_EQ(res.audit_error, "");
  EXPECT_TRUE(
      res.stats.stages[static_cast<std::size_t>(engine::PipelineStage::kDispatch)]
          .ran);
  const engine::CacheStats stats = eng.cache_stats();
  EXPECT_EQ(stats.disk_rejects, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
}

}  // namespace
}  // namespace gapsched::store
