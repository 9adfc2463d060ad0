// hash64, the cache-key digest and the store's record checksum: known
// answers that pin the on-disk format (a change here must bump
// store::kFormatVersion), and the checksum property the store relies on:
// every single-bit flip of a record, a real one included, changes it.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "gapsched/core/hash.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/store/store.hpp"
#include "../support/temp_path.hpp"

namespace gapsched {
namespace {

/// `n` bytes of a fixed pattern: byte i is (131 i + 7) mod 256.
std::string pattern(std::size_t n) {
  std::string bytes(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  return bytes;
}

/// The stored checksum of the record image `rec` (its last eight bytes).
std::uint64_t stored_checksum(std::string_view rec) {
  std::uint64_t sum = 0;
  for (std::size_t b = store::kRecordChecksumBytes; b-- > 0;) {
    sum = (sum << 8) |
          static_cast<unsigned char>(
              rec[rec.size() - store::kRecordChecksumBytes + b]);
  }
  return sum;
}

/// Asserts every single-bit flip of `bytes` changes hash64(bytes).
void expect_every_bit_flip_changes_the_hash(std::string bytes) {
  const std::uint64_t want = hash64(bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      ASSERT_NE(hash64(bytes), want)
          << "byte " << i << " bit " << bit << " of " << bytes.size();
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
    }
  }
}

TEST(Hash64, KnownAnswersPinTheStoreFormat) {
  // Lengths cover the empty input, a partial tail word, one whole word,
  // one short of a block, one block, a block and a byte, and many blocks.
  const std::pair<std::size_t, std::uint64_t> known[] = {
      {0, 0xef46db3751d8e999ull},    {1, 0xfe34349e418e73d7ull},
      {7, 0xa8767ba8e2faa4f0ull},    {8, 0x994b676b71ce94ddull},
      {31, 0x682e9549cc5d8891ull},   {32, 0x46fc80a98428256dull},
      {33, 0xc60e43af0259f533ull},   {4096, 0x2b741cdc977f780aull},
  };
  for (const auto& [n, want] : known) {
    EXPECT_EQ(hash64(pattern(n)), want) << "length " << n;
  }
  EXPECT_EQ(hash64(pattern(33), 0x5eed), 0xb16527c1ba3bef38ull);
}

TEST(Hash64, SeedsAndLengthsHashApart) {
  EXPECT_NE(hash64(pattern(40), 1), hash64(pattern(40), 2));
  // Zero runs differ only in length, which the hash folds in: the
  // zero-padded tail word alone could not tell them apart.
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= 80; ++n) {
    EXPECT_TRUE(seen.insert(hash64(std::string(n, '\0'))).second) << n;
  }
}

TEST(Hash64, EveryBitFlipOfShortInputsChangesTheHash) {
  // Every length from one byte to past two blocks: lanes, whole tail
  // words and the partial tail word each take a flip in every bit.
  for (std::size_t n = 1; n <= 80; ++n) {
    expect_every_bit_flip_changes_the_hash(pattern(n));
  }
}

TEST(Hash64, EveryBitFlipOfARealRecordChangesItsChecksum) {
  // A real record: the bcd_poly_gap answer to poly_scale:2000, spilled by
  // an Engine to a store and read back as the bytes on disk.
  const std::string path = testing::temp_path("hash_record", ".store");
  {
    engine::EngineOptions opt;
    opt.store_path = path;
    opt.store_spill_min_ms = 0.0;
    engine::Engine eng(opt);
    ASSERT_EQ(eng.store_error(), "");
    engine::SolveRequest req;
    req.instance = *scenarios::make_scenario("poly_scale:2000", 7);
    const engine::SolveResult res = eng.solve("bcd_poly_gap", req);
    ASSERT_TRUE(res.ok && res.feasible) << res.error;
    eng.flush_store();
  }
  std::string error;
  const auto store = store::DiskStore::open(path, {}, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_EQ(store->records().size(), 1u);
  const store::RecordInfo info = store->records().front();
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string rec = file.substr(info.offset, info.bytes);
  ASSERT_GT(rec.size(), 40000u);  // the key text and the whole schedule
  const std::string body =
      rec.substr(0, rec.size() - store::kRecordChecksumBytes);
  ASSERT_EQ(hash64(body), stored_checksum(rec));
  expect_every_bit_flip_changes_the_hash(body);
}

}  // namespace
}  // namespace gapsched
