// Direct tests of gapsched::store::DiskStore — the on-disk second tier of
// the solve cache: record round-trips and reopen persistence, idempotent
// appends, key-identity checks behind the digest, simulated-crash recovery
// (torn tails truncated, intact prefix preserved, appends resume),
// cross-handle sharing (flock is per-open-file-description, so two handles
// in one process contend exactly like two processes), a multi-thread
// hammer for the ASan/TSan lanes, two handles racing to move one older
// format file aside, and keep-most-expensive compaction.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "gapsched/core/hash.hpp"
#include "gapsched/store/store.hpp"
#include "../support/temp_path.hpp"

namespace gapsched::store {
namespace {

/// A fresh store path, unique to this process (see support/temp_path.hpp).
std::string fresh_path(const std::string& name) {
  return testing::temp_path(name, ".store");
}

std::unique_ptr<DiskStore> must_open(const std::string& path,
                                     StoreOptions options = {}) {
  std::string error;
  auto store = DiskStore::open(path, options, &error);
  EXPECT_NE(store, nullptr) << error;
  return store;
}

std::string key_of(int i) { return "key-" + std::to_string(i); }
std::string payload_of(int i) {
  return "{\"payload\":" + std::to_string(i) + "}";
}
std::uint64_t digest_of(int i) { return hash64(key_of(i)); }

/// Appends records 0..n-1 with cost `cost_ms` each.
void fill(DiskStore& store, int n, double cost_ms = 1.0) {
  for (int i = 0; i < n; ++i) {
    std::string error;
    ASSERT_TRUE(store.append(digest_of(i), key_of(i), payload_of(i), cost_ms,
                             &error))
        << error;
  }
}

// ------------------------------------------------------------ round trip --

TEST(StoreFormat, RoundTripAndReopen) {
  const std::string path = fresh_path("roundtrip");
  {
    auto store = must_open(path);
    fill(*store, 5);
    EXPECT_EQ(store->size(), 5u);
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(store->contains(digest_of(i)));
      const auto payload = store->load(digest_of(i), key_of(i));
      ASSERT_TRUE(payload.has_value());
      EXPECT_EQ(*payload, payload_of(i));
    }
    const StoreStats stats = store->stats();
    EXPECT_EQ(stats.appends, 5u);
    EXPECT_EQ(stats.loads, 5u);
    EXPECT_EQ(stats.rejected_records, 0u);
    EXPECT_EQ(stats.truncated_bytes, 0u);
  }
  // A fresh handle (a restart) indexes every record from the file alone.
  auto store = must_open(path);
  EXPECT_EQ(store->size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const auto payload = store->load(digest_of(i), key_of(i));
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, payload_of(i));
  }
  EXPECT_EQ(store->stats().rejected_records, 0u);
}

TEST(StoreFormat, AppendIsIdempotentPerDigest) {
  const std::string path = fresh_path("idempotent");
  auto store = must_open(path);
  fill(*store, 1);
  const std::size_t bytes = store->stats().file_bytes;
  // Same digest again: first writer wins, no bytes added, still success.
  EXPECT_TRUE(store->append(digest_of(0), key_of(0), "{\"other\":1}", 9.0));
  EXPECT_EQ(store->size(), 1u);
  EXPECT_EQ(store->stats().file_bytes, bytes);
  EXPECT_EQ(store->load(digest_of(0), key_of(0)), payload_of(0));
}

TEST(StoreFormat, RecordLayoutMatchesRecordBytes) {
  const std::string path = fresh_path("layout");
  auto store = must_open(path);
  fill(*store, 2);
  const std::vector<RecordInfo> records = store->records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].offset, kFileHeaderBytes);
  EXPECT_EQ(records[0].bytes,
            record_bytes(key_of(0).size(), payload_of(0).size()));
  EXPECT_EQ(records[1].offset, records[0].offset + records[0].bytes);
  EXPECT_EQ(store->stats().file_bytes,
            records[1].offset + records[1].bytes);
}

TEST(StoreFormat, LoadRejectsKeyMismatchBehindSameDigest) {
  const std::string path = fresh_path("keymismatch");
  auto store = must_open(path);
  const std::uint64_t digest = 0xfeedfacecafebeefull;
  ASSERT_TRUE(store->append(digest, "the real key", "payload", 1.0));
  // A digest collision (or a forged record) must never alias another key:
  // the stored key text is compared byte for byte on load.
  EXPECT_FALSE(store->load(digest, "an impostor key").has_value());
  EXPECT_GE(store->stats().rejected_records, 1u);
  // The record is quarantined — even the true key cannot revive it without
  // a rescan, and contains() no longer advertises it.
  EXPECT_FALSE(store->contains(digest));
}

TEST(StoreFormat, InvalidateDropsOnlyTheIndexEntry) {
  const std::string path = fresh_path("invalidate");
  auto store = must_open(path);
  fill(*store, 3);
  const std::size_t bytes = store->stats().file_bytes;
  store->invalidate(digest_of(1));
  EXPECT_FALSE(store->contains(digest_of(1)));
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->stats().file_bytes, bytes);  // bytes stay until compaction
  EXPECT_TRUE(store->load(digest_of(0), key_of(0)).has_value());
  EXPECT_TRUE(store->load(digest_of(2), key_of(2)).has_value());
}

// ---------------------------------------------------------- crash safety --

TEST(StoreCrash, TornTailIsTruncatedAndAppendsResume) {
  const std::string path = fresh_path("torn_tail");
  {
    auto store = must_open(path);
    fill(*store, 3);
    // Simulated crash: the next append writes only the first 10 bytes of
    // its record (a cut-off header), skips the fsync, and poisons the
    // handle the way a dead process would abandon it.
    std::string error;
    StoreOptions fault;
    fault.fail_append_after = 10;
    auto crasher = must_open(path, fault);
    EXPECT_FALSE(
        crasher->append(digest_of(99), key_of(99), payload_of(99), 1.0,
                        &error));
    EXPECT_NE(error.find("simulated crash"), std::string::npos) << error;
    // The poisoned handle refuses further writes — no half-alive zombie.
    EXPECT_FALSE(
        crasher->append(digest_of(98), key_of(98), payload_of(98), 1.0));
  }
  // Recovery on reopen: the intact prefix is fully readable, the torn tail
  // is measured and truncated away, and the store accepts appends again.
  auto store = must_open(path);
  EXPECT_EQ(store->size(), 3u);
  EXPECT_EQ(store->stats().truncated_bytes, 10u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(store->load(digest_of(i), key_of(i)), payload_of(i));
  }
  std::string error;
  ASSERT_TRUE(
      store->append(digest_of(7), key_of(7), payload_of(7), 1.0, &error))
      << error;
  EXPECT_EQ(store->load(digest_of(7), key_of(7)), payload_of(7));

  // And the post-recovery file is again clean for the next restart.
  auto again = must_open(path);
  EXPECT_EQ(again->size(), 4u);
  EXPECT_EQ(again->stats().truncated_bytes, 0u);
}

TEST(StoreCrash, CrashInsideRecordHeaderRecovers) {
  const std::string path = fresh_path("torn_header");
  {
    auto store = must_open(path);
    fill(*store, 1);
    StoreOptions fault;
    fault.fail_append_after = 3;  // not even the record magic survives
    auto crasher = must_open(path, fault);
    EXPECT_FALSE(
        crasher->append(digest_of(50), key_of(50), payload_of(50), 1.0));
  }
  auto store = must_open(path);
  EXPECT_EQ(store->size(), 1u);
  EXPECT_EQ(store->stats().truncated_bytes, 3u);
  EXPECT_EQ(store->load(digest_of(0), key_of(0)), payload_of(0));
}

TEST(StoreCrash, CrashAtZeroBytesLeavesFileUntouched) {
  const std::string path = fresh_path("torn_zero");
  {
    auto store = must_open(path);
    fill(*store, 2);
  }
  // fail_append_after counts written bytes; a crash "before the first
  // byte" is modeled by a 0-byte cap clamping to... nothing at all is a
  // degenerate case the option treats as a full record, so use 1 byte.
  {
    StoreOptions fault;
    fault.fail_append_after = 1;
    auto crasher = must_open(path, fault);
    EXPECT_FALSE(
        crasher->append(digest_of(60), key_of(60), payload_of(60), 1.0));
  }
  auto store = must_open(path);
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->stats().truncated_bytes, 1u);
}

// --------------------------------------------------------------- sharing --

TEST(StoreSharing, SecondHandleSeesAppendsViaTailRescan) {
  const std::string path = fresh_path("share_rescan");
  auto writer = must_open(path);
  auto reader = must_open(path);  // opened while the file is still empty
  EXPECT_EQ(reader->size(), 0u);
  fill(*writer, 4);
  // The reader's index misses, so load() rescans the grown tail under a
  // lock and finds the records the writer published — no reopen needed.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reader->load(digest_of(i), key_of(i)), payload_of(i));
  }
  EXPECT_EQ(reader->size(), 4u);
  EXPECT_EQ(reader->stats().rejected_records, 0u);
}

TEST(StoreSharing, RefreshPicksUpForeignRecordsWithoutALoad) {
  const std::string path = fresh_path("share_refresh");
  auto writer = must_open(path);
  auto reader = must_open(path);
  fill(*writer, 3);
  EXPECT_FALSE(reader->contains(digest_of(0)));  // index-only probe: stale
  reader->refresh();
  EXPECT_EQ(reader->size(), 3u);
  EXPECT_TRUE(reader->contains(digest_of(0)));
}

TEST(StoreSharing, ConcurrentHandlesNeverInterleaveRecords) {
  // The cross-process sharing contract, exercised in-process: flock(2) is
  // per-open-file-description, so these four handles contend exactly like
  // four processes. Every thread hammers its own digest range through its
  // own handle; if the append lock failed to cover write+fsync+publish,
  // record bytes would interleave and the final scan would reject records.
  const std::string path = fresh_path("share_hammer");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::vector<std::unique_ptr<DiskStore>> handles;
  for (int t = 0; t < kThreads; ++t) handles.push_back(must_open(path));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      DiskStore& store = *handles[static_cast<std::size_t>(t)];
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i;
        // Payload length varies per record so any interleaving would
        // desynchronize the framing of everything after it.
        std::string payload = payload_of(id);
        payload.append(static_cast<std::size_t>(id % 37), '#');
        if (!store.append(digest_of(id), key_of(id), payload, 1.0)) {
          failures.fetch_add(1);
        }
        // Interleave reads of other threads' records into the traffic.
        const int other = ((t + 1) % kThreads) * kPerThread + i;
        (void)store.load(digest_of(other), key_of(other));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // A fresh handle replays the file from scratch: every record must be
  // intact, none rejected, none torn.
  auto verify = must_open(path);
  EXPECT_EQ(verify->size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  const StoreStats stats = verify->stats();
  EXPECT_EQ(stats.rejected_records, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  for (int id = 0; id < kThreads * kPerThread; ++id) {
    std::string expect = payload_of(id);
    expect.append(static_cast<std::size_t>(id % 37), '#');
    EXPECT_EQ(verify->load(digest_of(id), key_of(id)), expect);
  }
}

/// Descriptors of this process open on the file `path` names.
int descriptors_on(const std::string& path) {
  struct stat file{};
  if (::stat(path.c_str(), &file) != 0) return 0;
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    struct stat st{};
    if (::stat(entry.path().c_str(), &st) == 0 && st.st_dev == file.st_dev &&
        st.st_ino == file.st_ino) {
      ++count;
    }
  }
  return count;
}

TEST(StoreSharing, TwoHandlesOnOneOlderFileEndOnOneNewFile) {
  // A format version 1 header and bytes this build never reads.
  const std::string path = fresh_path("share_older");
  const std::string original("gapstore\x01\0\0\0\0\0\0\0old records", 27);
  {
    std::ofstream out(path, std::ios::binary);
    out << original;
  }
  // Hold the old file's lock so that both handles open it and then wait
  // for the lock: the first to get it moves the file aside, the second
  // must find its file replaced and follow the path to the new one.
  const int holder = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(holder, 0);
  ASSERT_EQ(::flock(holder, LOCK_EX), 0);
  std::unique_ptr<DiskStore> a;
  std::unique_ptr<DiskStore> b;
  std::thread open_a([&] { a = must_open(path); });
  std::thread open_b([&] { b = must_open(path); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (descriptors_on(path) < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(descriptors_on(path), 3);  // the holder and both handles
  ::close(holder);
  open_a.join();
  open_b.join();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // One move aside: the old bytes, not a fresh store moved a second time.
  std::ifstream in(path + ".v1", std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()),
            original);
  // One new file: each handle's append is the other's load.
  ASSERT_TRUE(a->append(digest_of(1), key_of(1), payload_of(1), 1.0));
  ASSERT_TRUE(b->append(digest_of(2), key_of(2), payload_of(2), 1.0));
  EXPECT_EQ(b->load(digest_of(1), key_of(1)), payload_of(1));
  EXPECT_EQ(a->load(digest_of(2), key_of(2)), payload_of(2));
  auto verify = must_open(path);
  EXPECT_EQ(verify->size(), 2u);
  EXPECT_EQ(verify->stats().rejected_records, 0u);
}

// ------------------------------------------------------------ compaction --

TEST(StoreCompaction, KeepsTheMostExpensiveRecords) {
  const std::string path = fresh_path("compaction");
  StoreOptions options;
  // Room for only a handful of records: appends will trip compaction.
  options.max_bytes = 6 * record_bytes(key_of(0).size(),
                                       payload_of(0).size());
  auto store = must_open(path, options);
  // Ascending cost: the earliest (cheapest) records are the sacrifice.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(store->append(digest_of(i), key_of(i), payload_of(i),
                              static_cast<double>(i + 1)));
  }
  const StoreStats stats = store->stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_GT(stats.dropped_records, 0u);
  EXPECT_LE(stats.file_bytes, options.max_bytes);
  // The most expensive record ever written must have survived every pass.
  EXPECT_EQ(store->load(digest_of(15), key_of(15)), payload_of(15));
  // The cheapest is gone.
  EXPECT_FALSE(store->contains(digest_of(0)));
  // Survivors are exactly the top of the cost order: every kept record
  // costs at least as much as every dropped one.
  double min_kept = 1e18;
  for (const RecordInfo& rec : store->records()) {
    min_kept = std::min(min_kept, rec.cost_ms);
  }
  for (int i = 0; i < 16; ++i) {
    if (!store->contains(digest_of(i))) {
      EXPECT_LT(static_cast<double>(i + 1), min_kept + 0.5);
    }
  }
  // The compacted file reopens clean.
  auto again = must_open(path, options);
  EXPECT_EQ(again->size(), store->size());
  EXPECT_EQ(again->stats().rejected_records, 0u);
}

TEST(StoreCompaction, WriterOnReplacedInodeReopensAndContinues) {
  const std::string path = fresh_path("compaction_race");
  StoreOptions budget;
  budget.max_bytes = 6 * record_bytes(key_of(0).size(),
                                      payload_of(0).size());
  auto compactor = must_open(path, budget);
  auto bystander = must_open(path);  // unbounded handle on the same file
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(compactor->append(digest_of(i), key_of(i), payload_of(i),
                                  static_cast<double>(i + 1)));
  }
  ASSERT_GE(compactor->stats().compactions, 1u);
  // The bystander still holds the pre-compaction inode; its next append
  // must detect the replacement (dev/ino check under the lock), reopen the
  // new file, and land its record there — not on the orphaned inode.
  ASSERT_TRUE(
      bystander->append(digest_of(100), key_of(100), payload_of(100), 50.0));
  EXPECT_EQ(compactor->load(digest_of(100), key_of(100)), payload_of(100));
  auto verify = must_open(path);
  EXPECT_TRUE(verify->contains(digest_of(100)));
  EXPECT_EQ(verify->stats().rejected_records, 0u);
}

// ------------------------------------------------------------ bad opens --

TEST(StoreFormat, OversizedFieldsAreRefusedAtAppend) {
  const std::string path = fresh_path("oversize");
  auto store = must_open(path);
  std::string error;
  const std::string big(kMaxFieldBytes + 1, 'x');
  EXPECT_FALSE(store->append(1, big, "p", 1.0, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(store->size(), 0u);
}

}  // namespace
}  // namespace gapsched::store
