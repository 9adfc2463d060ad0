#pragma once
// gapsched::store::DiskStore — the persistent, shared second tier of the
// content-addressed solve cache (engine/cache.hpp).
//
// One append-only file holds digest-keyed records of canonical cache
// entries, shared by CLI sessions, every server shard, and successive
// restarts. The engine treats everything read back as UNTRUSTED input: a
// record must survive framing + checksum verification here AND an
// independent oracle re-audit in SolveCache::lookup before it may serve a
// request, so a flipped bit, a torn write, or a stale format degrades to a
// cache miss (and a fresh solve) — never a wrong answer.
//
// File layout (all integers little-endian, fixed width):
//
//   file   := header record*
//   header := magic[8] = "gapstore"     — identifies the file type
//             version  : u32            — kFormatVersion (see Versioning)
//             reserved : u32            — zero
//   record := rmagic      : u32         — kRecordMagic, per-record resync
//             key_len     : u32
//             payload_len : u32
//             reserved    : u32         — zero
//             digest      : u64         — the cache key's content digest
//             cost_ms     : f64         — recorded solve wall time (the
//                                         admission/compaction weight)
//             key[key_len]              — full canonical key text; compared
//                                         on load so digest collisions can
//                                         never alias two solves
//             payload[payload_len]      — io/json.hpp result document
//             checksum    : u64         — hash64 (core/hash.hpp) over every
//                                         preceding byte of the record
//
// Crash safety: append = write the whole record at EOF, fsync, then
// publish it in the in-memory index — a reader never sees a record whose
// bytes are not durable. On open (and before every append) the tail is
// re-scanned: a record whose bytes run past EOF is a torn write and is
// truncated away; a structurally complete record with a bad checksum is
// skipped (later records stay reachable — the framing after it still
// lines up); a broken record magic means the framing itself is lost, so
// the rest of the file is dropped as unrecoverable. Every rejected or
// truncated record is counted in StoreStats.
//
// Sharing: appends hold an exclusive flock(2) on the file for the whole
// write+fsync, so concurrent writers — other processes, other DiskStore
// handles, server shards — never interleave record bytes. flock is
// per-open-file-description, so two handles in one process contend
// exactly like two processes do. Loads of already-indexed records need no
// file lock (the file is append-only and compaction replaces it via
// rename, keeping this handle's inode alive); an index miss triggers a
// tail scan to pick up records other writers published. That scan takes
// the exclusive lock too, because it truncates a torn tail it finds.
//
// Budget: with max_bytes set, an append that pushes the file over the
// budget compacts it — the surviving records are the most expensive ones
// by recorded solve cost (a cached 10 ms DP answer is worth keeping; a
// 10 us one is not), rewritten through a temp file + rename so a crash
// mid-compaction leaves either the old file or the new one, never a
// hybrid. Writers on the replaced inode notice (device/inode check under
// the append lock) and reopen.
//
// Versioning/compat: kFormatVersion is bumped on any layout or hash change
// (version 2: hash64 replaced FNV-1a as checksum and key digest). open()
// moves a file of an older version aside to <path>.v<version> (overwriting
// an older copy there) and starts cold on a fresh file at the path: old
// records are kept byte for byte but never migrated or half-read. The move
// happens under the old file's lock, after checking that the path still
// names it; the fresh file is locked before that lock is dropped, so every
// handle opened on the old file ends on the one new file. A newer version
// or a foreign magic is refused with an error: an Engine then runs
// memory-only and reports it in store_error(), and gapsched_serve refuses
// to start.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gapsched::store {

inline constexpr char kFileMagic[8] = {'g', 'a', 'p', 's', 't', 'o', 'r', 'e'};
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::size_t kFileHeaderBytes = 16;
inline constexpr std::uint32_t kRecordMagic = 0x47535243u;  // "CRSG" LE
inline constexpr std::size_t kRecordHeaderBytes = 32;
inline constexpr std::size_t kRecordChecksumBytes = 8;
/// Per-field byte cap; a length field beyond this is corruption, not data.
inline constexpr std::size_t kMaxFieldBytes = std::size_t{1} << 30;

/// Total on-disk size of a record with these field lengths.
constexpr std::size_t record_bytes(std::size_t key_len,
                                   std::size_t payload_len) {
  return kRecordHeaderBytes + key_len + payload_len + kRecordChecksumBytes;
}

struct StoreOptions {
  /// File size budget in bytes; appends beyond it trigger compaction
  /// (keep-most-expensive). 0 = unbounded.
  std::size_t max_bytes = 0;
  /// Fault injection for crash tests: when > 0, the next append writes only
  /// the first N bytes of the record, skips the fsync, and poisons the
  /// handle (as a crashed process would leave it). 0 = off.
  std::size_t fail_append_after = 0;
};

/// Cumulative counters for one DiskStore handle, plus what its scans saw.
struct StoreStats {
  std::size_t entries = 0;          // loadable records currently indexed
  std::size_t file_bytes = 0;       // current file size
  std::size_t appends = 0;          // records durably appended by this handle
  std::size_t loads = 0;            // successful record loads
  std::size_t rejected_records = 0;  // checksum/framing/identity failures
  std::size_t truncated_bytes = 0;   // torn-tail bytes discarded by recovery
  std::size_t compactions = 0;
  std::size_t dropped_records = 0;  // records dropped by compaction
};

/// Index entry; exposed (records()) so tests and tools can locate records.
struct RecordInfo {
  std::uint64_t digest = 0;
  std::uint64_t offset = 0;  // file offset of the record's first byte
  std::size_t bytes = 0;     // total record length on disk
  double cost_ms = 0.0;
};

class DiskStore {
 public:
  /// Opens (creating if absent) the store at `path`, recovers any torn
  /// tail, and indexes every intact record. A file of an older format
  /// version is moved aside and replaced by an empty store (see
  /// Versioning). Returns nullptr with *error set on I/O failure, foreign
  /// magic, or a newer format version.
  static std::unique_ptr<DiskStore> open(const std::string& path,
                                         StoreOptions options,
                                         std::string* error);

  ~DiskStore();
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  const std::string& path() const { return path_; }

  /// Number of loadable records in the index.
  std::size_t size() const;

  /// Index-only probe (no tail rescan, no I/O).
  bool contains(std::uint64_t digest) const;

  /// Loads the payload stored under `digest`, re-verifying the record's
  /// checksum and comparing the stored key text against `key_text` byte
  /// for byte. Any mismatch quarantines the record (counted in
  /// rejected_records) and returns nullopt. An index miss first rescans
  /// the tail, as refresh() does, so records appended by other processes
  /// are visible without reopening.
  std::optional<std::string> load(std::uint64_t digest,
                                  std::string_view key_text);

  /// Durably appends one record (exclusive flock across write + fsync).
  /// A digest already in the index is skipped (idempotent; first writer
  /// wins). False with *error set on I/O failure or a poisoned handle.
  bool append(std::uint64_t digest, std::string_view key_text,
              std::string_view payload, double cost_ms,
              std::string* error = nullptr);

  /// Drops a digest from this handle's index so it can never serve again
  /// (the bytes stay until compaction). Called by the cache tier when a
  /// record fails deserialization, the persistable check or the oracle
  /// re-audit.
  void invalidate(std::uint64_t digest);

  /// Rescans the tail for records appended by other handles/processes
  /// (exclusive file lock: a torn tail found there is truncated).
  void refresh();

  /// Forces a keep-most-expensive rewrite down to the max_bytes budget
  /// (no-op without a budget). Appends do this automatically.
  bool compact(std::string* error = nullptr);

  StoreStats stats() const;

  /// Snapshot of the index, offset-ordered (tests and tools).
  std::vector<RecordInfo> records() const;

 private:
  DiskStore(std::string path, StoreOptions options);

  bool open_locked(std::string* error);
  /// Scans records in [scan_end_, EOF). With `writable`, a torn tail is
  /// truncated away; otherwise the scan just stops before it.
  void scan_locked(bool writable);
  /// Re-syncs with the file under the append lock: reopens if the path was
  /// replaced (compaction by another handle), then scans any new tail.
  bool sync_for_append_locked(std::string* error);
  /// Swaps fd_ for a fresh descriptor on path_, exclusively locked before
  /// the old descriptor (and its lock) is closed.
  bool reopen_locked(std::string* error);
  bool compact_locked(std::string* error);
  /// Scans records other handles appended since the last scan, under the
  /// exclusive file lock; the shared miss path of load() and refresh().
  void rescan_tail_locked();

  std::string path_;
  StoreOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;
  bool poisoned_ = false;  // simulated crash: handle refuses further writes
  std::uint64_t scan_end_ = 0;  // file offset one past the last scanned record
  std::unordered_map<std::uint64_t, RecordInfo> index_;

  std::size_t appends_ = 0;
  std::size_t loads_ = 0;
  std::size_t rejected_records_ = 0;
  std::size_t truncated_bytes_ = 0;
  std::size_t compactions_ = 0;
  std::size_t dropped_records_ = 0;
};

}  // namespace gapsched::store
