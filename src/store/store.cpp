#include "gapsched/store/store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "gapsched/core/hash.hpp"

namespace gapsched::store {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

double get_f64(const char* p) {
  const std::uint64_t bits = get_u64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool write_all_at(int fd, const char* data, std::size_t n, std::uint64_t off) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t wrote =
        ::pwrite(fd, data + done, n - done, static_cast<off_t>(off + done));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(wrote);
  }
  return true;
}

bool read_exact_at(int fd, char* data, std::size_t n, std::uint64_t off) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got =
        ::pread(fd, data + done, n - done, static_cast<off_t>(off + done));
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;  // EOF short of n is a failure here
    }
    done += static_cast<std::size_t>(got);
  }
  return true;
}

std::uint64_t file_size_of(int fd) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

/// Exclusive flock(2), retried on EINTR.
bool lock_exclusive(int fd) {
  while (::flock(fd, LOCK_EX) != 0) {
    if (errno != EINTR) return false;
  }
  return true;
}

/// Exclusive flock(2) on the store file for one scope, released on every
/// return path. It unlocks whatever descriptor `fd` names at scope exit:
/// compaction and the reopen after another handle's compaction swap the
/// descriptor while the lock is held, and lock the replacement first.
class FileLock {
 public:
  explicit FileLock(const int& fd) : fd_(fd), held_(lock_exclusive(fd)) {}
  ~FileLock() {
    if (held_) ::flock(fd_, LOCK_UN);
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  bool held() const { return held_; }

 private:
  const int& fd_;
  bool held_;
};

/// True when `path` names a different file than `fd` has open: another
/// handle renamed a compacted file over it, or moved an older format aside.
bool replaced(const std::string& path, int fd) {
  struct stat by_path{};
  struct stat by_fd{};
  return ::stat(path.c_str(), &by_path) == 0 && ::fstat(fd, &by_fd) == 0 &&
         (by_path.st_dev != by_fd.st_dev || by_path.st_ino != by_fd.st_ino);
}

/// Serialized file header: magic, format version, reserved zero word.
std::string make_file_header() {
  std::string header(kFileMagic, sizeof kFileMagic);
  put_u32(header, kFormatVersion);
  put_u32(header, 0);
  return header;
}

/// Serializes one full record (header + key + payload + trailing checksum).
std::string make_record(std::uint64_t digest, std::string_view key_text,
                        std::string_view payload, double cost_ms) {
  std::string rec;
  rec.reserve(record_bytes(key_text.size(), payload.size()));
  put_u32(rec, kRecordMagic);
  put_u32(rec, static_cast<std::uint32_t>(key_text.size()));
  put_u32(rec, static_cast<std::uint32_t>(payload.size()));
  put_u32(rec, 0);
  put_u64(rec, digest);
  put_f64(rec, cost_ms);
  rec.append(key_text);
  rec.append(payload);
  put_u64(rec, hash64(rec));
  return rec;
}

struct RecordHead {
  std::uint32_t magic = 0;
  std::uint32_t key_len = 0;
  std::uint32_t payload_len = 0;
  std::uint64_t digest = 0;
  double cost_ms = 0.0;
};

RecordHead parse_record_head(const char* p) {
  RecordHead head;
  head.magic = get_u32(p);
  head.key_len = get_u32(p + 4);
  head.payload_len = get_u32(p + 8);
  head.digest = get_u64(p + 16);
  head.cost_ms = get_f64(p + 24);
  return head;
}

bool head_framing_ok(const RecordHead& head) {
  return head.magic == kRecordMagic && head.key_len > 0 &&
         head.key_len <= kMaxFieldBytes && head.payload_len <= kMaxFieldBytes;
}

/// True when `rec` (a complete on-disk record image) checksums clean.
bool record_checksum_ok(std::string_view rec) {
  const std::size_t body = rec.size() - kRecordChecksumBytes;
  return hash64(rec.substr(0, body)) == get_u64(rec.data() + body);
}

}  // namespace

DiskStore::DiskStore(std::string path, StoreOptions options)
    : path_(std::move(path)), options_(options) {}

DiskStore::~DiskStore() {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<DiskStore> DiskStore::open(const std::string& path,
                                           StoreOptions options,
                                           std::string* error) {
  std::unique_ptr<DiskStore> store(new DiskStore(path, options));
  std::string local_error;
  if (!store->open_locked(&local_error)) {
    if (error != nullptr) *error = local_error;
    return nullptr;
  }
  return store;
}

bool DiskStore::open_locked(std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    *error = errno_message("open " + path_);
    return false;
  }
  const FileLock lock(fd_);
  if (!lock.held()) {
    *error = errno_message("flock " + path_);
    return false;
  }
  const std::string header = make_file_header();
  for (;;) {
    // Another handle may have moved an older file aside (or compacted)
    // between our open and our lock: follow the path to the file it names
    // now, whose header then decides.
    if (replaced(path_, fd_)) {
      if (!reopen_locked(error)) return false;
      continue;
    }
    const std::uint64_t size = file_size_of(fd_);
    bool fresh = size == 0;
    if (size > 0 && size < kFileHeaderBytes) {
      // A crash during store creation can leave a short header prefix; if
      // the bytes on disk match ours it is our torn header, not a foreign
      // file.
      std::string prefix(static_cast<std::size_t>(size), '\0');
      if (read_exact_at(fd_, prefix.data(), prefix.size(), 0) &&
          header.compare(0, prefix.size(), prefix) == 0) {
        fresh = true;
      } else {
        *error = path_ + " is not a gapsched store (short unrecognized header)";
        return false;
      }
    }
    if (fresh) {
      if (::ftruncate(fd_, 0) != 0 ||
          !write_all_at(fd_, header.data(), header.size(), 0) ||
          ::fsync(fd_) != 0) {
        *error = errno_message("initialize " + path_);
        return false;
      }
      break;
    }
    char buf[kFileHeaderBytes];
    if (!read_exact_at(fd_, buf, sizeof buf, 0)) {
      *error = errno_message("read header of " + path_);
      return false;
    }
    if (std::memcmp(buf, kFileMagic, sizeof kFileMagic) != 0) {
      *error = path_ + " is not a gapsched store (bad magic)";
      return false;
    }
    const std::uint32_t version = get_u32(buf + sizeof kFileMagic);
    if (version == kFormatVersion) break;
    if (version > kFormatVersion) {
      *error = path_ + ": unsupported store format version " +
               std::to_string(version) + " (this build reads version " +
               std::to_string(kFormatVersion) + ")";
      return false;
    }
    // An older format: keep its bytes under <path>.v<version> and start
    // cold on a fresh file at the path. The fresh file is created and
    // locked before the old file's lock is dropped, so a handle waiting on
    // the old file finds it replaced and follows the path here.
    const std::string aside = path_ + ".v" + std::to_string(version);
    if (::rename(path_.c_str(), aside.c_str()) != 0) {
      *error = errno_message("move " + path_ + " aside to " + aside);
      return false;
    }
    if (!reopen_locked(error)) return false;
  }
  scan_end_ = kFileHeaderBytes;
  scan_locked(/*writable=*/true);
  return true;
}

bool DiskStore::reopen_locked(std::string* error) {
  const int next = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (next < 0) {
    if (error != nullptr) *error = errno_message("reopen " + path_);
    return false;
  }
  if (!lock_exclusive(next)) {
    if (error != nullptr) *error = errno_message("flock " + path_);
    ::close(next);
    return false;
  }
  ::close(fd_);  // releases the old descriptor's lock
  fd_ = next;
  return true;
}

void DiskStore::scan_locked(bool writable) {
  std::uint64_t size = file_size_of(fd_);
  std::uint64_t off = scan_end_;
  while (off < size) {
    if (off + kRecordHeaderBytes > size) break;  // torn tail: header cut off
    char head_buf[kRecordHeaderBytes];
    if (!read_exact_at(fd_, head_buf, sizeof head_buf, off)) break;
    const RecordHead head = parse_record_head(head_buf);
    if (!head_framing_ok(head)) {
      // The framing itself is gone: nothing after this offset can be
      // trusted to line up on record boundaries, so the rest of the file
      // is unrecoverable (unlike a checksum failure, which leaves the
      // next record reachable).
      ++rejected_records_;
      break;
    }
    const std::uint64_t total = record_bytes(head.key_len, head.payload_len);
    if (off + total > size) break;  // torn tail: body cut off
    std::string rec(static_cast<std::size_t>(total), '\0');
    if (!read_exact_at(fd_, rec.data(), rec.size(), off)) break;
    if (record_checksum_ok(rec)) {
      // Duplicate digests can exist when two processes raced the same
      // entry between refreshes; last wins (the payloads are equal for
      // deterministic solvers, and loads re-verify either way).
      index_[head.digest] =
          RecordInfo{head.digest, off, static_cast<std::size_t>(total),
                     head.cost_ms};
    } else {
      ++rejected_records_;  // skippable: framing after it still lines up
    }
    off += total;
  }
  if (writable && off < size) {
    // Drop the unrecoverable tail so the file is append-clean again. Only
    // ever done under the exclusive file lock: with no writer mid-append,
    // a short or unframed tail is a crash/corruption leftover, not an
    // in-flight record.
    if (::ftruncate(fd_, static_cast<off_t>(off)) == 0) {
      truncated_bytes_ += static_cast<std::size_t>(size - off);
      size = off;
    }
  }
  scan_end_ = off;
}

std::size_t DiskStore::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.size();
}

bool DiskStore::contains(std::uint64_t digest) const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.find(digest) != index_.end();
}

std::optional<std::string> DiskStore::load(std::uint64_t digest,
                                           std::string_view key_text) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index_.find(digest);
  if (it == index_.end()) {
    // Another handle (CLI session, server shard, other process) may have
    // published records since our last scan; pick up the tail before
    // declaring a miss.
    rescan_tail_locked();
    it = index_.find(digest);
    if (it == index_.end()) return std::nullopt;
  }
  const RecordInfo info = it->second;
  std::string rec(info.bytes, '\0');
  // Everything read back is untrusted until re-verified: the bytes may
  // have rotted since the index scan. Checksum, digest, and the full key
  // text must all match or the record is quarantined.
  bool good = read_exact_at(fd_, rec.data(), rec.size(), info.offset) &&
              record_checksum_ok(rec);
  if (good) {
    const RecordHead head = parse_record_head(rec.data());
    good = head_framing_ok(head) && head.digest == digest &&
           head.key_len == key_text.size() &&
           record_bytes(head.key_len, head.payload_len) == info.bytes &&
           std::memcmp(rec.data() + kRecordHeaderBytes, key_text.data(),
                       key_text.size()) == 0;
    if (good) {
      ++loads_;
      return rec.substr(kRecordHeaderBytes + head.key_len, head.payload_len);
    }
  }
  ++rejected_records_;
  index_.erase(digest);
  return std::nullopt;
}

bool DiskStore::sync_for_append_locked(std::string* error) {
  // Compaction (ours or another process's) replaces the file via rename;
  // a writer still holding the old inode must notice and reopen, or its
  // appends would land in an orphan no reader can see.
  if (replaced(path_, fd_)) {
    if (!reopen_locked(error)) return false;
    index_.clear();
    scan_end_ = kFileHeaderBytes;
  }
  scan_locked(/*writable=*/true);
  return true;
}

bool DiskStore::append(std::uint64_t digest, std::string_view key_text,
                       std::string_view payload, double cost_ms,
                       std::string* error) {
  if (key_text.empty() || key_text.size() > kMaxFieldBytes ||
      payload.size() > kMaxFieldBytes) {
    if (error != nullptr) *error = "record field size out of range";
    return false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (poisoned_) {
    if (error != nullptr) *error = "store handle poisoned by simulated crash";
    return false;
  }
  const FileLock lock(fd_);
  if (!lock.held()) {
    if (error != nullptr) *error = errno_message("flock " + path_);
    return false;
  }
  if (!sync_for_append_locked(error)) return false;
  if (index_.contains(digest)) return true;  // someone already persisted it
  const std::string rec = make_record(digest, key_text, payload, cost_ms);
  const std::uint64_t off = scan_end_;
  if (options_.fail_append_after > 0) {
    // Simulated crash: a prefix of the record reaches disk, nothing is
    // fsynced or published, and this handle dies as a process would.
    const std::size_t partial = std::min(options_.fail_append_after,
                                         rec.size());
    write_all_at(fd_, rec.data(), partial, off);
    poisoned_ = true;
    if (error != nullptr) *error = "simulated crash after " +
                                   std::to_string(partial) + " bytes";
    return false;
  }
  if (!write_all_at(fd_, rec.data(), rec.size(), off) || ::fsync(fd_) != 0) {
    if (error != nullptr) *error = errno_message("append to " + path_);
    return false;
  }
  // Durable on disk: publish. Readers can only ever index fsynced bytes.
  index_[digest] = RecordInfo{digest, off, rec.size(), cost_ms};
  scan_end_ = off + rec.size();
  ++appends_;
  if (options_.max_bytes > 0 && scan_end_ > options_.max_bytes) {
    return compact_locked(error);
  }
  return true;
}

void DiskStore::invalidate(std::uint64_t digest) {
  std::lock_guard<std::mutex> lk(mu_);
  index_.erase(digest);
}

void DiskStore::refresh() {
  std::lock_guard<std::mutex> lk(mu_);
  rescan_tail_locked();
}

void DiskStore::rescan_tail_locked() {
  if (file_size_of(fd_) <= scan_end_) return;
  // Exclusive, not shared: the scan may truncate a torn tail.
  const FileLock lock(fd_);
  if (lock.held()) scan_locked(/*writable=*/!poisoned_);
}

bool DiskStore::compact(std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  if (options_.max_bytes == 0) return true;
  const FileLock lock(fd_);
  if (!lock.held()) {
    if (error != nullptr) *error = errno_message("flock " + path_);
    return false;
  }
  return sync_for_append_locked(error) && compact_locked(error);
}

bool DiskStore::compact_locked(std::string* error) {
  // Keep the most expensive records (recorded solve cost is the value of a
  // cached entry) down to 3/4 of the budget, so compaction is not
  // immediately re-triggered by the next append.
  const std::uint64_t budget = std::max<std::uint64_t>(
      kFileHeaderBytes, options_.max_bytes - options_.max_bytes / 4);
  std::vector<RecordInfo> by_cost;
  by_cost.reserve(index_.size());
  for (const auto& [digest, info] : index_) by_cost.push_back(info);
  std::sort(by_cost.begin(), by_cost.end(),
            [](const RecordInfo& a, const RecordInfo& b) {
              if (a.cost_ms != b.cost_ms) return a.cost_ms > b.cost_ms;
              return a.offset < b.offset;
            });
  std::vector<RecordInfo> kept;
  std::uint64_t bytes = kFileHeaderBytes;
  for (const RecordInfo& info : by_cost) {
    if (bytes + info.bytes > budget) continue;
    bytes += info.bytes;
    kept.push_back(info);
  }
  // Preserve append order in the rewritten file (stable, debuggable).
  std::sort(kept.begin(), kept.end(),
            [](const RecordInfo& a, const RecordInfo& b) {
              return a.offset < b.offset;
            });

  const std::string tmp_path = path_ + ".compact";
  const int tmp_fd =
      ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) {
    if (error != nullptr) *error = errno_message("open " + tmp_path);
    return false;
  }
  // Take the exclusive lock on the replacement before it becomes the store,
  // so lock coverage is continuous across the rename.
  lock_exclusive(tmp_fd);
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = errno_message(what);
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    return false;
  };
  const std::string header = make_file_header();
  if (!write_all_at(tmp_fd, header.data(), header.size(), 0)) {
    return fail("write " + tmp_path);
  }
  std::unordered_map<std::uint64_t, RecordInfo> new_index;
  std::uint64_t off = kFileHeaderBytes;
  std::size_t copied = 0;
  for (const RecordInfo& info : kept) {
    std::string rec(info.bytes, '\0');
    if (!read_exact_at(fd_, rec.data(), rec.size(), info.offset) ||
        !record_checksum_ok(rec)) {
      ++rejected_records_;  // rotted since the scan; drop instead of copying
      continue;
    }
    if (!write_all_at(tmp_fd, rec.data(), rec.size(), off)) {
      return fail("write " + tmp_path);
    }
    new_index[info.digest] = RecordInfo{info.digest, off, info.bytes,
                                        info.cost_ms};
    off += info.bytes;
    ++copied;
  }
  if (::fsync(tmp_fd) != 0) return fail("fsync " + tmp_path);
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    return fail("rename " + tmp_path);
  }
  dropped_records_ += index_.size() - copied;
  ::close(fd_);
  fd_ = tmp_fd;  // already exclusively locked; the caller's FileLock
                 // unlocks it
  index_ = std::move(new_index);
  scan_end_ = off;
  ++compactions_;
  return true;
}

StoreStats DiskStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  StoreStats s;
  s.entries = index_.size();
  s.file_bytes = static_cast<std::size_t>(file_size_of(fd_));
  s.appends = appends_;
  s.loads = loads_;
  s.rejected_records = rejected_records_;
  s.truncated_bytes = truncated_bytes_;
  s.compactions = compactions_;
  s.dropped_records = dropped_records_;
  return s;
}

std::vector<RecordInfo> DiskStore::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<RecordInfo> out;
  out.reserve(index_.size());
  for (const auto& [digest, info] : index_) out.push_back(info);
  std::sort(out.begin(), out.end(),
            [](const RecordInfo& a, const RecordInfo& b) {
              return a.offset < b.offset;
            });
  return out;
}

}  // namespace gapsched::store
