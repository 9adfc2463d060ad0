#pragma once
// Content-addressed solve cache: the cross-request memo behind
// gapsched::engine::Engine.
//
// Entries are keyed by the canonical form of a solve — solver name,
// objective, the parameter fields the solver actually consumes (per
// SolverInfo::params), and the prep-canonicalized instance (jobs sorted,
// origin at 0; decomposed components additionally dead-time compressed at
// the objective's length-aware cap — one unit for gap solves,
// ceil(alpha) + 1 for power solves, so power keys normalize across
// dead-run lengths without disturbing any min(gap, alpha) bridge term).
// Time-shifted, job-permuted, and dead-run-stretched copies of a workload
// therefore share one entry, and identical components inside one
// decomposed instance collapse onto the same key. The pipeline builds that
// form from one copy of the request's instance, made by Canonicalize and
// shifted and compressed in place from then on; the key hashes the
// component exactly as Dispatch would solve it, and a disk candidate is
// audited against that same component without another copy. The key
// carries both a 64-bit FNV-1a digest (the hash bucket — the "content
// address") and the full canonical text, compared on lookup so digest
// collisions can never alias two different solves.
//
// Thread safety: all operations take an internal mutex; the cache is shared
// by Engine::solve_stream workers and by the prep pipeline's component
// fan-out. Capacity is enforced LRU.
//
// Second tier (optional): a SolveCache constructed with a
// store::DiskStore owns it as a read-through/write-behind spill. lookup()
// is the one read path: a memory miss loads the record from the store and
// serves it only when it is a complete, feasible answer (the one
// persistable() predicate spill admission also applies) and survives a
// full re-audit by the independent oracle against the instance its key
// hashes. A corrupt, forged or stale record is quarantined and degrades to
// a fresh solve, never a wrong answer. Writes are behind: insert()
// enqueues persistable entries (admission is cost-weighted — only solves
// that took at least the spill threshold are worth disk) and a background
// worker serializes and appends them, so persistence never sits on the
// solve path.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "gapsched/engine/solver.hpp"
#include "gapsched/engine/types.hpp"
#include "gapsched/store/store.hpp"

namespace gapsched::engine {

/// Canonical-form cache key: FNV-1a digest + the exact canonical text.
struct CacheKey {
  std::uint64_t digest = 0;
  std::string text;
  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return static_cast<std::size_t>(key.digest);
  }
};

/// Builds the key for solving `canonical` (which must already be in
/// canonical form — prep::canonicalize output, a prep::decompose component,
/// or its dead-time-compressed image) with this solver. Only parameter
/// fields the solver consumes (info.params) enter the key, so e.g. changing
/// alpha busts power_dp entries but not gap_dp ones. validate, time_limit_s,
/// decompose and compress are post-processing / routing concerns and never
/// key directly (compress determines which instance form is hashed, so a
/// compressed and an uncompressed component naturally key apart).
CacheKey make_cache_key(const SolverInfo& info, Objective objective,
                        const SolveParams& params, const Instance& canonical);

/// Cumulative counters; `entries` is the current size. The disk_* /
/// spilled fields are zero unless the cache owns a persistent store.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
  /// Disk-tier records admitted into the LRU after the oracle re-audit.
  std::size_t disk_hits = 0;
  /// Disk-tier records rejected: framing/checksum failures seen by the
  /// store's scans and loads, plus deserialization and oracle refusals.
  std::size_t disk_rejects = 0;
  /// Entries durably appended to the store by this cache's spill worker.
  std::size_t spilled = 0;
  /// Loadable records currently indexed in the store.
  std::size_t disk_entries = 0;
};

class SolveCache {
 public:
  /// `capacity` caps the entry count (LRU eviction); 0 means unbounded.
  /// A non-null `store` becomes the persistent second tier, owned by this
  /// cache, and starts the spill worker; entries whose recorded solve wall
  /// time is below `spill_min_ms` are not persisted (cost-weighted
  /// admission).
  explicit SolveCache(std::size_t capacity = 4096,
                      std::unique_ptr<store::DiskStore> store = nullptr,
                      double spill_min_ms = 0.0);
  ~SolveCache();

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// The persistent tier, if any.
  store::DiskStore* store() const { return store_.get(); }

  /// Returns the cached result (schedule in the key's canonical
  /// coordinates; nullptr on a miss) and bumps the entry to
  /// most-recently-used. Counts a memory hit or miss either way. On a
  /// memory miss with a store, the record under `key` is loaded and served
  /// only when it is persistable and the oracle accepts it as an answer
  /// for `canonical` — the instance `key` hashes — under `objective`,
  /// `params` and the solver's `exact`ness; it is then promoted into the
  /// LRU (counted in disk_hits, not re-spilled). Any other record is
  /// quarantined and counted in disk_rejects. Entries are immutable and
  /// shared: only a pointer is copied under the cache lock, so concurrent
  /// hits on large schedules do not serialize on the mutex.
  std::shared_ptr<const SolveResult> lookup(const CacheKey& key,
                                            const Instance& canonical,
                                            Objective objective,
                                            const SolveParams& params,
                                            bool exact);

  /// Stores `result` under `key`, normalized to be request-independent:
  /// wall time, timeout and audit fields are cleared so a later hit can
  /// re-derive them for its own request. Re-inserting an existing key only
  /// refreshes its LRU position. `solve_ms` is the fresh solve's wall time
  /// — the admission weight the disk tier spills and compacts by.
  void insert(const CacheKey& key, const SolveResult& result,
              double solve_ms = 0.0);

  /// Blocks until every queued spill has been serialized and appended (or
  /// skipped); the barrier benches, tests, and graceful drains sit on.
  void flush_spill();

  CacheStats stats() const;
  /// Drops the in-memory tier only; the store is untouched.
  void clear();

 private:
  /// Inserts `result` under `key` unless an entry is there already; true
  /// when it inserted. Either way the key's entry becomes most recent.
  bool insert_locked(const CacheKey& key,
                     std::shared_ptr<const SolveResult> result);
  void evict_locked();
  void spill_worker();

  struct Entry {
    std::shared_ptr<const SolveResult> result;
    std::list<const CacheKey*>::iterator lru;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  // front = most recently used; pointers reference map_ keys (stable).
  std::list<const CacheKey*> lru_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t insertions_ = 0;
  std::size_t evictions_ = 0;
  std::size_t disk_hits_ = 0;
  std::size_t disk_rejects_ = 0;  // deserialize + oracle/policy refusals
  std::size_t spilled_ = 0;

  // --- persistent tier (immutable after construction) ---
  std::unique_ptr<store::DiskStore> store_;
  double spill_min_ms_ = 0.0;

  struct SpillItem {
    std::uint64_t digest = 0;
    std::string key_text;
    std::shared_ptr<const SolveResult> result;  // normalized entry
    double cost_ms = 0.0;
  };
  std::mutex spill_mu_;
  std::condition_variable spill_cv_;       // wakes the worker
  std::condition_variable spill_idle_cv_;  // wakes flush_spill waiters
  std::deque<SpillItem> spill_queue_;
  bool spill_stop_ = false;
  bool spill_busy_ = false;  // worker is serializing/appending an item
  std::thread spill_thread_;
};

}  // namespace gapsched::engine
