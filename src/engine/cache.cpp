#include "gapsched/engine/cache.hpp"

#include <charconv>
#include <cstdio>
#include <optional>
#include <utility>

#include "gapsched/core/hash.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/oracle/oracle.hpp"

namespace gapsched::engine {

namespace {

/// Doubles are keyed at 17 significant digits: enough that any two
/// distinct double values produce distinct text (and equal values always
/// the same text), which is all a deterministic key needs. Unlike the
/// io/json.cpp writer, no shortest-round-trip search is done — keys are
/// not meant to be pretty.
void append_double(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

/// Puts `entry` in the request-independent normal form of a cached entry:
/// the pipeline re-derives timing and audit for every request a hit serves.
void normalize(SolveResult& entry) {
  entry.stats.wall_ms = 0.0;
  entry.stats.cache_hit = false;
  entry.stats.component_cache_hits = 0;
  entry.stats.components_deduped = 0;
  entry.stats.stages = {};
  entry.timed_out = false;
  entry.audited = false;
  entry.audit_error.clear();
}

/// The only answers the disk tier holds, on the way in and on the way
/// out: complete and feasible. A rejection or an infeasibility verdict
/// carries no schedule the oracle could re-check, so one is never spilled,
/// and one arriving from disk is by definition doctored or stale.
bool persistable(const SolveResult& result) {
  return result.ok && result.feasible && result.error.empty();
}

}  // namespace

CacheKey make_cache_key(const SolverInfo& info, Objective objective,
                        const SolveParams& params, const Instance& canonical) {
  std::string text;
  const auto append_int = [](std::string& out, auto value) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  };
  text += info.name;
  text += '|';
  text += to_string(objective);
  text += "|p";
  append_int(text, canonical.processors);
  if ((info.params & kUsesAlpha) != 0) {
    text += "|a=";
    append_double(text, params.alpha);
  }
  if ((info.params & kUsesMaxSpans) != 0) {
    text += "|k=";
    append_int(text, params.max_spans);
  }
  if ((info.params & kUsesThreshold) != 0) {
    text += "|t=";
    append_double(text, params.powerdown_threshold);
  }
  if ((info.params & kUsesPacking) != 0) {
    text += "|s=";
    append_int(text, params.swap_size);
    text += ",b=";
    append_int(text, params.block_size);
  }
  // The jobs, "|lo,hi;lo,hi;..." each, go into one buffer sized for the
  // longest spelling: a '|' per job and 20 + 1 + 20 + 1 bytes per interval.
  constexpr std::size_t kIntervalBytes = 42;
  std::size_t intervals = 0;
  for (const Job& job : canonical.jobs) {
    intervals += job.allowed.interval_count();
  }
  const std::size_t head = text.size();
  text.resize(head + canonical.n() + intervals * kIntervalBytes);
  char* p = text.data() + head;
  char* const end = text.data() + text.size();
  for (const Job& job : canonical.jobs) {
    *p++ = '|';
    for (const Interval& iv : job.allowed.intervals()) {
      p = std::to_chars(p, end, iv.lo).ptr;
      *p++ = ',';
      p = std::to_chars(p, end, iv.hi).ptr;
      *p++ = ';';
    }
  }
  text.resize(static_cast<std::size_t>(p - text.data()));
  CacheKey key;
  key.digest = hash64(text);
  key.text = std::move(text);
  return key;
}

SolveCache::SolveCache(std::size_t capacity,
                       std::unique_ptr<store::DiskStore> store,
                       double spill_min_ms)
    : capacity_(capacity),
      store_(std::move(store)),
      spill_min_ms_(spill_min_ms) {
  if (store_ != nullptr) {
    spill_thread_ = std::thread([this] { spill_worker(); });
  }
}

SolveCache::~SolveCache() {
  {
    std::lock_guard<std::mutex> lk(spill_mu_);
    spill_stop_ = true;
  }
  spill_cv_.notify_all();
  if (spill_thread_.joinable()) spill_thread_.join();
}

std::shared_ptr<const SolveResult> SolveCache::lookup(
    const CacheKey& key, const Instance& canonical, Objective objective,
    const SolveParams& params, bool exact) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.result;
    }
    ++misses_;
  }
  if (store_ == nullptr) return nullptr;
  // A disk record is UNTRUSTED input. The store re-verifies checksum,
  // digest and the full key text; what it returns must still parse, be
  // persistable, and survive the oracle's re-audit against `canonical`,
  // read in place, before it may serve.
  std::optional<std::string> payload = store_->load(key.digest, key.text);
  if (!payload.has_value()) return nullptr;
  std::optional<SolveResult> parsed = io::result_from_json(*payload);
  if (!parsed.has_value() || !persistable(*parsed) ||
      !oracle::check_result(canonical, objective, params, *parsed, exact)
           .empty()) {
    store_->invalidate(key.digest);
    std::lock_guard<std::mutex> lk(mu_);
    ++disk_rejects_;
    return nullptr;
  }
  // Copied, not parsed in place: the parser's buffer, freed here, is then
  // reused warm by the stages after this one. Parsing straight into the
  // entry raised traced restart_warm cache_lookup_us in 9 of 10 pairs.
  auto entry = std::make_shared<SolveResult>(*parsed);
  normalize(*entry);
  std::lock_guard<std::mutex> lk(mu_);
  ++disk_hits_;
  insert_locked(key, entry);
  return entry;
}

void SolveCache::insert(const CacheKey& key, const SolveResult& result,
                        double solve_ms) {
  // Normal form built outside the lock; this shared entry is also exactly
  // what the spill worker serializes, so disk records carry no
  // request-specific state either.
  auto stored = std::make_shared<SolveResult>(result);
  normalize(*stored);
  // Cost-weighted admission to the disk tier: only persistable answers
  // whose solve paid at least the threshold are worth a record.
  const bool spill =
      store_ != nullptr && solve_ms >= spill_min_ms_ && persistable(result);
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fresh = insert_locked(key, stored);
  }
  if (spill && fresh) {
    {
      std::lock_guard<std::mutex> lk(spill_mu_);
      spill_queue_.push_back(
          SpillItem{key.digest, key.text, std::move(stored), solve_ms});
    }
    spill_cv_.notify_one();
  }
}

void SolveCache::flush_spill() {
  std::unique_lock<std::mutex> lk(spill_mu_);
  if (!spill_thread_.joinable()) return;
  spill_idle_cv_.wait(lk,
                      [&] { return spill_queue_.empty() && !spill_busy_; });
}

void SolveCache::spill_worker() {
  for (;;) {
    SpillItem item;
    {
      std::unique_lock<std::mutex> lk(spill_mu_);
      spill_cv_.wait(lk,
                     [&] { return spill_stop_ || !spill_queue_.empty(); });
      if (spill_queue_.empty()) break;  // stopping, and fully drained
      item = std::move(spill_queue_.front());
      spill_queue_.pop_front();
      spill_busy_ = true;
    }
    // Serialize outside every lock; dedup against entries another handle
    // (process, shard) already persisted.
    if (!store_->contains(item.digest)) {
      const std::string payload = io::result_to_json(*item.result);
      if (store_->append(item.digest, item.key_text, payload, item.cost_ms)) {
        std::lock_guard<std::mutex> lk(mu_);
        ++spilled_;
      }
    }
    {
      std::lock_guard<std::mutex> lk(spill_mu_);
      spill_busy_ = false;
      if (spill_queue_.empty()) spill_idle_cv_.notify_all();
    }
  }
}

bool SolveCache::insert_locked(const CacheKey& key,
                               std::shared_ptr<const SolveResult> result) {
  auto [pos, inserted] =
      map_.try_emplace(key, Entry{std::move(result), lru_.end()});
  if (!inserted) {
    // Another worker solved or promoted the same canonical form first;
    // keep its entry (deterministic solvers produce the same result).
    lru_.splice(lru_.begin(), lru_, pos->second.lru);
    return false;
  }
  lru_.push_front(&pos->first);
  pos->second.lru = lru_.begin();
  ++insertions_;
  if (capacity_ > 0 && map_.size() > capacity_) evict_locked();
  return true;
}

void SolveCache::evict_locked() {
  while (map_.size() > capacity_ && !lru_.empty()) {
    const CacheKey* victim = lru_.back();
    lru_.pop_back();
    map_.erase(*victim);
    ++evictions_;
  }
}

CacheStats SolveCache::stats() const {
  CacheStats s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.hits = hits_;
    s.misses = misses_;
    s.insertions = insertions_;
    s.evictions = evictions_;
    s.entries = map_.size();
    s.capacity = capacity_;
    s.disk_hits = disk_hits_;
    s.disk_rejects = disk_rejects_;
    s.spilled = spilled_;
  }
  if (store_ != nullptr) {
    const store::StoreStats disk = store_->stats();
    // Rejections the store's own scans and loads counted (framing,
    // checksum, identity) fold in with the cache-level deserialize/oracle
    // refusals: one number answers "how many records could not serve".
    s.disk_rejects += disk.rejected_records;
    s.disk_entries = disk.entries;
  }
  return s;
}

void SolveCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  lru_.clear();
}

}  // namespace gapsched::engine
