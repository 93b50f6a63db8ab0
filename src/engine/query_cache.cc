#include "src/engine/query_cache.h"

#include <algorithm>
#include <iterator>

#include "src/common/hash.h"
#include "src/model/term_dict.h"
#include "src/obs/metrics.h"

namespace vqldb {

namespace {

// Query-cache capacity: bounded so long sessions with many distinct goals
// cannot grow without limit; LRU entries evict first.
constexpr size_t kQueryCacheCapacity = 256;

obs::Counter* CacheHits() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "vqldb_query_cache_hits_total",
      "Queries answered from the memoizing query cache");
  return c;
}
obs::Counter* CacheMisses() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "vqldb_query_cache_misses_total",
      "Cacheable queries that required evaluation");
  return c;
}
obs::Counter* CacheEvictions() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "vqldb_query_cache_evictions_total",
      "Query-cache entries evicted by the LRU capacity bound");
  return c;
}
obs::Counter* CacheBytesEvicted() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "vqldb_cache_bytes_evicted_total",
      "Cached answer bytes evicted (LRU, byte budget, or load shedding)");
  return c;
}

}  // namespace

bool QueryCache::Key::operator==(const Key& o) const {
  return db_epoch == o.db_epoch && rules_epoch == o.rules_epoch &&
         options_fp == o.options_fp && predicate == o.predicate &&
         pattern == o.pattern && bound_values == o.bound_values;
}

size_t QueryCache::KeyHash::operator()(const Key& k) const {
  size_t seed = std::hash<std::string>{}(k.predicate);
  HashCombineValue(&seed, k.pattern);
  HashCombine(&seed, static_cast<size_t>(k.db_epoch));
  HashCombine(&seed, static_cast<size_t>(k.rules_epoch));
  HashCombine(&seed, static_cast<size_t>(k.options_fp));
  for (const Value& v : k.bound_values) HashCombineValue(&seed, v);
  return seed;
}

bool QueryCache::Lookup(const Key& key, std::vector<std::vector<Value>>* rows) {
  std::shared_ptr<const Answer> answer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      CacheMisses()->Increment();
      return false;
    }
    CacheHits()->Increment();
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    answer = it->second.answer;
  }
  TermDict& dict = TermDict::Global();
  rows->clear();
  rows->reserve(answer->row_count);
  const uint32_t* id = answer->ids.data();
  for (size_t r = 0; r < answer->row_count; ++r) {
    std::vector<Value> row;
    row.reserve(answer->column_count);
    for (size_t c = 0; c < answer->column_count; ++c) {
      row.push_back(dict.Get(*id++));
    }
    rows->push_back(std::move(row));
  }
  return true;
}

bool QueryCache::Contains(const Key& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) > 0;
}

void QueryCache::Store(Key key, const std::vector<std::vector<Value>>& rows,
                       size_t column_count) {
  // Dictionary-encode the answer: 4 bytes per cell plus whatever the
  // dictionary grew by interning values this cache was first to see. Values
  // flowing out of a fixpoint are already interned, so the amortization term
  // is usually zero; charging it here keeps the accounting exact either way.
  TermDict& dict = TermDict::Global();
  auto answer = std::make_shared<Answer>();
  answer->column_count = column_count;
  answer->row_count = rows.size();
  answer->ids.reserve(rows.size() * column_count);
  size_t dict_added = 0;
  for (const auto& row : rows) {
    for (const Value& v : row) {
      TermDict::Interned in = dict.Intern(v);
      answer->ids.push_back(in.id);
      dict_added += in.added_bytes;
    }
  }
  const size_t bytes = sizeof(Entry) + sizeof(Answer) +
                       answer->ids.size() * sizeof(uint32_t) + dict_added;

  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key)) return;  // racing identical store; keep first
  if (bytes > max_bytes_) return;   // larger than the whole byte budget
  // Byte budget first, entry cap as the secondary bound; LRU evicts first.
  while (!lru_.empty() && (bytes_ + bytes > max_bytes_ ||
                           entries_.size() >= kQueryCacheCapacity)) {
    EvictLocked(lru_.begin());
  }
  if (governor_ != nullptr) {
    // Retained answers occupy governed memory. A trip here is benign: the
    // next governed query sheds the cache, clears the trip, and retries.
    governor_->ChargeBytes(bytes);
  }
  bytes_ += bytes;
  lru_.push_back(key);
  Entry entry;
  entry.answer = std::move(answer);
  entry.bytes = bytes;
  entry.lru_it = std::prev(lru_.end());
  entries_.emplace(std::move(key), std::move(entry));
}

void QueryCache::EvictLocked(std::list<Key>::iterator it) {
  auto map_it = entries_.find(*it);
  if (map_it != entries_.end()) {
    size_t bytes = map_it->second.bytes;
    bytes_ -= std::min(bytes, bytes_);
    if (governor_ != nullptr) governor_->ReleaseBytes(bytes);
    CacheBytesEvicted()->Increment(bytes);
    CacheEvictions()->Increment();
    entries_.erase(map_it);
  }
  lru_.erase(it);
}

void QueryCache::ClearLocked() {
  if (governor_ != nullptr && bytes_ > 0) governor_->ReleaseBytes(bytes_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
}

size_t QueryCache::Shed() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t freed = bytes_;
  if (!entries_.empty()) {
    CacheBytesEvicted()->Increment(bytes_);
    CacheEvictions()->Increment(entries_.size());
  }
  ClearLocked();
  return freed;
}

size_t QueryCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t QueryCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t QueryCache::max_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_bytes_;
}

void QueryCache::set_max_bytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = bytes;
}

void QueryCache::set_governor(std::shared_ptr<ResourceBudget> governor) {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
  governor_ = std::move(governor);
}

}  // namespace vqldb
