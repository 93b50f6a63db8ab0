// QueryCache: the memoizing answer cache behind QuerySession::Run().
//
// An answer is keyed on the goal's shape with variables canonicalized by
// first occurrence ("?- p(a, X, X)" and "?- p(a, Y, Y)" share an entry), its
// resolved bound values, and the database epoch, rules epoch and options
// fingerprint it depends on, so an entry can never outlive the state it was
// computed against. Answers are stored dictionary-encoded and bounded twice:
// a byte budget (16 MiB by default) evicts least-recently-used entries first,
// and a 256-entry cap is the secondary bound. Retained bytes are charged to
// the installed governor, if any, until evicted.
//
// Thread-safe: one internal mutex guards the entries, so the sessions over
// one database may share a cache; the snapshot layer shares one per
// generation (src/server/snapshot.h). The rules epoch in the key is a
// per-session counter, so sessions that share a cache must hold the same
// rules, added in the same order.

#ifndef VQLDB_ENGINE_QUERY_CACHE_H_
#define VQLDB_ENGINE_QUERY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/budget.h"
#include "src/model/value.h"

namespace vqldb {

class QueryCache {
 public:
  struct Key {
    std::string predicate;
    std::string pattern;  // per argument: "c" or "v<canonical index>"
    std::vector<Value> bound_values;
    uint64_t db_epoch = 0;
    uint64_t rules_epoch = 0;
    uint64_t options_fp = 0;
    bool operator==(const Key& o) const;
  };

  QueryCache() = default;
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;
  ~QueryCache() { Clear(); }

  /// On a hit, decodes the answer rows stored under `key` into `rows`,
  /// refreshes the entry's LRU position and counts a hit; otherwise counts
  /// a miss and returns false.
  bool Lookup(const Key& key, std::vector<std::vector<Value>>* rows);
  /// Whether `key` has an entry; touches neither the LRU order nor the
  /// hit/miss counters (EXPLAIN).
  bool Contains(const Key& key) const;

  /// Stores `rows` (each of `column_count` values) under `key`, evicting LRU
  /// entries past the byte budget or the entry cap. An answer larger than
  /// the whole budget is not stored, and a racing store of a key already
  /// present keeps the first.
  void Store(Key key, const std::vector<std::vector<Value>>& rows,
             size_t column_count);

  /// Drops every entry, releasing their governor reservations.
  void Clear();
  /// Clear() that also counts the dropped entries and bytes as evictions
  /// (load shedding); returns the bytes freed.
  size_t Shed();

  size_t size() const;
  /// Bytes the cached answers occupy: per entry, its bookkeeping, 4 bytes
  /// per cell and the dictionary bytes that entry was first to intern.
  size_t bytes() const;
  size_t max_bytes() const;
  void set_max_bytes(size_t bytes);

  /// Installs the governor that retained bytes are charged to, after
  /// releasing the current entries against the previous one.
  void set_governor(std::shared_ptr<ResourceBudget> governor);

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  /// One answer, row-major term-dictionary symbol ids. Immutable once
  /// stored, so a hit decodes it outside the lock.
  struct Answer {
    std::vector<uint32_t> ids;
    size_t column_count = 0;
    size_t row_count = 0;
  };
  struct Entry {
    std::shared_ptr<const Answer> answer;
    size_t bytes = 0;
    std::list<Key>::iterator lru_it;
  };

  void ClearLocked();
  void EvictLocked(std::list<Key>::iterator it);

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<Key> lru_;  // front = least recently used
  size_t bytes_ = 0;
  size_t max_bytes_ = 16u << 20;  // 16 MiB of cached answer rows
  std::shared_ptr<ResourceBudget> governor_;
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_QUERY_CACHE_H_
