// QueryCache: the memoizing answer cache behind QuerySession::Run().
//
// An answer is keyed on the goal's shape with variables canonicalized by
// first occurrence ("?- p(a, X, X)" and "?- p(a, Y, Y)" share an entry), its
// resolved bound values, the database epoch, rules epoch and options
// fingerprint it depends on, so an entry can never outlive the state it was
// computed against, and the order its rows are rendered in. Each entry
// holds its rows rendered once, when stored, with the storing session's
// database: one line per row, as QueryResult::ToString prints them. A
// value-ordered entry (RowOrder::kValue) keeps the evaluation's row order
// and the rows' dictionary ids too, which Run() decodes back into values;
// the rendered read paths serve its text without decoding
// (QuerySession::QueryRendered). A merge-ordered entry (RowOrder::kCells)
// is what the archive scatter merges: its rows in cell-tuple order with
// adjacent equal rows dropped, and no ids, since nothing decodes it. The
// two kinds never share an entry; the materialized fixpoint is one more,
// under a key with no goal. Entries are bounded twice: a byte budget
// (16 MiB by default) evicts least-recently-used entries first, and a
// 256-entry cap is the secondary bound. An entry's bytes count its ids and
// its rendering (the fixpoint's, its rows); retained bytes are charged to
// the installed governor, if any, until evicted.
//
// Thread-safe: one internal mutex guards the entries, so the sessions over
// one database may share a cache; the snapshot layer shares one per
// generation (src/server/snapshot.h). A stored answer is immutable, so
// readers share it outside the lock. The rules epoch in the key is a
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
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/budget.h"
#include "src/model/database.h"
#include "src/model/value.h"

namespace vqldb {

class Interpretation;

/// Appends an answer header, "(N answers) [X, Y]", without its newline.
void AppendAnswerHeader(size_t rows, const std::vector<std::string>& columns,
                        std::string* out);

/// Appends `rows` one line each, as RenderedRows renders them; when
/// `cell_starts` is given, records the offset in `*out` of every cell.
void AppendAnswerRows(const std::vector<std::vector<Value>>& rows,
                      const VideoDatabase* db, std::string* out,
                      std::vector<uint32_t>* cell_starts = nullptr);

/// The order rendered rows are kept in.
enum class RowOrder : uint8_t {
  kValue,  // as evaluated: by value, as QueryResult::ToString prints them
  kCells,  // merge order: by cell tuple, adjacent equal rows dropped
};

/// Answer rows rendered into one buffer, one line per row: two spaces, the
/// cells joined by ", ", a newline. Oids print by their symbol in `db` when
/// bound; every other value prints by Value::ToString(). Cell offsets are
/// kept, so rows can be compared cell by cell and decoded back into cells.
class RenderedRows {
 public:
  RenderedRows() = default;
  /// No rows yet, of `columns` cells each (AppendRows fills it).
  explicit RenderedRows(size_t columns) : columns_(columns) {}
  /// Renders `rows`, each of `columns` values, in `order`; a null `db`
  /// prints oids by Value::ToString().
  RenderedRows(const std::vector<std::vector<Value>>& rows, size_t columns,
               const VideoDatabase* db, RowOrder order = RowOrder::kValue);

  size_t rows() const { return rows_; }
  size_t columns() const { return columns_; }
  /// Every row's line, in row order.
  const std::string& text() const { return text_; }
  std::string_view Cell(size_t row, size_t column) const;

  /// Orders row `a` of `x` against row `b` of `y` (same column count) by
  /// cell tuple: the first unequal cell decides, compared as strings, as
  /// std::vector<std::string>'s operator< does. Returns <0, 0 or >0.
  static int CompareRows(const RenderedRows& x, size_t a,
                         const RenderedRows& y, size_t b);

  /// Appends rows [begin, end) of `src` (same column count) as one byte
  /// range, shifting their cell offsets.
  void AppendRows(const RenderedRows& src, size_t begin, size_t end);
  /// Reserves room for `bytes` of text and `rows` more rows.
  void Reserve(size_t bytes, size_t rows);

  /// Heap bytes held: the text and the cell offsets.
  size_t bytes() const;

 private:
  size_t LineStart(size_t row) const;
  size_t LineEnd(size_t row) const;
  /// Puts the rows in RowOrder::kCells.
  void SortByCells();

  std::string text_;
  std::vector<uint32_t> cell_starts_;  // row-major, one per cell
  size_t rows_ = 0;
  size_t columns_ = 0;
};

class QueryCache {
 public:
  struct Key {
    std::string predicate;  // empty: the fixpoint's key
    std::string pattern;  // per argument: "c" or "v<canonical index>"
    std::vector<Value> bound_values;
    uint64_t db_epoch = 0;
    uint64_t rules_epoch = 0;
    uint64_t options_fp = 0;
    RowOrder order = RowOrder::kValue;  // of the entry's rendering
    bool operator==(const Key& o) const;
  };

  QueryCache() = default;
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;
  ~QueryCache() { Clear(); }

  /// On a hit, decodes the answer rows stored under `key` (value-ordered)
  /// into `rows`, refreshes the entry's LRU position and counts a hit;
  /// otherwise counts a miss and returns false.
  bool Lookup(const Key& key, std::vector<std::vector<Value>>* rows);
  /// Lookup() of either order that returns the stored rendering itself
  /// instead of decoding, or null on a miss. Without `count_miss`, a miss
  /// is left for the caller's next lookup to count.
  std::shared_ptr<const RenderedRows> LookupRendered(const Key& key,
                                                     bool count_miss = true);
  /// Whether `key`'s answer has an entry, in either order; touches neither
  /// the LRU order nor the hit/miss counters (EXPLAIN).
  bool Contains(Key key) const;

  /// Stores `rows` (each of `column_count` values) under `key`, rendered
  /// with `db` in the key's order, evicting LRU entries past the byte
  /// budget or the entry cap. An answer larger than the whole budget is not
  /// stored, and a racing store of a key already present keeps the first.
  /// Returns the rendering, stored or not.
  std::shared_ptr<const RenderedRows> Store(
      Key key, const std::vector<std::vector<Value>>& rows,
      size_t column_count, const VideoDatabase* db);

  /// The fixpoint under `key` (one with no goal), refreshing its LRU
  /// position, or null; counts neither a hit nor a miss, which count answers.
  std::shared_ptr<const Interpretation> LookupFixpoint(const Key& key);
  /// Stores `fixpoint` under `key` as Store() stores an answer, at its
  /// ApproxRowsBytes(), releasing its evaluation budget first: the governor
  /// is charged for it once, by the cache. Returns it, stored or not.
  std::shared_ptr<const Interpretation> StoreFixpoint(
      Key key, Interpretation fixpoint);

  /// Drops every entry, releasing their governor reservations.
  void Clear();
  /// Clear() that also counts the dropped entries and bytes as evictions
  /// (load shedding); returns the bytes freed.
  size_t Shed();

  size_t size() const;
  /// Bytes the cached answers occupy: the sum of entry_bytes() over the
  /// entries.
  size_t bytes() const;
  /// Bytes accounted to the entry under `key` (0 when absent): its
  /// bookkeeping and its rendering, and for a value-ordered entry 4 bytes
  /// per cell and the dictionary bytes that entry was first to intern.
  size_t entry_bytes(const Key& key) const;
  size_t max_bytes() const;
  void set_max_bytes(size_t bytes);

  /// Installs the governor that retained bytes are charged to, after
  /// releasing the current entries against the previous one.
  void set_governor(std::shared_ptr<ResourceBudget> governor);

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  /// One answer: its rendering and, value-ordered, its row-major
  /// term-dictionary symbol ids, shaped as the rendering's rows and columns.
  struct Answer {
    explicit Answer(RenderedRows rows) : rendered(std::move(rows)) {}
    RenderedRows rendered;
    std::vector<uint32_t> ids;
  };
  /// An answer, or under a key with no goal the fixpoint.
  struct Entry {
    std::shared_ptr<const Answer> answer;
    std::shared_ptr<const Interpretation> fixpoint;
    size_t bytes = 0;
    std::list<Key>::iterator lru_it;
  };

  /// The rendering inside `answer`, sharing its ownership.
  static std::shared_ptr<const RenderedRows> RenderedOf(
      std::shared_ptr<const Answer> answer);
  /// Files `entry` under `key` as Store() describes.
  void Insert(Key key, Entry entry);
  void ClearLocked();
  void EvictLocked(std::list<Key>::iterator it);

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<Key> lru_;  // front = least recently used
  size_t bytes_ = 0;
  size_t max_bytes_ = 16u << 20;  // 16 MiB of cached answers
  std::shared_ptr<ResourceBudget> governor_;
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_QUERY_CACHE_H_
