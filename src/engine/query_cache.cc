#include "src/engine/query_cache.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/engine/interpretation.h"
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

void AppendAnswerHeader(size_t rows, const std::vector<std::string>& columns,
                        std::string* out) {
  out->push_back('(');
  out->append(std::to_string(rows));
  out->append(rows == 1 ? " answer)" : " answers)");
  if (columns.empty()) return;
  out->append(" [");
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i) out->append(", ");
    out->append(columns[i]);
  }
  out->push_back(']');
}

void AppendAnswerRows(const std::vector<std::vector<Value>>& rows,
                      const VideoDatabase* db, std::string* out,
                      std::vector<uint32_t>* cell_starts) {
  for (const auto& row : rows) {
    out->append("  ");
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out->append(", ");
      if (cell_starts != nullptr) {
        cell_starts->push_back(static_cast<uint32_t>(out->size()));
      }
      const Value& v = row[i];
      const std::string* symbol =
          db != nullptr && v.is_oid() ? db->SymbolOf(v.oid_value()) : nullptr;
      if (symbol != nullptr) {
        out->append(*symbol);
      } else {
        out->append(v.ToString());
      }
    }
    out->push_back('\n');
  }
}

// ------------------------------------------------------------ RenderedRows

RenderedRows::RenderedRows(const std::vector<std::vector<Value>>& rows,
                           size_t columns, const VideoDatabase* db,
                           RowOrder order)
    : rows_(rows.size()), columns_(columns) {
  cell_starts_.reserve(rows.size() * columns);
  text_.reserve(rows.size() * (3 + columns * 10));
  AppendAnswerRows(rows, db, &text_, &cell_starts_);
  VQLDB_DCHECK(cell_starts_.size() == rows_ * columns_);
  if (order == RowOrder::kCells) SortByCells();
  // Held for as long as its answer is cached: keep no slack.
  text_.shrink_to_fit();
}

void RenderedRows::SortByCells() {
  std::vector<uint32_t> order(rows_);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareRows(*this, a, *this, b) < 0;
  });
  RenderedRows sorted(columns_);
  sorted.Reserve(text_.size(), rows_);
  for (uint32_t row : order) {
    if (sorted.rows_ == 0 ||
        CompareRows(*this, row, sorted, sorted.rows_ - 1) != 0) {
      sorted.AppendRows(*this, row, row + 1);
    }
  }
  *this = std::move(sorted);
}

size_t RenderedRows::LineStart(size_t row) const {
  // A zero-column row is just "  \n".
  return columns_ == 0 ? 3 * row : cell_starts_[row * columns_] - 2;
}

size_t RenderedRows::LineEnd(size_t row) const {
  return row + 1 < rows_ ? LineStart(row + 1) : text_.size();
}

std::string_view RenderedRows::Cell(size_t row, size_t column) const {
  const size_t i = row * columns_ + column;
  const size_t start = cell_starts_[i];
  // A cell ends before the ", " that follows it, or before the newline.
  const size_t end =
      column + 1 < columns_ ? cell_starts_[i + 1] - 2 : LineEnd(row) - 1;
  return std::string_view(text_).substr(start, end - start);
}

int RenderedRows::CompareRows(const RenderedRows& x, size_t a,
                              const RenderedRows& y, size_t b) {
  for (size_t c = 0; c < x.columns_; ++c) {
    const int cmp = x.Cell(a, c).compare(y.Cell(b, c));
    if (cmp != 0) return cmp;
  }
  return 0;
}

void RenderedRows::AppendRows(const RenderedRows& src, size_t begin,
                              size_t end) {
  VQLDB_DCHECK(src.columns_ == columns_ && begin <= end && end <= src.rows_);
  if (begin == end) return;
  // A cell at offset `start` of `src` lands at to + (start - from).
  const size_t from = src.LineStart(begin);
  const size_t to = text_.size();
  text_.append(src.text_, from, src.LineEnd(end - 1) - from);
  VQLDB_DCHECK(text_.size() <= UINT32_MAX);
  for (size_t i = begin * columns_; i < end * columns_; ++i) {
    cell_starts_.push_back(
        static_cast<uint32_t>(to + (src.cell_starts_[i] - from)));
  }
  rows_ += end - begin;
}

void RenderedRows::Reserve(size_t bytes, size_t rows) {
  text_.reserve(text_.size() + bytes);
  cell_starts_.reserve(cell_starts_.size() + rows * columns_);
}

size_t RenderedRows::bytes() const {
  return text_.capacity() + cell_starts_.capacity() * sizeof(uint32_t);
}

// -------------------------------------------------------------- QueryCache

bool QueryCache::Key::operator==(const Key& o) const {
  return db_epoch == o.db_epoch && rules_epoch == o.rules_epoch &&
         options_fp == o.options_fp && order == o.order &&
         predicate == o.predicate && pattern == o.pattern &&
         bound_values == o.bound_values;
}

size_t QueryCache::KeyHash::operator()(const Key& k) const {
  size_t seed = std::hash<std::string>{}(k.predicate);
  HashCombineValue(&seed, k.pattern);
  HashCombine(&seed, static_cast<size_t>(k.db_epoch));
  HashCombine(&seed, static_cast<size_t>(k.rules_epoch));
  HashCombine(&seed, static_cast<size_t>(k.options_fp));
  HashCombine(&seed, static_cast<size_t>(k.order));
  for (const Value& v : k.bound_values) HashCombineValue(&seed, v);
  return seed;
}

bool QueryCache::Lookup(const Key& key, std::vector<std::vector<Value>>* rows) {
  VQLDB_DCHECK(key.order == RowOrder::kValue);
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
  const size_t row_count = answer->rendered.rows();
  const size_t column_count = answer->rendered.columns();
  rows->reserve(row_count);
  const uint32_t* id = answer->ids.data();
  for (size_t r = 0; r < row_count; ++r) {
    std::vector<Value> row;
    row.reserve(column_count);
    for (size_t c = 0; c < column_count; ++c) {
      row.push_back(dict.Get(*id++));
    }
    rows->push_back(std::move(row));
  }
  return true;
}

std::shared_ptr<const RenderedRows> QueryCache::LookupRendered(
    const Key& key, bool count_miss) {
  std::shared_ptr<const Answer> answer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (count_miss) CacheMisses()->Increment();
      return nullptr;
    }
    CacheHits()->Increment();
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    answer = it->second.answer;
  }
  return RenderedOf(std::move(answer));
}

bool QueryCache::Contains(Key key) const {
  std::lock_guard<std::mutex> lock(mu_);
  key.order = RowOrder::kValue;
  if (entries_.count(key) > 0) return true;
  key.order = RowOrder::kCells;
  return entries_.count(key) > 0;
}

std::shared_ptr<const RenderedRows> QueryCache::Store(
    Key key, const std::vector<std::vector<Value>>& rows, size_t column_count,
    const VideoDatabase* db) {
  // Render once, from the rows just computed, with the storing session's
  // database: the key's epochs pin the symbols the oids print by.
  auto answer = std::make_shared<Answer>(
      RenderedRows(rows, column_count, db, key.order));
  size_t dict_added = 0;
  if (key.order == RowOrder::kValue) {
    // Dictionary-encode the answer for Lookup(): 4 bytes per cell plus
    // whatever the dictionary grew by interning values this cache was first
    // to see. Values flowing out of a fixpoint are already interned, so the
    // amortization term is usually zero; charging it here keeps the
    // accounting exact either way.
    TermDict& dict = TermDict::Global();
    answer->ids.reserve(rows.size() * column_count);
    for (const auto& row : rows) {
      for (const Value& v : row) {
        TermDict::Interned in = dict.Intern(v);
        answer->ids.push_back(in.id);
        dict_added += in.added_bytes;
      }
    }
  }
  const size_t bytes = sizeof(Entry) + sizeof(Answer) +
                       answer->ids.size() * sizeof(uint32_t) + dict_added +
                       answer->rendered.bytes();
  Insert(std::move(key), Entry{answer, nullptr, bytes, {}});
  // Stored or not, the caller gets its own rendering.
  return RenderedOf(std::move(answer));
}

std::shared_ptr<const Interpretation> QueryCache::LookupFixpoint(
    const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.end(), lru_, it->second.lru_it);
  return it->second.fixpoint;
}

std::shared_ptr<const Interpretation> QueryCache::StoreFixpoint(
    Key key, Interpretation fixpoint) {
  fixpoint.set_budget(nullptr);
  auto stored = std::make_shared<const Interpretation>(std::move(fixpoint));
  Insert(std::move(key),
         Entry{nullptr, stored, stored->ApproxRowsBytes(), {}});
  return stored;
}

void QueryCache::Insert(Key key, Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  // A racing identical store keeps the first; an entry larger than the
  // whole byte budget is not stored.
  if (entries_.count(key) || entry.bytes > max_bytes_) return;
  // Byte budget first, entry cap as the secondary bound; LRU evicts first.
  while (!lru_.empty() && (bytes_ + entry.bytes > max_bytes_ ||
                           entries_.size() >= kQueryCacheCapacity)) {
    EvictLocked(lru_.begin());
  }
  if (governor_ != nullptr) {
    // Retained entries occupy governed memory. A trip here is benign: the
    // next governed query sheds the cache, clears the trip, and retries.
    governor_->ChargeBytes(entry.bytes);
  }
  bytes_ += entry.bytes;
  lru_.push_back(key);
  entry.lru_it = std::prev(lru_.end());
  entries_.emplace(std::move(key), std::move(entry));
}

std::shared_ptr<const RenderedRows> QueryCache::RenderedOf(
    std::shared_ptr<const Answer> answer) {
  const RenderedRows* rendered = &answer->rendered;
  return std::shared_ptr<const RenderedRows>(std::move(answer), rendered);
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

size_t QueryCache::entry_bytes(const Key& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.bytes;
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
