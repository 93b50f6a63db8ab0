// Columnar relation segments. A Segment is an immutable, sorted,
// column-major run of dictionary-encoded rows: the unit of sharing between
// Freeze/Thaw generations (shared_ptr-refcounted, never mutated after
// construction) and the substrate for the bottom-up evaluator's merge
// joins, which binary-search a literal's bound prefix. Rows inside a segment
// are sorted lexicographically by symbol id — an arbitrary but consistent
// total order, which is all an equi-join needs.

#ifndef VQLDB_ENGINE_COLUMNAR_H_
#define VQLDB_ENGINE_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace vqldb {

/// One immutable sorted run of a relation. `cols` is column-major
/// (cols[c * rows + r]); `src[r]` maps sorted position r back to the row's
/// insertion-order position in the owning store, so probe results share
/// the position space of the hash index and of scans.
struct Segment {
  uint32_t arity = 0;
  uint32_t rows = 0;
  std::vector<uint32_t> cols;  // arity * rows, column-major
  std::vector<uint32_t> src;   // sorted pos -> insertion-order position
  // First-column run directory (CSR-style): head_vals holds the distinct
  // column-0 values in ascending order; run k occupies sorted positions
  // [head_starts[k], head_starts[k+1]). Probes narrow on this small
  // contiguous array (distinct values, not rows) before touching the full
  // column, which keeps the first — and usually most selective — binary
  // search inside a few cache lines.
  std::vector<uint32_t> head_vals;
  std::vector<uint32_t> head_starts;

  uint32_t at(uint32_t col, uint32_t row) const {
    return cols[size_t{col} * rows + row];
  }

  size_t ApproxBytes() const {
    return sizeof(Segment) +
           (cols.capacity() + src.capacity() + head_vals.capacity() +
            head_starts.capacity()) *
               4;
  }

  /// Lexicographic compare of sorted row `row` against `key` (first
  /// key_len columns). Returns <0, 0, >0.
  int CompareRowPrefix(uint32_t row, const uint32_t* key,
                       uint32_t key_len) const;

  /// The half-open range of sorted positions whose first key_len columns
  /// equal `key`, restricted to [lo_hint, rows). Binary search, O(k log n).
  std::pair<uint32_t, uint32_t> EqualRange(const uint32_t* key,
                                           uint32_t key_len,
                                           uint32_t lo_hint = 0) const;

  /// Builds a sorted segment from `n` row-major rows (ids[r*arity + c]),
  /// where src0[r] is row r's insertion-order position. Deterministic: ties
  /// cannot occur (rows are deduplicated upstream).
  static std::shared_ptr<const Segment> Build(const uint32_t* ids,
                                              const uint32_t* src0, size_t n,
                                              uint32_t arity);

  /// Merges sorted runs into one sorted segment (compaction). All runs must
  /// share `arity`; rows are globally distinct, so the merge is a plain
  /// deterministic k-way merge by row content.
  static std::shared_ptr<const Segment> Merge(
      const std::vector<std::shared_ptr<const Segment>>& runs);
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_COLUMNAR_H_
