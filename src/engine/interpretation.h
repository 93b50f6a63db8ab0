// Interpretation: a set of ground atoms (Section 6.3.2 — "an interpretation
// of a program is any subset of all ground atomic formulas built from
// predicate symbols in the language and elements in D"), stored per
// predicate as dictionary-encoded columnar rows: every ground term is
// interned into the global TermDict, a relation holds rows of 32-bit symbol
// ids in insertion order, and Freeze() seals the mutable tail into immutable
// sorted segments (src/engine/columnar.h) that answer the evaluator's
// bound-prefix probes by binary search. Segments are shared_ptr-refcounted,
// so Freeze/Thaw generations and interpretation copies share them. Every
// other bound probe goes through a lazily built multi-column hash index,
// which also serves QSQR, whose memo grows between probes.

#ifndef VQLDB_ENGINE_INTERPRETATION_H_
#define VQLDB_ENGINE_INTERPRETATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/budget.h"
#include "src/common/hash.h"
#include "src/engine/columnar.h"
#include "src/model/object.h"
#include "src/model/term_dict.h"
#include "src/model/value.h"

namespace vqldb {

/// A mutable, indexed set of ground facts. Insertion order is preserved per
/// predicate (useful for deterministic output); membership is hash-based
/// over symbol-id rows.
class Interpretation {
  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const {
      size_t seed = key.size();
      for (const Value& v : key) HashCombineValue(&seed, v);
      return seed;
    }
  };

  struct MultiIndex {
    std::unordered_map<std::vector<Value>, std::vector<size_t>, KeyHash> map;
    size_t upto = 0;  // rows indexed so far
  };

  struct PredicateStore {
    // Insertion-order, dictionary-encoded row storage: row r's symbol ids
    // occupy ids[starts[r] .. starts[r+1]). Mixed arities are allowed (the
    // Interpretation API never enforced a per-predicate arity).
    std::vector<uint32_t> ids;
    std::vector<uint32_t> starts{0};
    // Open-addressed membership table of row positions + 1 (0 = empty).
    std::vector<uint32_t> slots;
    // Immutable sorted runs per arity; rows [0, sealed_rows) live in runs.
    // Sealed by Freeze(), compacted by k-way merge when runs accumulate.
    mutable std::map<uint32_t, std::vector<std::shared_ptr<const Segment>>>
        runs;
    mutable size_t sealed_rows = 0;
    // bound-position bitmap -> multi-column hash index; extended lazily.
    mutable std::map<uint64_t, MultiIndex> multi_index;
    // Lazily decoded Fact views for FactsFor() (compatibility surface);
    // append-only, so earlier entries stay put until the vector regrows —
    // exactly the legacy facts-vector behavior.
    mutable std::vector<Fact> decoded;

    size_t rows() const { return starts.size() - 1; }
  };

 public:
  /// A borrowed view of one stored row: `arity` symbol ids, resolvable to
  /// canonical Values through TermDict::Global().Get(). Valid until the next
  /// Add() of the owning predicate (same contract as LookupMulti references).
  struct RowRef {
    const uint32_t* ids = nullptr;
    uint32_t arity = 0;
  };

  /// A borrowed view of one predicate's row storage (possibly absent).
  class RelationView {
   public:
    RelationView() = default;
    bool valid() const { return store_ != nullptr; }
    size_t rows() const { return store_ == nullptr ? 0 : store_->rows(); }
    RowRef row(size_t pos) const {
      uint32_t begin = store_->starts[pos];
      return RowRef{store_->ids.data() + begin,
                    store_->starts[pos + 1] - begin};
    }
    /// Positions of rows (ascending, i.e. insertion order) of exactly
    /// `arity` whose first `key_len` symbol ids equal `key`: binary search
    /// over the sealed sorted runs plus a linear scan of the unsealed tail —
    /// the merge-join access path. key_len and arity must be >= 1.
    /// Memoizes the store's per-arity segment list on first use, so repeated
    /// probes through one view (the evaluator keeps a view per rule step)
    /// skip the runs-map walk. The memo assumes no sealing happens while
    /// the view is held — true for rule evaluation, which runs strictly
    /// between seals.
    void ProbeSorted(const uint32_t* key, uint32_t key_len, uint32_t arity,
                     std::vector<size_t>* out) const;

   private:
    friend class Interpretation;
    explicit RelationView(const PredicateStore* s) : store_(s) {}
    const PredicateStore* store_ = nullptr;
    mutable const std::vector<std::shared_ptr<const Segment>>* segs_ = nullptr;
    mutable uint32_t segs_arity_ = 0;  // 0 = memo unset (probes pass >= 1)
  };

  Interpretation() = default;
  ~Interpretation() { ReleaseAccounted(); }

  // Budget accounting survives copies and moves: a copy re-charges its own
  // bytes, a move transfers the reservation, and destruction releases it.
  Interpretation(const Interpretation& other);
  Interpretation& operator=(const Interpretation& other);
  Interpretation(Interpretation&& other) noexcept;
  Interpretation& operator=(Interpretation&& other) noexcept;

  /// Meters every subsequent (and every already-inserted) fact against
  /// `budget`: the columnar row bytes (ids, offsets, membership) plus — for
  /// Add() — whatever the term dictionary newly allocated interning the
  /// row's values, so the first row that mentions a term pays for the term.
  /// The budget must outlive this interpretation (the engine passes the
  /// owning shared_ptr). Passing nullptr releases the current reservation.
  void set_budget(std::shared_ptr<ResourceBudget> budget);
  ResourceBudget* budget() const { return budget_.get(); }

  /// Bytes currently reserved against the budget for stored rows.
  size_t accounted_bytes() const { return accounted_bytes_; }

  /// Adds a fact (interning its values); returns true iff it was not already
  /// present. Fatal when the interpretation is frozen (see Freeze) — the
  /// insert-while-iterating guard for code holding LookupMulti references.
  bool Add(Fact fact);

  /// Adds an already-encoded row (symbol ids are process-global, so rows
  /// borrowed from another Interpretation insert directly — the id-level
  /// merge path of the fixpoint engine). Returns true iff new.
  bool AddRow(const std::string& predicate, RowRef row);

  bool Contains(const Fact& fact) const;

  /// All facts of `predicate` in insertion order (empty for unknown names).
  /// Decodes rows through the term dictionary lazily on first access; the
  /// engine's hot paths use Relation()/RowRef views instead and never pay
  /// for the decoded copies. Not safe to call concurrently with other const
  /// methods (lazy decode mutates a cache) — same caveat the lazy hash
  /// indexes always had.
  const std::vector<Fact>& FactsFor(const std::string& predicate) const;

  /// Row count of `predicate` (0 for unknown names). Never decodes.
  size_t CountFor(const std::string& predicate) const;

  /// Borrowed row view of `predicate`'s store (invalid view if absent).
  RelationView Relation(const std::string& predicate) const;

  /// Visits every row as (predicate, RowRef), grouped by predicate (sorted
  /// name order), insertion order within — the id-level AllFacts().
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (const auto& [name, store] : stores_) {
      for (size_t r = 0, n = store.rows(); r < n; ++r) {
        uint32_t begin = store.starts[r];
        fn(name, RowRef{store.ids.data() + begin, store.starts[r + 1] - begin});
      }
    }
  }

  /// Multi-column probe: positions of facts of `predicate` whose argument at
  /// every set bit of `mask` (bit i = argument position i) equals the
  /// corresponding element of `key` (key holds the bound values in ascending
  /// position order; key.size() == popcount(mask)). Builds/extends the
  /// per-mask hash index lazily. `mask` must be non-zero: a literal with
  /// nothing bound scans the relation instead. Argument positions >= 64
  /// cannot be expressed in the bitmap, so facts of arity > 64 are indexed
  /// by their first 64 positions only — exact for every representable mask.
  ///
  /// Reference validity contract: the returned reference is stable until
  /// the next Add() of a fact of the same predicate — a later probe then
  /// extends the lazily built index, which may grow the very vector the
  /// reference designates and invalidate any iteration in flight. Callers
  /// that interleave Add with iteration must either copy the candidate list
  /// first or re-probe after every Add (the re-probe always returns the
  /// complete, current candidate set). Use Freeze() to turn a violation into
  /// an immediate fatal error instead of silent undefined behavior;
  /// generation() detects intervening mutation.
  const std::vector<size_t>& LookupMulti(const std::string& predicate,
                                         uint64_t mask,
                                         const std::vector<Value>& key) const;

  /// Builds the `(predicate, mask)` multi-column index over all current
  /// facts. After this call, LookupMulti with the same arguments performs no
  /// mutation until facts are added — which makes concurrent LookupMulti
  /// probes from the parallel fixpoint engine safe on an otherwise immutable
  /// Interpretation.
  void PrepareIndex(const std::string& predicate, uint64_t mask) const;

  /// Freezes the fact set: any subsequent Add() is a fatal programming
  /// error until Thaw(). The evaluator freezes the round's shared `full` and
  /// `delta` interpretations while tasks iterate index references, so an
  /// insert-while-iterating regression dies loudly at the mutation site
  /// instead of corrupting an iteration. Lazy hash-index extension stays
  /// allowed (it never moves existing row or bucket storage the caller
  /// could hold).
  void Freeze() const { frozen_ = true; }
  void Thaw() const { frozen_ = false; }
  bool frozen() const { return frozen_; }

  /// Sorts and seals every store's unsealed tail into immutable segments,
  /// merging runs when a store has accumulated more than a handful. The
  /// evaluator seals the round's shared interpretations (when some step can
  /// take a merge join) right after freezing them, so ProbeSorted answers by
  /// binary search instead of a tail scan. Idempotent until the next Add().
  void SealSegments() const;

  /// Mutation counter: incremented by every successful Add(). Callers that
  /// must hold a LookupMulti reference across unrelated code can
  /// snapshot this and re-probe when it changed.
  uint64_t generation() const { return generation_; }

  /// All predicate names with at least one fact, sorted.
  std::vector<std::string> Predicates() const;

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Set inclusion (for the fixpoint/monotonicity property tests).
  bool SubsetOf(const Interpretation& other) const;
  bool operator==(const Interpretation& other) const {
    return total_ == other.total_ && SubsetOf(other);
  }

  /// Every fact, grouped by predicate (sorted), insertion order within.
  std::vector<Fact> AllFacts() const;

  std::string ToString() const;

  /// Resident-byte estimates of the columnar representation and of the
  /// row-store-of-boxed-Values representation it replaced, for the storage
  /// line of EXPLAIN ANALYZE and the bytes/tuple benchmark gates.
  struct StorageStats {
    size_t rows = 0;
    size_t sealed_rows = 0;
    size_t segments = 0;
    size_t columnar_bytes = 0;   // ids + offsets + membership + segments
    size_t row_store_bytes = 0;  // sum of legacy Fact::ApproxBytes estimates
  };
  StorageStats ComputeStorageStats() const;

  /// Per-relation storage breakdown — the single source the self-observation
  /// layer reads: both the sys_relations virtual relation and the
  /// per-relation EXPLAIN ANALYZE storage lines are built from this, so the
  /// two can never disagree. Sorted by predicate (store order).
  struct RelationStats {
    std::string predicate;
    uint32_t arity = 0;       // arity of the store's first row
    size_t rows = 0;          // total rows (sealed + delta tail)
    size_t sealed_rows = 0;   // rows inside immutable sorted segments
    size_t segments = 0;      // sealed segment (run) count
    size_t bytes = 0;         // resident columnar bytes of this store
  };
  std::vector<RelationStats> PerRelationStats() const;

  /// Marks this interpretation as feeding the statistics collector: every
  /// subsequently inserted row's dictionary ids are recorded into the
  /// per-column HyperLogLog sketches (obs::StatsCollector::Global()). The
  /// evaluator sets this on the fixpoint-merge interpretation only — the
  /// single-threaded coordinator path — so recording never contends with
  /// worker tasks. Sketch updates are idempotent, so re-deriving the same
  /// rows across queries cannot skew the estimates.
  void set_observed(bool observed) { observed_ = observed; }
  bool observed() const { return observed_; }

  /// The columnar resident bytes alone (StorageStats::columnar_bytes).
  size_t ApproxRowsBytes() const;

  /// Order-independent digest of `predicate`'s sealed segments (arity, row
  /// content and source positions of every run, in run order). Equal across
  /// evaluations iff sealing produced identical runs — the determinism
  /// anchor for the seal/merge tests. 0 for unknown predicates.
  uint64_t SealedDigest(const std::string& predicate) const;

 private:
  static const std::vector<size_t>& EmptyIndex();

  static void ExtendMultiIndex(const PredicateStore& store, uint64_t mask,
                               MultiIndex* mi);
  static void SealStore(const PredicateStore& store);

  // Membership helpers (open addressing, linear probing).
  static size_t HashRow(const uint32_t* row, uint32_t arity);
  // Slot index holding `row`, or the empty slot where it would insert.
  size_t FindSlot(const PredicateStore& store, const uint32_t* row,
                  uint32_t arity, size_t hash) const;
  void GrowSlots(PredicateStore* store);
  // Shared tail of Add/AddRow: membership-checked append of an encoded row;
  // `dict_bytes` is what interning newly allocated (0 for AddRow).
  bool InsertRow(const std::string& predicate, const uint32_t* row,
                 uint32_t arity, size_t dict_bytes);

  // Budget charge for one stored row of `arity` ids: both id copies
  // (insertion order + sealed column), the start offset, the membership
  // slots at design load, and the sorted run's source-position entry.
  static size_t RowBytes(uint32_t arity) {
    return 16 + 8 * size_t{arity};
  }

  void ReleaseAccounted();
  void ChargeAccounted();

  std::map<std::string, PredicateStore> stores_;
  size_t total_ = 0;
  uint64_t generation_ = 0;
  mutable bool frozen_ = false;
  bool observed_ = false;
  std::shared_ptr<ResourceBudget> budget_;
  size_t accounted_bytes_ = 0;
  std::vector<uint32_t> scratch_;  // Add() row-encoding buffer, not copied
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_INTERPRETATION_H_
