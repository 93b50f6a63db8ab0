// VideoDatabase: the paper's video sequence 7-tuple
//   V = (I, O, f, R, Sigma, lambda1, lambda2)            (Section 5.1)
// where
//   I  — generalized-interval objects (plus, here, the derived interval
//        objects created by the concatenation operator (+) of Section 6.1),
//   O  — semantic entity objects,
//   f  — atomic values (implicit: the Values stored in attributes/facts),
//   R  — relation facts over objects and intervals,
//   Sigma — the dense-order constraints describing interval durations,
//   lambda1 : I -> 2^O — EntitiesOf(),
//   lambda2 : I -> Sigma — DurationOf().
//
// The database also maintains the secondary structures a real video archive
// needs: a symbol table (gi1, o3, ... as in the paper's examples), an
// attribute-value index, an inverted entity->intervals index (the
// generalized-interval retrieval win of Fig. 3), and a temporal stabbing /
// overlap index over interval durations.

#ifndef VQLDB_MODEL_DATABASE_H_
#define VQLDB_MODEL_DATABASE_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/result.h"
#include "src/constraint/generalized_interval.h"
#include "src/constraint/interval_set.h"
#include "src/model/object.h"
#include "src/model/value.h"

namespace vqldb {

enum class ObjectKind : uint8_t {
  kEntity,           // member of O
  kBaseInterval,     // member of I as loaded/annotated
  kDerivedInterval,  // created by the concatenation operator (+)
};

/// One video sequence database. Not thread-safe for writers: any number of
/// threads may read one database at once, provided none mutates it and its
/// temporal index has been prepared (PrepareTemporalIndex) — the only state
/// a const call can otherwise rebuild. The snapshot layer serves each
/// committed generation that way (src/server/snapshot.h).
class VideoDatabase {
 public:
  VideoDatabase() = default;

  // Members and indexes refer to objects by id, never by pointer, so a
  // memberwise copy is an exact, independent database (same ids, symbols,
  // epoch and index contents). The copy is explicit so that a whole archive
  // is never duplicated by accident; assignment stays move-only.
  VideoDatabase(VideoDatabase&&) = default;
  VideoDatabase& operator=(VideoDatabase&&) = default;
  explicit VideoDatabase(const VideoDatabase&) = default;
  VideoDatabase& operator=(const VideoDatabase&) = delete;

  // ---------------------------------------------------------------- objects

  /// Creates a semantic entity object. `symbol` optionally binds a unique
  /// surface name (the paper's o1, o2, ...); pass "" for anonymous.
  Result<ObjectId> CreateEntity(const std::string& symbol = "");

  /// Creates a generalized-interval object with the given duration (the
  /// lambda2 value; any C~-definable point set). `symbol` as above.
  Result<ObjectId> CreateInterval(const std::string& symbol,
                                  IntervalSet duration);

  /// Convenience for the common closed-fragment case.
  Result<ObjectId> CreateInterval(const std::string& symbol,
                                  const GeneralizedInterval& extent) {
    return CreateInterval(symbol, extent.ToIntervalSet());
  }

  bool Exists(ObjectId id) const { return objects_.count(id) > 0; }
  Result<ObjectKind> KindOf(ObjectId id) const;
  bool IsEntity(ObjectId id) const;
  bool IsInterval(ObjectId id) const;  // base or derived

  /// Read access to a stored object. NotFound for unknown ids.
  Result<const VideoObject*> GetObject(ObjectId id) const;

  /// Sets attribute `name` of object `id`, maintaining all indexes. Interval
  /// objects' `duration` must stay temporal and `entities` must stay a set
  /// of known entity oids (InvalidArgument otherwise).
  Status SetAttribute(ObjectId id, const std::string& name, Value value);

  /// o.A; NotFound when undefined.
  Result<Value> GetAttribute(ObjectId id, const std::string& name) const;

  // ---------------------------------------------------------------- symbols

  /// Resolves a surface symbol (o1, gi2, ...) to its oid.
  Result<ObjectId> Resolve(const std::string& symbol) const;
  /// Reverse lookup; nullptr for anonymous objects.
  const std::string* SymbolOf(ObjectId id) const;
  /// Binds `symbol` to an existing object (AlreadyExists if taken).
  Status Bind(const std::string& symbol, ObjectId id);

  /// Human-readable name: the symbol if bound, else "id<N>".
  std::string DisplayName(ObjectId id) const;

  // ----------------------------------------------------- the 7-tuple views

  /// O — all entity oids, in creation order.
  const std::vector<ObjectId>& Entities() const { return entities_; }
  /// I — base interval oids, in creation order.
  const std::vector<ObjectId>& BaseIntervals() const { return base_intervals_; }
  /// Base plus derived interval oids.
  std::vector<ObjectId> AllIntervals() const;

  /// lambda1: the entity oids attached to interval `gi` (its `entities`
  /// attribute; empty when the attribute is absent).
  Result<std::vector<ObjectId>> EntitiesOf(ObjectId gi) const;

  /// lambda2: the duration point set of interval `gi`.
  Result<IntervalSet> DurationOf(ObjectId gi) const;

  /// Adds `entity` to lambda1(gi) (inserts into the `entities` set).
  Status AddEntityToInterval(ObjectId gi, ObjectId entity);

  // ------------------------------------------------------------------ facts

  /// R — asserts a ground relation fact. Duplicate assertions are idempotent.
  Status AssertFact(Fact fact);
  Status AssertFact(const std::string& relation, std::vector<Value> args) {
    return AssertFact(Fact{relation, std::move(args)});
  }

  bool HasFact(const Fact& fact) const;
  /// All facts of one relation, in assertion order; empty for unknown names.
  const std::vector<Fact>& FactsFor(const std::string& relation) const;
  std::vector<std::string> RelationNames() const;
  size_t fact_count() const { return fact_count_; }

  // -------------------------------------------------------- concatenation

  /// The interpreted function symbol (+) of Section 6.1. Returns the id of
  /// the concatenation of intervals `a` and `b`:
  ///   id    = f(id_a, id_b)  — canonical in the *set* of base constituents,
  ///           so (+) is associative, commutative and idempotent on ids and
  ///           I (+) I == I holds exactly;
  ///   attrs = attribute-wise union (Value::UnionWith), so duration is the
  ///           pointwise temporal union and entities the set union.
  /// The derived object is materialized on first request and cached.
  Result<ObjectId> Concatenate(ObjectId a, ObjectId b);

  /// The sorted base-interval constituents of `id` ({id} for a base
  /// interval); NotFound for non-intervals.
  Result<std::vector<ObjectId>> BaseIdsOf(ObjectId id) const;

  /// Number of derived (concatenation-created) intervals so far.
  size_t derived_interval_count() const { return derived_intervals_.size(); }
  const std::vector<ObjectId>& DerivedIntervals() const {
    return derived_intervals_;
  }

  /// Removes every derived interval materialized after the first
  /// `keep_count`, in reverse creation order, unwinding all the structures
  /// Concatenate touched (object, kind, base-id/concat-id records, attribute
  /// and entity indexes, symbol binding if any). The governed-query rollback
  /// anchor: QuerySession snapshots derived_interval_count() before an
  /// evaluation and restores it when a budget, deadline, or cancellation
  /// aborts the query, so a governed failure never leaves partial
  /// materializations behind. Safe because later derived intervals can only
  /// reference earlier objects, never the reverse.
  void RollbackDerivedIntervals(size_t keep_count);

  // ---------------------------------------------------------------- indexes

  /// All objects whose attribute `name` equals `value` (hash index).
  std::vector<ObjectId> FindByAttribute(const std::string& name,
                                        const Value& value) const;

  /// All intervals whose duration contains instant `t` (temporal stabbing
  /// query over base + derived intervals).
  std::vector<ObjectId> IntervalsContaining(double t) const;

  /// All intervals whose duration overlaps `window`.
  std::vector<ObjectId> IntervalsOverlapping(const IntervalSet& window) const;

  /// All intervals whose `entities` set contains `entity` (inverted index —
  /// the Fig. 3 single-identifier lookup).
  std::vector<ObjectId> IntervalsWithEntity(ObjectId entity) const;

  /// All intervals whose duration is the empty point set, base intervals
  /// first, each in creation order. They have no fragment in the temporal
  /// index, yet the empty set entails every constraint. Maintained with the
  /// temporal index.
  const std::vector<ObjectId>& IntervalsWithEmptyDuration() const;

  /// Rebuilds the temporal index now if a mutation dirtied it. The temporal
  /// readers above rebuild lazily, from inside const calls; a caller that
  /// is about to run such readers on several threads calls this first, so
  /// that they only read.
  void PrepareTemporalIndex() { RebuildTemporalIndexIfDirty(); }

  // -------------------------------------------------------------- integrity

  /// Full integrity check of the 7-tuple invariants: every interval has a
  /// temporal duration; every entities-member is a known entity oid; derived
  /// intervals reference existing bases; the symbol table is consistent.
  Status Validate() const;

  struct Stats {
    size_t entity_count = 0;
    size_t base_interval_count = 0;
    size_t derived_interval_count = 0;
    size_t fact_count = 0;
    size_t relation_count = 0;
  };
  Stats GetStats() const;

  /// How many times the temporal index has actually been rebuilt. Read-only
  /// query bursts must not grow this (the dirty-flag fast path); tests
  /// assert on it.
  size_t temporal_index_rebuilds() const { return temporal_rebuilds_; }

  /// Monotone mutation epoch: advances on every state change (object
  /// creation, attribute write, fact assertion, symbol binding, derived
  /// interval materialization — including journal replay, which goes
  /// through these same mutators). Pure reads never advance it. The query
  /// cache keys answers on this, so a cached answer can never outlive the
  /// database state it was computed against.
  uint64_t epoch() const { return epoch_; }

 private:
  Result<ObjectId> NewObject(const std::string& symbol, ObjectKind kind);
  Status SetAttributeUnchecked(ObjectId id, const std::string& name,
                               Value value);
  void IndexAttribute(ObjectId id, const std::string& name, const Value* old_v,
                      const Value& new_v);
  void RebuildTemporalIndexIfDirty() const;

  uint64_t next_id_ = 1;
  uint64_t epoch_ = 0;

  std::unordered_map<ObjectId, VideoObject> objects_;
  std::unordered_map<ObjectId, ObjectKind> kinds_;
  std::vector<ObjectId> entities_;
  std::vector<ObjectId> base_intervals_;
  std::vector<ObjectId> derived_intervals_;

  std::map<std::string, ObjectId> symbols_;
  std::unordered_map<ObjectId, std::string> symbol_of_;

  // Facts, per relation, with a dedup set.
  std::map<std::string, std::vector<Fact>> facts_;
  std::unordered_set<Fact> fact_set_;
  size_t fact_count_ = 0;

  // Concatenation registry: sorted base-id set -> derived (or base) oid.
  std::map<std::vector<ObjectId>, ObjectId> concat_ids_;
  std::unordered_map<ObjectId, std::vector<ObjectId>> base_ids_;

  // Attribute-value hash index.
  std::map<std::string, std::unordered_map<Value, std::vector<ObjectId>>>
      attr_index_;

  // Inverted entities index.
  std::unordered_map<ObjectId, std::vector<ObjectId>> entity_to_intervals_;

  // Temporal index: per-fragment (begin, end, oid), sorted by begin, with a
  // running prefix maximum of end for pruned stabbing queries. Rebuilt
  // lazily after duration mutations.
  struct TemporalEntry {
    double begin;
    double end;
    ObjectId id;
  };
  mutable std::vector<TemporalEntry> temporal_index_;
  mutable std::vector<double> temporal_prefix_max_end_;
  mutable std::vector<ObjectId> empty_durations_;
  mutable bool temporal_dirty_ = false;
  mutable size_t temporal_rebuilds_ = 0;
};

}  // namespace vqldb

#endif  // VQLDB_MODEL_DATABASE_H_
