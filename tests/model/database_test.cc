#include "src/model/database.h"

#include <gtest/gtest.h>

namespace vqldb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  VideoDatabase db_;

  ObjectId Entity(const std::string& symbol) {
    auto r = db_.CreateEntity(symbol);
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  }
  ObjectId Interval(const std::string& symbol, double begin, double end) {
    auto r = db_.CreateInterval(symbol, GeneralizedInterval::Single(begin, end));
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  }
};

TEST_F(DatabaseTest, CreateEntityAndKind) {
  ObjectId o = Entity("o1");
  EXPECT_TRUE(db_.Exists(o));
  EXPECT_TRUE(db_.IsEntity(o));
  EXPECT_FALSE(db_.IsInterval(o));
  EXPECT_EQ(*db_.KindOf(o), ObjectKind::kEntity);
}

TEST_F(DatabaseTest, CreateIntervalHasDurationAndEntities) {
  ObjectId gi = Interval("gi1", 0, 10);
  EXPECT_TRUE(db_.IsInterval(gi));
  auto duration = db_.DurationOf(gi);
  ASSERT_TRUE(duration.ok());
  EXPECT_TRUE(duration->Contains(5));
  auto entities = db_.EntitiesOf(gi);
  ASSERT_TRUE(entities.ok());
  EXPECT_TRUE(entities->empty());
}

TEST_F(DatabaseTest, SymbolResolution) {
  ObjectId o = Entity("o1");
  EXPECT_EQ(*db_.Resolve("o1"), o);
  EXPECT_TRUE(db_.Resolve("nope").status().IsNotFound());
  EXPECT_EQ(*db_.SymbolOf(o), "o1");
  EXPECT_EQ(db_.DisplayName(o), "o1");
}

TEST_F(DatabaseTest, DuplicateSymbolRejected) {
  Entity("o1");
  EXPECT_TRUE(db_.CreateEntity("o1").status().IsAlreadyExists());
}

TEST_F(DatabaseTest, BindAnonymousObject) {
  auto r = db_.CreateEntity("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(db_.SymbolOf(*r), nullptr);
  EXPECT_EQ(db_.DisplayName(*r), r->ToString());
  ASSERT_TRUE(db_.Bind("late", *r).ok());
  EXPECT_EQ(*db_.Resolve("late"), *r);
  EXPECT_TRUE(db_.Bind("late2", *r).IsAlreadyExists());
}

TEST_F(DatabaseTest, KindOfUnknownIsNotFound) {
  EXPECT_TRUE(db_.KindOf(ObjectId{999}).status().IsNotFound());
  EXPECT_TRUE(db_.GetObject(ObjectId{999}).status().IsNotFound());
}

TEST_F(DatabaseTest, Lambda1ViaEntitiesAttribute) {
  ObjectId o1 = Entity("o1");
  ObjectId o2 = Entity("o2");
  ObjectId gi = Interval("gi1", 0, 10);
  ASSERT_TRUE(db_.AddEntityToInterval(gi, o1).ok());
  ASSERT_TRUE(db_.AddEntityToInterval(gi, o2).ok());
  ASSERT_TRUE(db_.AddEntityToInterval(gi, o1).ok());  // idempotent (set)
  auto entities = db_.EntitiesOf(gi);
  ASSERT_TRUE(entities.ok());
  EXPECT_EQ(entities->size(), 2u);
}

TEST_F(DatabaseTest, EntitiesAttributeValidated) {
  ObjectId gi = Interval("gi1", 0, 10);
  // Non-set rejected.
  EXPECT_TRUE(db_.SetAttribute(gi, kAttrEntities, Value::Int(1)).IsTypeError());
  // Set of non-entity oids rejected.
  EXPECT_TRUE(db_.SetAttribute(gi, kAttrEntities,
                               Value::Set({Value::Oid(ObjectId{777})}))
                  .IsInvalidArgument());
  // Interval oid inside entities rejected.
  ObjectId gi2 = Interval("gi2", 0, 1);
  EXPECT_TRUE(db_.SetAttribute(gi, kAttrEntities,
                               Value::Set({Value::Oid(gi2)}))
                  .IsInvalidArgument());
}

TEST_F(DatabaseTest, DurationMustStayTemporal) {
  ObjectId gi = Interval("gi1", 0, 10);
  EXPECT_TRUE(
      db_.SetAttribute(gi, kAttrDuration, Value::Int(3)).IsTypeError());
  // Entities may carry arbitrary other attributes.
  EXPECT_TRUE(db_.SetAttribute(gi, "subject", Value::String("murder")).ok());
}

TEST_F(DatabaseTest, FactsAssertAndDedup) {
  ObjectId o1 = Entity("o1");
  ObjectId gi = Interval("gi1", 0, 5);
  ASSERT_TRUE(db_.AssertFact("in", {Value::Oid(o1), Value::Oid(gi)}).ok());
  ASSERT_TRUE(db_.AssertFact("in", {Value::Oid(o1), Value::Oid(gi)}).ok());
  EXPECT_EQ(db_.fact_count(), 1u);
  EXPECT_EQ(db_.FactsFor("in").size(), 1u);
  EXPECT_TRUE(db_.HasFact(Fact{"in", {Value::Oid(o1), Value::Oid(gi)}}));
}

TEST_F(DatabaseTest, FactValidation) {
  EXPECT_TRUE(db_.AssertFact("", {}).IsInvalidArgument());
  EXPECT_TRUE(
      db_.AssertFact("r", {Value::Oid(ObjectId{42})}).IsInvalidArgument());
  EXPECT_TRUE(db_.AssertFact("r", {Value()}).IsInvalidArgument());
}

TEST_F(DatabaseTest, FactArityConsistencyEnforced) {
  ASSERT_TRUE(db_.AssertFact("r", {Value::Int(1)}).ok());
  EXPECT_TRUE(
      db_.AssertFact("r", {Value::Int(1), Value::Int(2)}).IsInvalidArgument());
}

TEST_F(DatabaseTest, RelationNames) {
  ASSERT_TRUE(db_.AssertFact("b", {Value::Int(1)}).ok());
  ASSERT_TRUE(db_.AssertFact("a", {Value::Int(1)}).ok());
  EXPECT_EQ(db_.RelationNames(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(DatabaseTest, ConcatenateCreatesDerivedInterval) {
  ObjectId a = Interval("a", 0, 5);
  ObjectId b = Interval("b", 20, 30);
  auto c = db_.Concatenate(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*db_.KindOf(*c), ObjectKind::kDerivedInterval);
  auto duration = db_.DurationOf(*c);
  ASSERT_TRUE(duration.ok());
  EXPECT_TRUE(duration->Contains(3));
  EXPECT_TRUE(duration->Contains(25));
  EXPECT_FALSE(duration->Contains(10));
}

TEST_F(DatabaseTest, ConcatenateIdempotentOnIds) {
  // Section 6.1: I (+) I == I, and f(id1, id2) is canonical in the
  // constituent set.
  ObjectId a = Interval("a", 0, 5);
  ObjectId b = Interval("b", 20, 30);
  EXPECT_EQ(*db_.Concatenate(a, a), a);
  ObjectId ab = *db_.Concatenate(a, b);
  EXPECT_EQ(*db_.Concatenate(b, a), ab);   // commutative ids
  EXPECT_EQ(*db_.Concatenate(ab, a), ab);  // absorption
  EXPECT_EQ(*db_.Concatenate(ab, ab), ab);
  EXPECT_EQ(db_.derived_interval_count(), 1u);
}

TEST_F(DatabaseTest, ConcatenateMergesAttributesPerPaper) {
  ObjectId o1 = Entity("o1");
  ObjectId o2 = Entity("o2");
  ObjectId a = Interval("a", 0, 5);
  ObjectId b = Interval("b", 20, 30);
  ASSERT_TRUE(db_.AddEntityToInterval(a, o1).ok());
  ASSERT_TRUE(db_.AddEntityToInterval(b, o2).ok());
  ASSERT_TRUE(db_.SetAttribute(a, "subject", Value::String("x")).ok());
  ASSERT_TRUE(db_.SetAttribute(b, "subject", Value::String("y")).ok());
  ASSERT_TRUE(db_.SetAttribute(a, "only_a", Value::Int(1)).ok());

  ObjectId ab = *db_.Concatenate(a, b);
  // entities: set union.
  auto entities = db_.EntitiesOf(ab);
  ASSERT_TRUE(entities.ok());
  EXPECT_EQ(entities->size(), 2u);
  // subject: distinct atoms lift to a set.
  auto subject = db_.GetAttribute(ab, "subject");
  ASSERT_TRUE(subject.ok());
  EXPECT_EQ(*subject, Value::Set({Value::String("x"), Value::String("y")}));
  // attr(e) = attr(e1) union attr(e2): one-sided attributes survive.
  EXPECT_EQ(db_.GetAttribute(ab, "only_a")->int_value(), 1);
}

TEST_F(DatabaseTest, ConcatenateRejectsEntities) {
  ObjectId o = Entity("o1");
  ObjectId gi = Interval("gi", 0, 1);
  EXPECT_TRUE(db_.Concatenate(o, gi).status().IsInvalidArgument());
}

TEST_F(DatabaseTest, BaseIdsOf) {
  ObjectId a = Interval("a", 0, 5);
  ObjectId b = Interval("b", 20, 30);
  ObjectId c = Interval("c", 50, 60);
  ObjectId ab = *db_.Concatenate(a, b);
  ObjectId abc = *db_.Concatenate(ab, c);
  EXPECT_EQ(*db_.BaseIdsOf(a), (std::vector<ObjectId>{a}));
  EXPECT_EQ(*db_.BaseIdsOf(abc), (std::vector<ObjectId>{a, b, c}));
  EXPECT_TRUE(db_.BaseIdsOf(Entity("e")).status().IsNotFound());
}

TEST_F(DatabaseTest, FindByAttribute) {
  ObjectId o1 = Entity("o1");
  ObjectId o2 = Entity("o2");
  ASSERT_TRUE(db_.SetAttribute(o1, "role", Value::String("Murderer")).ok());
  ASSERT_TRUE(db_.SetAttribute(o2, "role", Value::String("Murderer")).ok());
  auto found = db_.FindByAttribute("role", Value::String("Murderer"));
  EXPECT_EQ(found.size(), 2u);
  EXPECT_TRUE(db_.FindByAttribute("role", Value::String("Victim")).empty());
  // Overwrites move index entries.
  ASSERT_TRUE(db_.SetAttribute(o1, "role", Value::String("Victim")).ok());
  EXPECT_EQ(db_.FindByAttribute("role", Value::String("Murderer")).size(), 1u);
  EXPECT_EQ(db_.FindByAttribute("role", Value::String("Victim")).size(), 1u);
}

TEST_F(DatabaseTest, IntervalsContaining) {
  ObjectId a = Interval("a", 0, 10);
  ObjectId b = Interval("b", 5, 15);
  Interval("c", 20, 30);
  auto hits = db_.IntervalsContaining(7);
  EXPECT_EQ(hits, (std::vector<ObjectId>{a, b}));
  EXPECT_TRUE(db_.IntervalsContaining(17).empty());
}

TEST_F(DatabaseTest, IntervalsContainingRespectsOpenBounds) {
  auto gi = db_.CreateInterval(
      "open", IntervalSet({TimeInterval::Open(0, 10)}));
  ASSERT_TRUE(gi.ok());
  EXPECT_TRUE(db_.IntervalsContaining(0).empty());
  EXPECT_EQ(db_.IntervalsContaining(5).size(), 1u);
}

TEST_F(DatabaseTest, IntervalsOverlapping) {
  ObjectId a = Interval("a", 0, 10);
  Interval("b", 20, 30);
  auto hits =
      db_.IntervalsOverlapping(IntervalSet({TimeInterval::Closed(8, 12)}));
  EXPECT_EQ(hits, (std::vector<ObjectId>{a}));
  auto both =
      db_.IntervalsOverlapping(IntervalSet({TimeInterval::Closed(9, 21)}));
  EXPECT_EQ(both.size(), 2u);
}

TEST_F(DatabaseTest, IntervalsWithEntityInvertedIndex) {
  ObjectId o1 = Entity("o1");
  ObjectId a = Interval("a", 0, 10);
  ObjectId b = Interval("b", 20, 30);
  ASSERT_TRUE(db_.AddEntityToInterval(a, o1).ok());
  ASSERT_TRUE(db_.AddEntityToInterval(b, o1).ok());
  EXPECT_EQ(db_.IntervalsWithEntity(o1), (std::vector<ObjectId>{a, b}));
  // Removing via overwrite updates the index.
  ASSERT_TRUE(db_.SetAttribute(a, kAttrEntities, Value::EmptySet()).ok());
  EXPECT_EQ(db_.IntervalsWithEntity(o1), (std::vector<ObjectId>{b}));
}

TEST_F(DatabaseTest, TemporalIndexTracksDurationUpdates) {
  ObjectId a = Interval("a", 0, 10);
  EXPECT_EQ(db_.IntervalsContaining(5).size(), 1u);
  ASSERT_TRUE(db_.SetAttribute(
                     a, kAttrDuration,
                     Value::Temporal(IntervalSet({TimeInterval::Closed(100, 110)})))
                  .ok());
  EXPECT_TRUE(db_.IntervalsContaining(5).empty());
  EXPECT_EQ(db_.IntervalsContaining(105).size(), 1u);
}

TEST_F(DatabaseTest, ValidateCleanDatabase) {
  ObjectId o1 = Entity("o1");
  ObjectId gi = Interval("gi1", 0, 5);
  ASSERT_TRUE(db_.AddEntityToInterval(gi, o1).ok());
  ASSERT_TRUE(db_.Concatenate(gi, gi).ok());
  EXPECT_TRUE(db_.Validate().ok());
}

TEST_F(DatabaseTest, StatsCounts) {
  Entity("o1");
  Entity("o2");
  ObjectId a = Interval("a", 0, 5);
  ObjectId b = Interval("b", 6, 9);
  ASSERT_TRUE(db_.Concatenate(a, b).ok());
  ASSERT_TRUE(db_.AssertFact("r", {Value::Int(1)}).ok());
  VideoDatabase::Stats s = db_.GetStats();
  EXPECT_EQ(s.entity_count, 2u);
  EXPECT_EQ(s.base_interval_count, 2u);
  EXPECT_EQ(s.derived_interval_count, 1u);
  EXPECT_EQ(s.fact_count, 1u);
  EXPECT_EQ(s.relation_count, 1u);
}

TEST_F(DatabaseTest, AllIntervalsIncludesDerived) {
  ObjectId a = Interval("a", 0, 5);
  ObjectId b = Interval("b", 6, 9);
  ObjectId ab = *db_.Concatenate(a, b);
  auto all = db_.AllIntervals();
  EXPECT_EQ(all.size(), 3u);
  EXPECT_NE(std::find(all.begin(), all.end(), ab), all.end());
}

TEST_F(DatabaseTest, TemporalIndexRebuildsOncePerMutationBurst) {
  ObjectId a = Interval("a", 0, 5);
  Interval("b", 6, 9);
  // First temporal query after the mutations: exactly one rebuild.
  db_.IntervalsContaining(1.0);
  EXPECT_EQ(db_.temporal_index_rebuilds(), 1u);
  // Read-only query burst: the dirty-flag fast path, zero further rebuilds.
  for (int i = 0; i < 25; ++i) {
    db_.IntervalsContaining(static_cast<double>(i));
    db_.IntervalsOverlapping(GeneralizedInterval::Single(2, 3).ToIntervalSet());
  }
  EXPECT_EQ(db_.temporal_index_rebuilds(), 1u);
  // A duration mutation dirties the index again — one more rebuild, lazily.
  ASSERT_TRUE(db_.SetAttribute(a, kAttrDuration,
                               Value::Temporal(GeneralizedInterval::Single(
                                                   0, 7)
                                                   .ToIntervalSet()))
                  .ok());
  EXPECT_EQ(db_.temporal_index_rebuilds(), 1u);  // still lazy
  db_.IntervalsContaining(6.5);
  EXPECT_EQ(db_.temporal_index_rebuilds(), 2u);
}

TEST_F(DatabaseTest, TemporalIndexEmptyResultStaysClean) {
  // An interval whose duration denotes no instants yields an empty temporal
  // index; a query burst against it must still rebuild at most once (the
  // empty-index case used to defeat the fast path).
  ASSERT_TRUE(db_.CreateInterval("hollow", IntervalSet::Empty()).ok());
  db_.IntervalsContaining(1.0);
  size_t rebuilds = db_.temporal_index_rebuilds();
  for (int i = 0; i < 25; ++i) db_.IntervalsContaining(1.0);
  EXPECT_EQ(db_.temporal_index_rebuilds(), rebuilds);
}

TEST_F(DatabaseTest, EmptyDurationsListedBesideTheTemporalIndex) {
  ObjectId a = Interval("a", 0, 5);
  ObjectId hollow = *db_.CreateInterval("hollow", IntervalSet::Empty());
  // The empty duration has no fragment to index and overlaps nothing, so
  // only the separate list names it.
  EXPECT_EQ(db_.IntervalsOverlapping(IntervalSet::All()),
            (std::vector<ObjectId>{a}));
  EXPECT_EQ(db_.IntervalsWithEmptyDuration(), (std::vector<ObjectId>{hollow}));
  // A duration update dirties both; the next read sees the new state.
  ASSERT_TRUE(db_.SetAttribute(hollow, kAttrDuration,
                               Value::Temporal(GeneralizedInterval::Single(
                                                   1, 2)
                                                   .ToIntervalSet()))
                  .ok());
  EXPECT_TRUE(db_.IntervalsWithEmptyDuration().empty());
  EXPECT_EQ(db_.IntervalsOverlapping(IntervalSet::All()).size(), 2u);
}

TEST_F(DatabaseTest, PrepareTemporalIndexRebuildsOnlyWhenDirty) {
  Interval("a", 0, 5);
  db_.PrepareTemporalIndex();
  EXPECT_EQ(db_.temporal_index_rebuilds(), 1u);
  // Already clean: neither a second prepare nor the readers rebuild.
  db_.PrepareTemporalIndex();
  db_.IntervalsContaining(1.0);
  db_.IntervalsWithEmptyDuration();
  EXPECT_EQ(db_.temporal_index_rebuilds(), 1u);
  Interval("b", 6, 9);
  db_.PrepareTemporalIndex();
  EXPECT_EQ(db_.temporal_index_rebuilds(), 2u);
  EXPECT_EQ(db_.IntervalsContaining(7.0).size(), 1u);
}

TEST_F(DatabaseTest, TemporalQueriesOnEmptyDatabaseNeverRebuild) {
  for (int i = 0; i < 5; ++i) db_.IntervalsContaining(1.0);
  EXPECT_EQ(db_.temporal_index_rebuilds(), 0u);
}

}  // namespace
}  // namespace vqldb
