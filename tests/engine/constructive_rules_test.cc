// THM-3: termination and semantics of constructive rules (Section 6.1) —
// the idempotent concatenation I (+) I == I and the extended active domain
// (Defs. 19-21).

#include <gtest/gtest.h>

#include "src/engine/qsqr.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"

namespace vqldb {
namespace {

Rule R(const char* text) {
  auto r = Parser::ParseRule(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

void SeedIntervals(VideoDatabase* db, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double begin = 10.0 * static_cast<double>(i);
    ASSERT_TRUE(db->CreateInterval("g" + std::to_string(i),
                                   GeneralizedInterval::Single(begin, begin + 5))
                    .ok());
  }
}

TEST(ConstructiveRulesTest, AllPairsConcatenationTerminates) {
  // The worst-case constructive program: concatenate every pair of
  // intervals, recursively. Termination follows from id canonicalization
  // (subset closure of the 3 base intervals: at most 2^3 - 1 = 7 objects).
  VideoDatabase db;
  SeedIntervals(&db, 3);
  auto eval = Evaluator::Make(
      &db, {R("cat(G1 ++ G2) <- Interval(G1), Interval(G2).")});
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok()) << fp.status();
  // Every subset of {g0, g1, g2} of size >= 1 is reachable by pairwise
  // concatenation: 3 singletons + 3 pairs + 1 triple = 7.
  EXPECT_EQ(db.AllIntervals().size(), 7u);
  EXPECT_EQ(db.derived_interval_count(), 4u);
  EXPECT_EQ(fp->FactsFor("cat").size(), 7u);
}

TEST(ConstructiveRulesTest, FixpointStableUnderReapplication) {
  VideoDatabase db;
  SeedIntervals(&db, 3);
  auto eval = Evaluator::Make(
      &db, {R("cat(G1 ++ G2) <- Interval(G1), Interval(G2).")});
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  auto again = eval->ApplyOnce(*fp);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *fp);
  EXPECT_EQ(db.derived_interval_count(), 4u);  // no new objects either
}

TEST(ConstructiveRulesTest, DerivedObjectCarriesMergedStructure) {
  VideoDatabase db;
  ObjectId o = *db.CreateEntity("o");
  ObjectId a = *db.CreateInterval("a", GeneralizedInterval::Single(0, 5));
  ObjectId b = *db.CreateInterval("b", GeneralizedInterval::Single(20, 30));
  ASSERT_TRUE(db.AddEntityToInterval(a, o).ok());
  ASSERT_TRUE(db.AddEntityToInterval(b, o).ok());
  auto eval = Evaluator::Make(
      &db, {R("joined(G1 ++ G2) <- Interval(G1), Interval(G2), Object(o), "
              "o in G1.entities, o in G2.entities, G1.duration => (t < 10).")});
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  // joined(a (+) a) = joined(a) and joined(a (+) b).
  EXPECT_EQ(fp->FactsFor("joined").size(), 2u);
  ASSERT_EQ(db.derived_interval_count(), 1u);
  ObjectId ab = db.DerivedIntervals()[0];
  IntervalSet duration = *db.DurationOf(ab);
  EXPECT_TRUE(duration.Contains(3));
  EXPECT_TRUE(duration.Contains(25));
  EXPECT_FALSE(duration.Contains(10));
  EXPECT_EQ(db.EntitiesOf(ab)->size(), 1u);
}

TEST(ConstructiveRulesTest, DerivedIntervalsVisibleToLaterRules) {
  // A derived interval created by one rule participates in Interval()
  // literals of other rules in later rounds (the dynamic extended domain of
  // Section 6: new objects join the domain as they are created).
  VideoDatabase db;
  SeedIntervals(&db, 2);
  auto eval = Evaluator::Make(
      &db, {R("cat(G1 ++ G2) <- Interval(G1), Interval(G2)."),
            R("wide(G) <- Interval(G), G.duration => (t >= 0 and t <= 15), "
              "gap(G).") ,
            R("gap(G) <- Interval(G).")});
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  // g0 = [0,5], g1 = [10,15], g0 (+) g1 = [0,5] u [10,15]; all three entail
  // (t in [0,15]) and appear in `wide`.
  EXPECT_EQ(fp->FactsFor("wide").size(), 3u);
}

TEST(ConstructiveRulesTest, ChainedConcatInHead) {
  VideoDatabase db;
  SeedIntervals(&db, 3);
  auto eval = Evaluator::Make(
      &db,
      {R("all(G1 ++ G2 ++ G3) <- Interval(G1), Interval(G2), Interval(G3), "
         "G1.duration => (t < 6), G2.duration => (t >= 10 and t < 16), "
         "G3.duration => (t >= 20).")});
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  ASSERT_EQ(fp->FactsFor("all").size(), 1u);
  ObjectId abc = fp->FactsFor("all")[0].args[0].oid_value();
  EXPECT_EQ(db.BaseIdsOf(abc)->size(), 3u);
}

TEST(ConstructiveRulesTest, ConstantConcatOperands) {
  VideoDatabase db;
  SeedIntervals(&db, 2);
  auto eval = Evaluator::Make(
      &db, {R("merged(g0 ++ g1) <- Interval(g0), Interval(g1).")});
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  ASSERT_EQ(fp->FactsFor("merged").size(), 1u);
  EXPECT_TRUE(db.IsInterval(fp->FactsFor("merged")[0].args[0].oid_value()));
}

TEST(ConstructiveRulesTest, ExtendedActiveDomainMode) {
  // Def. 21 mode: Interval(G) ranges over pairwise concatenations even when
  // no constructive rule creates them.
  VideoDatabase db;
  SeedIntervals(&db, 2);
  EvalOptions options;
  options.extended_active_domain = true;
  auto eval = Evaluator::Make(
      &db, {R("wide(G) <- Interval(G), G.duration => (t >= 0 and t <= 15), "
              "G.duration => (t >= 0).")},
      options);
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  // Without the extension only g0 and g1 qualify; with it, g0 (+) g1 also
  // answers — three facts.
  EXPECT_EQ(fp->FactsFor("wide").size(), 3u);

  // The default mode yields two.
  VideoDatabase db2;
  SeedIntervals(&db2, 2);
  auto eval2 = Evaluator::Make(
      &db2, {R("wide(G) <- Interval(G), G.duration => (t >= 0 and t <= 15), "
               "G.duration => (t >= 0).")});
  ASSERT_TRUE(eval2.ok());
  auto fp2 = eval2->Fixpoint();
  ASSERT_TRUE(fp2.ok());
  EXPECT_EQ(fp2->FactsFor("wide").size(), 2u);
}

TEST(ConstructiveRulesTest, MaxFactsGuardStopsRunaway) {
  VideoDatabase db;
  SeedIntervals(&db, 8);
  EvalOptions options;
  options.max_facts = 50;
  auto eval = Evaluator::Make(
      &db, {R("cat(G1 ++ G2) <- Interval(G1), Interval(G2).")}, options);
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  // Subset closure of 8 intervals = 255 objects > 50 facts: the guard trips.
  EXPECT_TRUE(fp.status().IsResourceExhausted());
}

TEST(ConstructiveRulesTest, NonIntervalConcatOperandSkipsValuation) {
  VideoDatabase db;
  ASSERT_TRUE(db.CreateEntity("e").ok());
  SeedIntervals(&db, 1);
  auto eval = Evaluator::Make(
      &db, {R("cat(X ++ Y) <- Anyobject(X), Anyobject(Y).")});
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok()) << fp.status();
  // Only the interval-interval pair produces a head.
  EXPECT_EQ(fp->FactsFor("cat").size(), 1u);
}

// Entities o and p, base intervals g0..g2 holding o (g1 also p), their
// concatenations, then one more base interval `late` holding both. `late`
// has the largest id, yet the object domain lists it before every derived
// interval (base intervals first, each kind in creation order).
void SeedInterleavedDomain(VideoDatabase* db) {
  ObjectId o = *db->CreateEntity("o");
  ObjectId p = *db->CreateEntity("p");
  SeedIntervals(db, 3);
  for (ObjectId g : db->BaseIntervals()) {
    ASSERT_TRUE(db->AddEntityToInterval(g, o).ok());
  }
  ASSERT_TRUE(db->AddEntityToInterval(*db->Resolve("g1"), p).ok());
  auto seed = Evaluator::Make(
      db, {R("cat(G1 ++ G2) <- Interval(G1), Interval(G2), o in G1.entities, "
             "o in G2.entities, G1 != G2.")});
  ASSERT_TRUE(seed.ok());
  ASSERT_TRUE(seed->Fixpoint().ok());
  ASSERT_GT(db->derived_interval_count(), 0u);
  ObjectId late =
      *db->CreateInterval("late", GeneralizedInterval::Single(0, 30));
  ASSERT_TRUE(db->AddEntityToInterval(late, o).ok());
  ASSERT_TRUE(db->AddEntityToInterval(late, p).ok());
}

std::vector<std::string> Render(const std::vector<Fact>& facts) {
  std::vector<std::string> out;
  for (const Fact& f : facts) out.push_back(f.ToString());
  return out;
}

TEST(ConstructiveRulesTest, NarrowedEnumerationKeepsDomainOrder) {
  // Index-narrowed class literals must visit their candidates in the order
  // the full-domain scan would, so fact insertion order and the ids of the
  // intervals a constructive head materializes do not change. Strict types
  // turn narrowing off, which gives the scan to compare against.
  const std::vector<Rule> rules = {
      R("has(G) <- Interval(G), o in G.entities."),
      R("who(O, G) <- Interval(G), Object(O), O in G.entities."),
      R("inside(G1, G2) <- Interval(G1), Interval(G2), "
        "G2.duration => G1.duration."),
      R("pair(G1 ++ G2) <- has(G1), Interval(G2), p in G2.entities, "
        "G2.duration => G1.duration."),
  };
  struct Run {
    std::vector<std::string> facts;
    std::vector<std::vector<ObjectId>> derived;  // constituents, by creation
  };
  auto fixpoint = [&](bool strict) {
    Run run;
    VideoDatabase db;
    SeedInterleavedDomain(&db);
    EvalOptions options;
    options.strict_types = strict;
    auto eval = Evaluator::Make(&db, rules, options);
    EXPECT_TRUE(eval.ok()) << eval.status();
    auto fp = eval->Fixpoint();
    EXPECT_TRUE(fp.ok()) << fp.status();
    if (!fp.ok()) return run;
    run.facts = Render(fp->AllFacts());
    for (ObjectId id : db.DerivedIntervals()) {
      run.derived.push_back(*db.BaseIdsOf(id));
    }
    return run;
  };
  Run narrowed = fixpoint(false);
  Run scanned = fixpoint(true);
  EXPECT_FALSE(narrowed.facts.empty());
  EXPECT_EQ(narrowed.facts, scanned.facts);
  EXPECT_EQ(narrowed.derived, scanned.derived);

  // QSQR's memo, whose source narrows on the goal's constants at run time.
  const std::vector<Rule> readers(rules.begin(), rules.begin() + 3);
  for (const char* goal :
       {"?- has(G).", "?- who(o, G).", "?- inside(late, G)."}) {
    auto memo = [&](bool strict) {
      VideoDatabase db;
      SeedInterleavedDomain(&db);
      EvalOptions options;
      options.strict_types = strict;
      auto query = Parser::ParseQuery(goal);
      EXPECT_TRUE(query.ok());
      auto result = QsqrEvaluator::Run(
          *query, AnalyzeGoal(query->goal, readers, options), db, options);
      EXPECT_TRUE(result.ok()) << goal;
      return result.ok() ? Render(result->memo.AllFacts())
                         : std::vector<std::string>{};
    };
    std::vector<std::string> narrowed_memo = memo(false);
    EXPECT_FALSE(narrowed_memo.empty()) << goal;
    EXPECT_EQ(narrowed_memo, memo(true)) << goal;
  }
}

}  // namespace
}  // namespace vqldb
