// The EXPLAIN facility: compiled plans render step order, access paths and
// constraint placement.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/engine/query.h"
#include "src/engine/rule_compiler.h"
#include "src/lang/parser.h"
#include "src/shell/repl.h"

namespace vqldb {
namespace {

std::string Explain(const VideoDatabase& db, const char* text,
                    bool reorder = false) {
  auto rule = Parser::ParseRule(text);
  EXPECT_TRUE(rule.ok()) << rule.status();
  auto compiled = RuleCompiler::Compile(*rule, db, reorder);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  return ExplainRule(*compiled);
}

TEST(ExplainTest, ShowsStepsAndConstraintPlacement) {
  VideoDatabase db;
  std::string plan = Explain(
      db,
      "contains(G1, G2) <- Interval(G1), Interval(G2), "
      "G2.duration => G1.duration.");
  EXPECT_NE(plan.find("1. enumerate Interval(G1)"), std::string::npos);
  EXPECT_NE(plan.find("2. enumerate Interval(G2)"), std::string::npos);
  EXPECT_NE(plan.find("check G2.duration => G1.duration"), std::string::npos);
  EXPECT_NE(plan.find("emit contains(G1, G2)"), std::string::npos);
  // The constraint is checked after step 2 (both variables bound).
  EXPECT_GT(plan.find("check G2.duration"), plan.find("2. enumerate"));
}

TEST(ExplainTest, ClassLiteralsNameTheirSource) {
  VideoDatabase db;
  // contains: G1 has no source and scans; G2 is narrowed by the temporal
  // index on the duration of the G1 the first step bound.
  std::string contains = Explain(
      db,
      "contains(G1, G2) <- Interval(G1), Interval(G2), "
      "G2.duration => G1.duration.");
  EXPECT_NE(contains.find("1. enumerate Interval(G1)  [scan object domain]"),
            std::string::npos)
      << contains;
  EXPECT_NE(contains.find(
                "2. enumerate Interval(G2)  [temporal index on G1.duration]"),
            std::string::npos)
      << contains;

  // appears in the standard order: Interval(G) runs before anything binds
  // O, so it scans; Object(O) then takes the members of G.entities.
  std::string appears =
      Explain(db, "appears(O, G) <- Interval(G), Object(O), O in G.entities.");
  EXPECT_NE(appears.find("1. enumerate Interval(G)  [scan object domain]"),
            std::string::npos)
      << appears;
  EXPECT_NE(appears.find("2. enumerate Object(O)  [members of G.entities]"),
            std::string::npos)
      << appears;

  // With O bound first, Interval(G) reads the Fig. 3 inverted index.
  std::string by_entity =
      Explain(db, "appears(O, G) <- Object(O), Interval(G), O in G.entities.");
  EXPECT_NE(by_entity.find("2. enumerate Interval(G)  [entity index on O]"),
            std::string::npos)
      << by_entity;
}

TEST(ExplainTest, ClassSourceInputsMayBeConstants) {
  VideoDatabase db;
  ASSERT_TRUE(db.CreateEntity("o1").ok());
  std::string plan = Explain(db, "q(G) <- Interval(G), o1 in G.entities.");
  EXPECT_NE(plan.find("1. enumerate Interval(G)  [entity index on o1]"),
            std::string::npos)
      << plan;
  std::string window = Explain(
      db, "q(G) <- Interval(G), G.duration => (t >= 0 and t <= 10).");
  EXPECT_NE(window.find("1. enumerate Interval(G)  [temporal index on ("),
            std::string::npos)
      << window;
}

TEST(ExplainTest, IndexSourcesNeedIntervalsAndLookupsComeFirst) {
  VideoDatabase db;
  ASSERT_TRUE(db.CreateEntity("o1").ok());
  // The entity and temporal indexes cover interval objects only.
  std::string object = Explain(db, "q(O) <- Object(O), o1 in O.entities.");
  EXPECT_NE(object.find("1. enumerate Object(O)  [scan object domain]"),
            std::string::npos)
      << object;
  // Both sources apply; the entity lookup is preferred to the time range,
  // whatever the written order of the constraints.
  std::string both = Explain(
      db,
      "q(G1, G2) <- Interval(G1), Object(O), O in G1.entities, Interval(G2), "
      "G2.duration => G1.duration, O in G2.entities.");
  EXPECT_NE(both.find("3. enumerate Interval(G2)  [entity index on O]"),
            std::string::npos)
      << both;
}

TEST(ExplainTest, StrictTypesScanTheObjectDomain) {
  VideoDatabase db;
  auto rule = Parser::ParseRule(
      "contains(G1, G2) <- Interval(G1), Interval(G2), "
      "G2.duration => G1.duration.");
  ASSERT_TRUE(rule.ok()) << rule.status();
  auto compiled = RuleCompiler::Compile(*rule, db, false);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::string plan = ExplainRule(*compiled, /*strict_types=*/true);
  EXPECT_NE(plan.find("2. enumerate Interval(G2)  [scan object domain]"),
            std::string::npos)
      << plan;
}

TEST(ExplainTest, IndexProbeOnBoundArgument) {
  VideoDatabase db;
  ASSERT_TRUE(db.CreateEntity("a").ok());
  std::string plan =
      Explain(db, "from_a(Y) <- edge(a, Y), edge(Y, Z).");
  // First literal: constant in argument 1 — a contiguous bound prefix, so
  // the sorted segments answer it with a merge join.
  EXPECT_NE(plan.find("match edge(id1, Y)  [merge join on argument 1]"),
            std::string::npos);
  // Second literal: Y bound by the first -> merge join on argument 1 too.
  size_t second = plan.find("match edge(Y, Z)");
  ASSERT_NE(second, std::string::npos);
  EXPECT_NE(plan.find("[merge join on argument 1]", second),
            std::string::npos);
}

TEST(ExplainTest, IndexProbeWhenBoundPositionsAreNotAPrefix) {
  VideoDatabase db;
  ASSERT_TRUE(db.CreateEntity("a").ok());
  // A bound position that is not a contiguous prefix (argument 2 only)
  // cannot take the merge path.
  std::string gap = Explain(db, "to_a(X) <- edge(X, a).");
  EXPECT_NE(gap.find("[index probe on argument 2]"), std::string::npos);
}

TEST(ExplainTest, QsqrCallsProbeTheIndexFromTheBoundHead) {
  VideoDatabase db;
  ASSERT_TRUE(db.CreateEntity("a").ok());
  auto rule = Parser::ParseRule("from_a(Y) <- edge(a, Y), edge(Y, Z).");
  ASSERT_TRUE(rule.ok()) << rule.status();
  auto compiled = RuleCompiler::Compile(*rule, db, false);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // QSQR probes its memo's hash index even on a bound prefix.
  std::string plan = ExplainRule(*compiled, false, /*qsqr_call=*/0);
  EXPECT_NE(plan.find("match edge(id1, Y)  [index probe on argument 1]"),
            std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("merge join"), std::string::npos) << plan;

  // A call binding the head's argument binds Y before the first step.
  auto hop = Parser::ParseRule("hop(X, Z) <- e(X, Y), f(Y, Z).");
  ASSERT_TRUE(hop.ok()) << hop.status();
  auto hop_compiled = RuleCompiler::Compile(*hop, db, false);
  ASSERT_TRUE(hop_compiled.ok()) << hop_compiled.status();
  std::string bottom_up = ExplainRule(*hop_compiled);
  EXPECT_NE(bottom_up.find("1. match e(X, Y)  [full scan]"), std::string::npos)
      << bottom_up;
  std::string top_down = ExplainRule(*hop_compiled, false, /*qsqr_call=*/0b01);
  EXPECT_NE(top_down.find("1. match e(X, Y)  [index probe on argument 1]"),
            std::string::npos)
      << top_down;
  EXPECT_NE(top_down.find("2. match f(Y, Z)  [index probe on argument 1]"),
            std::string::npos)
      << top_down;
}

TEST(ExplainTest, SessionRendersTheGoalBindingsQsqrRuns) {
  VideoDatabase db;
  QuerySession session(&db);
  ASSERT_TRUE(session
                  .Load("object o1 { }. e(1, 2). f(2, 3). "
                        "hop(X, Z) <- e(X, Y), f(Y, Z). "
                        "in_g(O, G) <- Interval(G), Object(O), "
                        "O in G.entities.")
                  .ok());
  auto hop = session.Explain("?- hop(1, Z).", /*analyze=*/false);
  ASSERT_TRUE(hop.ok()) << hop.status();
  EXPECT_NE(hop->find("strategy: qsqr"), std::string::npos) << *hop;
  EXPECT_NE(hop->find("1. match e(X, Y)  [index probe on argument 1]"),
            std::string::npos)
      << *hop;
  // Class-literal sources follow the same bindings: the goal's constant
  // binds O, so Interval(G) reads the entity index and Object(O) checks.
  auto in_g = session.Explain("?- in_g(o1, G).", /*analyze=*/false);
  ASSERT_TRUE(in_g.ok()) << in_g.status();
  EXPECT_NE(in_g->find("1. enumerate Interval(G)  [entity index on O]"),
            std::string::npos)
      << *in_g;
  EXPECT_NE(in_g->find("2. check Object(O)"), std::string::npos) << *in_g;
  // Forced bottom-up, nothing is bound on entry.
  session.mutable_options()->strategy = EvalStrategy::kFixpoint;
  auto fixpoint = session.Explain("?- hop(1, Z).", /*analyze=*/false);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  EXPECT_NE(fixpoint->find("1. match e(X, Y)  [full scan]"), std::string::npos)
      << *fixpoint;
  EXPECT_NE(fixpoint->find("2. match f(Y, Z)  [merge join on argument 1]"),
            std::string::npos)
      << *fixpoint;
}

// Counts occurrences of `needle` in `text`.
size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// The merge-join and hash probe counts of EXPLAIN ANALYZE's `join strategy:`
// line.
std::pair<size_t, size_t> JoinCounts(const std::string& text) {
  size_t at = text.find("join strategy: ");
  EXPECT_NE(at, std::string::npos) << text;
  unsigned long merge = 0, hash = 0;
  EXPECT_EQ(std::sscanf(text.c_str() + at,
                        "join strategy: %lu merge-join probes, %lu hash probes",
                        &merge, &hash),
            2)
      << text;
  return {merge, hash};
}

TEST(ExplainTest, AnalyzeTagsAgreeWithTheJoinCounts) {
  VideoDatabase db;
  QuerySession session(&db);
  session.set_cache_enabled(false);
  ASSERT_TRUE(session
                  .Load("object a { }. object b { }. e(a, b). e(b, a). "
                        "p(X, Y) <- e(X, Y), e(Y, X). "
                        "q(X) <- e(X, Y), e(Z, Y).")
                  .ok());
  // QSQR: the scan of e(X, Y) counts nothing; e(Y, X) probes the hash
  // index once per row of e.
  auto qsqr = session.Explain("?- p(X, Y).", /*analyze=*/true);
  ASSERT_TRUE(qsqr.ok()) << qsqr.status();
  EXPECT_NE(qsqr->find("strategy: qsqr"), std::string::npos) << *qsqr;
  EXPECT_NE(qsqr->find("1. match e(X, Y)  [full scan]"), std::string::npos)
      << *qsqr;
  EXPECT_NE(qsqr->find("2. match e(Y, X)  [index probe on arguments 1,2]"),
            std::string::npos)
      << *qsqr;
  EXPECT_EQ(Count(*qsqr, "[merge join"), 0u) << *qsqr;
  EXPECT_EQ(JoinCounts(*qsqr), std::make_pair(size_t{0}, size_t{2})) << *qsqr;

  // Forced fixpoint: every rule runs, p's bound prefix merge-joins and q's
  // non-prefix binding probes the hash index, each once per row of e.
  session.mutable_options()->strategy = EvalStrategy::kFixpoint;
  auto fixpoint = session.Explain("?- p(X, Y).", /*analyze=*/true);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  EXPECT_NE(fixpoint->find("2. match e(Y, X)  [merge join on arguments 1,2]"),
            std::string::npos)
      << *fixpoint;
  EXPECT_NE(fixpoint->find("2. match e(Z, Y)  [index probe on argument 2]"),
            std::string::npos)
      << *fixpoint;
  EXPECT_EQ(Count(*fixpoint, "[merge join"), 1u) << *fixpoint;
  EXPECT_EQ(Count(*fixpoint, "[index probe"), 1u) << *fixpoint;
  EXPECT_EQ(JoinCounts(*fixpoint), std::make_pair(size_t{2}, size_t{2}))
      << *fixpoint;
}

TEST(ExplainTest, FullScanWhenNothingBound) {
  VideoDatabase db;
  std::string plan = Explain(db, "pairs(X, Y) <- edge(X, Y).");
  EXPECT_NE(plan.find("[full scan]"), std::string::npos);
}

TEST(ExplainTest, GroundConstraintsAsPreChecks) {
  VideoDatabase db;
  std::string plan = Explain(db, "q(X) <- p(X), 1 < 2.");
  EXPECT_NE(plan.find("pre-check 1 < 2"), std::string::npos);
}

TEST(ExplainTest, ConstructiveHeadMarksMaterialization) {
  VideoDatabase db;
  std::string plan = Explain(
      db, "cat(G1 ++ G2) <- Interval(G1), Interval(G2).");
  EXPECT_NE(plan.find("G1 ++ G2  [materialize derived interval]"),
            std::string::npos);
}

TEST(ExplainTest, ReorderChangesThePlan) {
  VideoDatabase db;
  const char* rule = "pick(G) <- Interval(G), featured(G).";
  std::string written = Explain(db, rule, /*reorder=*/false);
  std::string reordered = Explain(db, rule, /*reorder=*/true);
  EXPECT_LT(written.find("Interval(G)"), written.find("featured"));
  EXPECT_LT(reordered.find("featured"), reordered.find("Interval(G)"));
  // After reordering, Interval(G) is a bound check, not an enumeration.
  EXPECT_NE(reordered.find("check Interval(G)"), std::string::npos);
}

TEST(ExplainTest, ShellExplainCommand) {
  VideoDatabase db;
  Repl repl(&db);
  std::string out = repl.Execute(
      ".explain q(G) <- Interval(G), o1 in G.entities.");
  // o1 is unknown in an empty database: a clean error, not a crash.
  EXPECT_NE(out.find("error:"), std::string::npos);
  repl.Execute("object o1 {}.");
  out = repl.Execute(".explain q(G) <- Interval(G), o1 in G.entities.");
  EXPECT_NE(out.find("enumerate Interval(G)  [entity index on o1]"),
            std::string::npos);
  EXPECT_NE(out.find("check o1 in G.entities"), std::string::npos);
}

}  // namespace
}  // namespace vqldb
