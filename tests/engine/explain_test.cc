// The EXPLAIN facility: compiled plans render step order, access paths and
// constraint placement.

#include <gtest/gtest.h>

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
  std::string plan = ExplainRule(*compiled, /*merge_join_enabled=*/true,
                                 /*strict_types=*/true);
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

TEST(ExplainTest, HashProbeWhenMergeJoinsDisabledOrNonPrefix) {
  VideoDatabase db;
  ASSERT_TRUE(db.CreateEntity("a").ok());
  // Same plan with merge joins off: the hash index probe is reported.
  auto rule = Parser::ParseRule("from_a(Y) <- edge(a, Y), edge(Y, Z).");
  ASSERT_TRUE(rule.ok()) << rule.status();
  auto compiled = RuleCompiler::Compile(*rule, db, false);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::string plan = ExplainRule(*compiled, /*merge_join_enabled=*/false);
  EXPECT_NE(plan.find("match edge(id1, Y)  [index probe on argument 1]"),
            std::string::npos);
  // A bound position that is not a contiguous prefix (argument 2 only)
  // cannot take the merge path even with merge joins on.
  std::string gap = Explain(db, "to_a(X) <- edge(X, a).");
  EXPECT_NE(gap.find("[index probe on argument 2]"), std::string::npos);
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
