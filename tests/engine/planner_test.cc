// Strategy choice and body ordering: EvalStrategy::kAuto dispatches by the
// goal's cone shape (declined -> fixpoint, sys_* -> magic sets, recursive
// -> magic sets, else QSQR), EXPLAIN names the same choice, and
// sys_plan_choices counts it; the planner's cardinality estimates from
// stored EDB counts and collector sketches order rule bodies.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/logging.h"
#include "src/engine/goal_analysis.h"
#include "src/engine/planner.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/obs/stats.h"

namespace vqldb {
namespace {

std::vector<Rule> ParseRules(std::initializer_list<const char*> texts) {
  std::vector<Rule> rules;
  for (const char* text : texts) {
    auto r = Parser::ParseRule(text);
    EXPECT_TRUE(r.ok()) << r.status();
    rules.push_back(*r);
  }
  return rules;
}

// A chain c0 -> ... -> c(n-1) with edge facts.
std::unique_ptr<VideoDatabase> ChainDb(size_t n) {
  auto db = std::make_unique<VideoDatabase>();
  std::vector<ObjectId> nodes;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(*db->CreateEntity("c" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    VQLDB_CHECK_OK(db->AssertFact(
        "edge", {Value::Oid(nodes[i]), Value::Oid(nodes[i + 1])}));
  }
  return db;
}

TEST(PlannerTest, EstimateRowsUsesExactEdbCounts) {
  auto db = ChainDb(40);
  Planner planner(db.get(), obs::StatsSnapshot{});
  EXPECT_DOUBLE_EQ(planner.EstimateRows("edge"), 39.0);
  // Unknown predicate with no sketches: cold-start default.
  EXPECT_DOUBLE_EQ(planner.EstimateRows("nosuch"), Planner::kDefaultRows);
}

TEST(PlannerTest, EstimateCandidatesShrinksWithBoundColumns) {
  auto db = ChainDb(40);
  Planner planner(db.get(), obs::StatsSnapshot{});
  double all_free = planner.EstimateCandidates("edge", 0, 2);
  double bound_first = planner.EstimateCandidates("edge", 1, 2);
  EXPECT_GT(all_free, bound_first);
  EXPECT_GE(bound_first, 1.0 / 64);
}

TEST(PlannerTest, ObservedSelectivityOverridesDerivedEstimate) {
  auto db = ChainDb(10);
  obs::StatsSnapshot snapshot;
  snapshot.selectivity.push_back(obs::SelectivityView{
      "edge", "bf", /*probes=*/100, /*candidates=*/50, /*ewma=*/0.5});
  Planner planner(db.get(), std::move(snapshot));
  // 9 rows * 0.5 observed selectivity.
  EXPECT_NEAR(planner.EstimateCandidates("edge", 1, 2), 4.5, 1e-9);
}

const char* kPathRules =
    "path(X, Y) <- edge(X, Y).\n"
    "path(X, Z) <- path(X, Y), edge(Y, Z).\n";

// ChooseStrategy for `goal_text` under `requested`.
StrategyChoice ChooseFor(const char* goal_text,
                         const std::vector<Rule>& rules,
                         EvalStrategy requested = EvalStrategy::kAuto,
                         EvalOptions options = {}) {
  auto query = Parser::ParseQuery(goal_text);
  VQLDB_CHECK(query.ok()) << query.status();
  return ChooseStrategy(requested, AnalyzeGoal(query->goal, rules, options),
                        /*sys_goal=*/false);
}

TEST(PlannerTest, BoundGoalPrefersGoalDirected) {
  auto rules = ParseRules({"path(X, Y) <- edge(X, Y).",
                           "path(X, Z) <- path(X, Y), edge(Y, Z).",
                           "hop2(X, Z) <- edge(X, Y), edge(Y, Z)."});
  StrategyChoice path = ChooseFor("?- path(c3, Y).", rules);
  EXPECT_EQ(path.strategy, EvalStrategy::kMagic);
  EXPECT_EQ(path.reason, "recursive cone");
  StrategyChoice hop2 = ChooseFor("?- hop2(c3, Y).", rules);
  EXPECT_EQ(hop2.strategy, EvalStrategy::kQsqr);
  EXPECT_EQ(hop2.reason, "non-recursive cone");
}

TEST(PlannerTest, FreeGoalWithWholeProgramConeGoesBottomUp) {
  // No goal constants and a recursive cone spanning every rule: QSQR would
  // repeat whole passes; magic sets run the cone's semi-naive fixpoint.
  auto rules = ParseRules({"path(X, Y) <- edge(X, Y).",
                           "path(X, Z) <- path(X, Y), edge(Y, Z)."});
  EXPECT_EQ(ChooseFor("?- path(X, Y).", rules).strategy,
            EvalStrategy::kMagic);
}

TEST(PlannerTest, UnavailableStrategiesAreNeverChosen) {
  // A declined goal runs the fixpoint under every strategy; a forced
  // strategy names itself before the fallback.
  auto rules = ParseRules({"path(X, Y) <- edge(X, Y)."});
  EvalOptions extended;
  extended.extended_active_domain = true;
  for (EvalStrategy requested : {EvalStrategy::kAuto, EvalStrategy::kQsqr,
                                 EvalStrategy::kMagic}) {
    StrategyChoice choice =
        ChooseFor("?- path(c3, Y).", rules, requested, extended);
    EXPECT_EQ(choice.strategy, EvalStrategy::kFixpoint);
    EXPECT_NE(choice.reason.find("declined: extended active domain"),
              std::string::npos)
        << choice.reason;
  }
  EXPECT_EQ(ChooseFor("?- path(c3, Y).", rules, EvalStrategy::kQsqr,
                      extended)
                .reason.find("forced qsqr; "),
            0u);
}

TEST(PlannerTest, AutoPicksGoalDirectedForBoundGoalEndToEnd) {
  auto db = ChainDb(60);
  QuerySession session(db.get());
  session.set_cache_enabled(false);
  ASSERT_TRUE(session.Load(kPathRules).ok());
  ASSERT_EQ(session.options().strategy, EvalStrategy::kAuto);
  auto bound = session.Query("?- path(c50, Y).");
  ASSERT_TRUE(bound.ok()) << bound.status();
  const QueryExecInfo& info = session.last_exec_info();
  EXPECT_EQ(info.strategy, "magic");
  EXPECT_EQ(info.plan_reason, "recursive cone");
  EXPECT_EQ(bound->rows.size(), 9u);
}

TEST(PlannerTest, AutoRecordsPlanChoicesIntoSysRelation) {
  auto db = ChainDb(20);
  QuerySession session(db.get());
  session.set_cache_enabled(false);
  ASSERT_TRUE(session.Load("path(X, Y) <- edge(X, Y).\n").ok());
  obs::StatsCollector::Global().Reset();
  ASSERT_TRUE(session.Query("?- path(c3, Y).").ok());
  auto snap = obs::StatsCollector::Global().Snapshot();
  bool saw = false;
  for (const auto& pc : snap.plan_choices) {
    if (pc.fingerprint == "path(?, $0)") {
      saw = true;
      EXPECT_GE(pc.count, 1u);
      EXPECT_FALSE(pc.strategy.empty());
    }
  }
  EXPECT_TRUE(saw);
  // And the sys_plan_choices relation surfaces the same rows.
  auto rows = session.Query("?- sys_plan_choices(F, S, C).");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_FALSE(rows->rows.empty());
}

TEST(PlannerTest, AutoDispatchFollowsTheConeRule) {
  auto db = ChainDb(20);
  QuerySession session(db.get());
  session.set_cache_enabled(false);
  ASSERT_TRUE(session.Load(kPathRules).ok());
  ASSERT_TRUE(session
                  .Load("interval gi1 { duration: (t > 0 and t < 5) }.\n"
                        "interval gi2 { duration: (t > 5 and t < 9) }.\n"
                        "seg(gi1). seg(gi2).\n"
                        "combo(G1 ++ G2) <- seg(G1), seg(G2).\n"
                        "hop2(X, Z) <- edge(X, Y), edge(Y, Z).\n")
                  .ok());
  const struct {
    const char* goal;
    const char* strategy;
  } cases[] = {
      {"?- path(X, c3).", "magic"},                   // recursive cone
      {"?- hop2(X, Z).", "qsqr"},                     // free, non-recursive
      {"?- edge(c3, Y).", "qsqr"},                    // stored only
      {"?- combo(G).", "fixpoint"},                   // constructive: declined
      {"?- sys_relations(P, A, R, B, S).", "magic"},  // observes sys_*
  };
  for (const auto& c : cases) {
    auto result = session.Query(c.goal);
    ASSERT_TRUE(result.ok()) << c.goal << ": " << result.status();
    EXPECT_EQ(session.last_exec_info().strategy, c.strategy) << c.goal;
  }
}

TEST(PlannerTest, ExplainShowsAutoChoiceWithItsReason) {
  auto db = ChainDb(20);
  QuerySession session(db.get());
  ASSERT_TRUE(session.Load("path(X, Y) <- edge(X, Y).\n").ok());
  auto text = session.Explain("?- path(c3, Y).", /*analyze=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("strategy: qsqr (non-recursive cone)"),
            std::string::npos)
      << *text;
  // A forced strategy is marked forced.
  session.mutable_options()->strategy = EvalStrategy::kFixpoint;
  auto forced = session.Explain("?- path(c3, Y).", /*analyze=*/false);
  ASSERT_TRUE(forced.ok()) << forced.status();
  EXPECT_NE(forced->find("strategy: fixpoint (forced"), std::string::npos)
      << *forced;
}

TEST(PlannerTest, OrderBodyPutsSelectiveLiteralFirst) {
  // tagged/1 has one fact, edge/2 has many: the selectivity order starts
  // from tagged even though it is written last.
  auto db = ChainDb(50);
  VQLDB_CHECK_OK(db->AssertFact("tagged", {Value::Oid(*db->Resolve("c7"))}));
  Planner planner(db.get(), obs::StatsSnapshot{});
  EvalOptions options;
  options.reorder_body = true;
  options.body_orderer = &planner;
  auto eval = Evaluator::Make(
      db.get(), ParseRules({"hit(X, Y) <- edge(X, Y), tagged(Y)."}),
      options);
  ASSERT_TRUE(eval.ok()) << eval.status();
  const CompiledRule& compiled = eval->compiled_rules()[0];
  ASSERT_EQ(compiled.steps.size(), 2u);
  EXPECT_EQ(compiled.steps[0].literal.predicate, "tagged");
  EXPECT_EQ(compiled.steps[1].literal.predicate, "edge");
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->FactsFor("hit").size(), 1u);
}

}  // namespace
}  // namespace vqldb
