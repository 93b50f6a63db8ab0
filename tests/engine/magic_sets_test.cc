// Magic-set rewriting: structure of the rewritten program, answer
// equivalence with full materialization on hand-written programs, and the
// goal-analysis decline conditions that fall back to the full fixpoint.

#include <gtest/gtest.h>

#include <string>

#include "src/engine/magic.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"

namespace vqldb {
namespace {

class MagicSetsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<QuerySession>(&db_);
    // This suite asserts on magic-specific exec info (strategy, adornment,
    // derived-fact counts), so pin the strategy rather than letting the
    // kAuto default pick QSQR for non-recursive goals.
    session_->mutable_options()->strategy = EvalStrategy::kMagic;
    std::string program;
    // A 12-node edge chain c0 -> c1 -> ... -> c11 plus transitive closure.
    for (int i = 0; i < 12; ++i) {
      program += "object c" + std::to_string(i) + " {}.\n";
    }
    for (int i = 0; i + 1 < 12; ++i) {
      program += "edge(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
                 ").\n";
    }
    program +=
        "path(X, Y) <- edge(X, Y).\n"
        "path(X, Z) <- path(X, Y), edge(Y, Z).\n"
        "noise(X, Y) <- edge(Y, X).\n";
    ASSERT_TRUE(session_->Load(program).ok());
  }

  GoalAnalysis Analyze(const std::string& query_text) {
    auto q = Parser::ParseQuery(query_text);
    EXPECT_TRUE(q.ok()) << q.status();
    return AnalyzeGoal(q->goal, session_->rules(), session_->options());
  }

  Result<MagicRewrite> Rewrite(const std::string& query_text) {
    auto q = Parser::ParseQuery(query_text);
    VQLDB_RETURN_NOT_OK(q.status());
    return MagicSetRewriter::Rewrite(*q, Analyze(query_text), db_,
                                     session_->options());
  }

  void ForceFixpoint() {
    session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
  }

  VideoDatabase db_;
  std::unique_ptr<QuerySession> session_;
};

TEST_F(MagicSetsTest, RewriteStructureForBoundFirstArgument) {
  auto rw = Rewrite("?- path(c0, Y).");
  ASSERT_TRUE(rw.ok()) << rw.status();
  EXPECT_EQ(rw->adornment, "bf");
  ASSERT_EQ(rw->seed_facts.size(), 1u);
  EXPECT_EQ(rw->seed_facts[0].relation, "m#path#bf");
  ASSERT_EQ(rw->seed_facts[0].args.size(), 1u);
  EXPECT_EQ(rw->seed_facts[0].args[0], Value::Oid(*db_.Resolve("c0")));
  EXPECT_GT(rw->magic_rule_count, 0u);
  EXPECT_GT(rw->guarded_rule_count, 0u);
  // Guarded copies keep their original head predicate and lead with the
  // demand guard; the noise cone is excluded entirely.
  bool saw_guarded_path = false;
  for (const Rule& rule : rw->rules) {
    EXPECT_NE(rule.head.predicate, "noise");
    if (rule.head.predicate == "path") {
      ASSERT_FALSE(rule.body.empty());
      EXPECT_EQ(rule.body[0].predicate, "m#path#bf");
      saw_guarded_path = true;
    }
  }
  EXPECT_TRUE(saw_guarded_path);
}

TEST_F(MagicSetsTest, BoundSecondArgumentAdornment) {
  auto rw = Rewrite("?- path(X, c3).");
  ASSERT_TRUE(rw.ok()) << rw.status();
  EXPECT_EQ(rw->adornment, "fb");
  ASSERT_EQ(rw->seed_facts.size(), 1u);
  EXPECT_EQ(rw->seed_facts[0].relation, "m#path#fb");
}

TEST_F(MagicSetsTest, AllFreeGoalHasNoSeedsOrGuards) {
  auto rw = Rewrite("?- path(X, Y).");
  ASSERT_TRUE(rw.ok()) << rw.status();
  EXPECT_EQ(rw->adornment, "ff");
  EXPECT_TRUE(rw->seed_facts.empty());
  EXPECT_EQ(rw->guarded_rule_count, 0u);
  // The rewrite degenerates to the dependency cone.
  EXPECT_EQ(rw->rules.size(), 2u);
}

TEST_F(MagicSetsTest, EdbGoalNeedsNoProgram) {
  auto rw = Rewrite("?- edge(c0, Y).");
  ASSERT_TRUE(rw.ok()) << rw.status();
  EXPECT_TRUE(rw->rules.empty());
}

TEST_F(MagicSetsTest, AnswersMatchFullMaterialization) {
  const char* goals[] = {
      "?- path(c0, Y).",  "?- path(c8, Y).", "?- path(X, c3).",
      "?- path(c2, c5).", "?- path(X, X).",  "?- path(X, Y).",
      "?- edge(c0, Y).",  "?- noise(X, c0).",
  };
  for (const char* goal : goals) {
    session_->set_cache_enabled(false);
    session_->mutable_options()->strategy = EvalStrategy::kMagic;
    auto magic = session_->Query(goal);
    ASSERT_TRUE(magic.ok()) << goal << ": " << magic.status();
    ForceFixpoint();
    auto full = session_->Query(goal);
    ASSERT_TRUE(full.ok()) << goal << ": " << full.status();
    EXPECT_EQ(magic->rows, full->rows) << goal;
    EXPECT_EQ(magic->columns, full->columns) << goal;
  }
}

TEST_F(MagicSetsTest, SelectiveGoalDerivesFewerFacts) {
  session_->set_cache_enabled(false);
  auto magic = session_->Query("?- path(c9, Y).");
  ASSERT_TRUE(magic.ok());
  EXPECT_EQ(session_->last_exec_info().strategy, "magic");
  size_t magic_derived = session_->last_stats().derived_facts;

  ForceFixpoint();
  auto full = session_->Query("?- path(c9, Y).");
  ASSERT_TRUE(full.ok());
  size_t full_derived = session_->last_stats().derived_facts;

  EXPECT_EQ(magic->rows, full->rows);
  // From c9 only two path facts exist; the full fixpoint derives the whole
  // transitive closure plus the noise cone.
  EXPECT_LT(magic_derived, full_derived / 4);
}

TEST_F(MagicSetsTest, BuiltinClassGoalDeclines) {
  GoalAnalysis goal = Analyze("?- Interval(G).");
  EXPECT_NE(goal.decline_reason.find("builtin"), std::string::npos);
  EXPECT_FALSE(Rewrite("?- Interval(G).").ok());
}

TEST_F(MagicSetsTest, ExtendedActiveDomainDeclines) {
  session_->mutable_options()->extended_active_domain = true;
  GoalAnalysis goal = Analyze("?- path(c0, Y).");
  EXPECT_NE(goal.decline_reason.find("extended active domain"),
            std::string::npos);
  EXPECT_FALSE(Rewrite("?- path(c0, Y).").ok());
}

TEST_F(MagicSetsTest, ConstructiveConeDeclines) {
  ASSERT_TRUE(session_
                  ->Load("interval gi1 { duration: (t > 0 and t < 5) }.\n"
                         "interval gi2 { duration: (t > 5 and t < 9) }.\n"
                         "seg(gi1). seg(gi2).\n"
                         "combo(G1 ++ G2) <- seg(G1), seg(G2).\n")
                  .ok());
  GoalAnalysis goal = Analyze("?- combo(G).");
  EXPECT_NE(goal.decline_reason.find("constructive"), std::string::npos);
  // The fallback still answers correctly (and identically with magic off).
  session_->set_cache_enabled(false);
  auto a = session_->Query("?- combo(G).");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(session_->last_exec_info().strategy, "fixpoint");
  ForceFixpoint();
  auto b = session_->Query("?- combo(G).");
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->rows, b->rows);
}

TEST_F(MagicSetsTest, BuiltinLiteralWithConstructiveRulesDeclines) {
  // The queried cone itself is pure, but it enumerates Interval(G) while a
  // constructive rule elsewhere can extend that domain mid-fixpoint.
  ASSERT_TRUE(session_
                  ->Load("interval gi1 { duration: (t > 0 and t < 5) }.\n"
                         "interval gi2 { duration: (t > 5 and t < 9) }.\n"
                         "seg(gi1). seg(gi2).\n"
                         "combo(G1 ++ G2) <- seg(G1), seg(G2).\n"
                         "wide(G) <- Interval(G), G.duration => (t > 0).\n")
                  .ok());
  GoalAnalysis goal = Analyze("?- wide(G).");
  EXPECT_NE(goal.decline_reason.find("builtin"), std::string::npos);
  // Equivalence via fallback: the derived combo interval must appear.
  session_->set_cache_enabled(false);
  auto a = session_->Query("?- wide(G).");
  ASSERT_TRUE(a.ok()) << a.status();
  ForceFixpoint();
  auto b = session_->Query("?- wide(G).");
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->rows, b->rows);
  EXPECT_EQ(a->rows.size(), 3u);  // gi1, gi2, gi1 (+) gi2
}

TEST_F(MagicSetsTest, UnresolvableGoalConstantErrorsBothWays) {
  session_->set_cache_enabled(false);
  auto magic = session_->Query("?- path(nosuch, Y).");
  EXPECT_FALSE(magic.ok());
  ForceFixpoint();
  auto full = session_->Query("?- path(nosuch, Y).");
  EXPECT_FALSE(full.ok());
}

TEST_F(MagicSetsTest, ExecInfoReportsDispatch) {
  session_->set_cache_enabled(false);
  ASSERT_TRUE(session_->Query("?- path(c0, Y).").ok());
  const QueryExecInfo& info = session_->last_exec_info();
  EXPECT_EQ(info.strategy, "magic");
  EXPECT_FALSE(info.cache_hit);
  EXPECT_EQ(info.adornment, "bf");
  EXPECT_GT(info.magic_rule_count, 0u);

  ForceFixpoint();
  ASSERT_TRUE(session_->Query("?- path(c0, Y).").ok());
  EXPECT_EQ(session_->last_exec_info().strategy, "fixpoint");
}

TEST_F(MagicSetsTest, ExplainShowsMagicStatusAndDemandRules) {
  auto on = session_->Explain("?- path(c0, Y).", /*analyze=*/false);
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_NE(on->find("magic: on"), std::string::npos);
  EXPECT_NE(on->find("m#path#bf"), std::string::npos);
  EXPECT_NE(on->find("query cache:"), std::string::npos);

  ForceFixpoint();
  auto off = session_->Explain("?- path(c0, Y).", /*analyze=*/false);
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_NE(off->find("strategy: fixpoint (forced)"), std::string::npos);
  EXPECT_EQ(off->find("magic: on"), std::string::npos);
  EXPECT_EQ(off->find("m#path#bf"), std::string::npos);
}

TEST_F(MagicSetsTest, ExplainAnalyzeRunsRewrittenProgram) {
  auto text = session_->Explain("?- path(c9, Y).", /*analyze=*/true);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("magic: on"), std::string::npos);
  EXPECT_NE(text->find("stats:"), std::string::npos);
  // Both reachable targets from c9 appear in the answer rendering.
  EXPECT_NE(text->find("(2 answers)"), std::string::npos);
}

TEST_F(MagicSetsTest, ParallelMagicMatchesSerial) {
  session_->set_cache_enabled(false);
  session_->mutable_options()->num_threads = 1;
  auto serial = session_->Query("?- path(c2, Y).");
  ASSERT_TRUE(serial.ok());
  session_->mutable_options()->num_threads = 8;
  auto parallel = session_->Query("?- path(c2, Y).");
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->rows, parallel->rows);
}

}  // namespace
}  // namespace vqldb
