// Goal-directed evaluation: the goal analysis keeps only the goal's
// dependency cone, and the strategies that evaluate it (QSQR, magic sets)
// give the full fixpoint's answers while firing fewer rules.

#include <gtest/gtest.h>

#include "src/engine/goal_analysis.h"
#include "src/engine/query.h"

namespace vqldb {
namespace {

class GoalDirectedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<QuerySession>(&db_);
    ASSERT_TRUE(session_->Load(R"(
      object a {}.
      object b {}.
      object c {}.
      edge(a, b).
      edge(b, c).

      // Cone of `reach`.
      reach(X, Y) <- edge(X, Y).
      reach(X, Z) <- reach(X, Y), edge(Y, Z).

      // Expensive unrelated cone (cross product chains).
      noise0(X, Y) <- edge(X, Y).
      noise1(X, Y) <- noise0(X, Z), noise0(W, Y).
      noise2(X, Y) <- noise1(X, Z), noise1(W, Y).

      // A cone that depends on reach.
      sym(X, Y) <- reach(Y, X).
    )")
                    .ok());
  }

  GoalAnalysis Analyze(const char* predicate) {
    Atom goal;
    goal.predicate = predicate;
    return AnalyzeGoal(goal, session_->rules(), session_->options());
  }

  VideoDatabase db_;
  std::unique_ptr<QuerySession> session_;
};

TEST_F(GoalDirectedTest, SameAnswersAsFullMaterialization) {
  auto directed = session_->Query("?- reach(X, Y).");
  ASSERT_TRUE(directed.ok());
  session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
  session_->set_cache_enabled(false);
  auto full = session_->Query("?- reach(X, Y).");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->rows, directed->rows);
  EXPECT_EQ(full->columns, directed->columns);
}

TEST_F(GoalDirectedTest, PrunesUnrelatedCones) {
  GoalAnalysis reach = Analyze("reach");
  // Only the two reach rules (edge facts live in the EDB).
  EXPECT_EQ(reach.cone.size(), 2u);
  for (const Rule& rule : reach.cone) {
    EXPECT_EQ(rule.head.predicate, "reach");
  }
  EXPECT_TRUE(reach.recursive);
  session_->set_cache_enabled(false);
  auto directed = session_->Query("?- reach(X, Y).");
  ASSERT_TRUE(directed.ok());
  EXPECT_EQ(session_->last_exec_info().strategy, "magic");
  size_t directed_firings = session_->last_stats().rule_firings;
  session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
  auto full = session_->Query("?- reach(X, Y).");
  ASSERT_TRUE(full.ok());
  size_t full_firings = session_->last_stats().rule_firings;
  EXPECT_LT(directed_firings, full_firings);
}

TEST_F(GoalDirectedTest, TransitiveConeIncluded) {
  // sym depends on reach: 1 + 2 rules.
  GoalAnalysis sym = Analyze("sym");
  EXPECT_EQ(sym.cone.size(), 3u);
  EXPECT_TRUE(sym.recursive);
  auto directed = session_->Query("?- sym(X, Y).");
  ASSERT_TRUE(directed.ok());
  EXPECT_EQ(directed->rows.size(), 3u);  // ba, ca, cb
}

TEST_F(GoalDirectedTest, EdbGoalNeedsNoRules) {
  GoalAnalysis edge = Analyze("edge");
  EXPECT_TRUE(edge.cone.empty());
  EXPECT_FALSE(edge.recursive);
  EXPECT_FALSE(edge.declined());
  auto directed = session_->Query("?- edge(X, Y).");
  ASSERT_TRUE(directed.ok());
  EXPECT_EQ(session_->last_exec_info().strategy, "qsqr");
  EXPECT_EQ(directed->rows.size(), 2u);
}

TEST_F(GoalDirectedTest, ConstantFiltersStillApply) {
  ObjectId a = *db_.Resolve("a");
  auto directed = session_->Query("?- reach(a, Y).");
  ASSERT_TRUE(directed.ok());
  EXPECT_EQ(directed->rows.size(), 2u);  // b and c
  for (const auto& row : directed->rows) {
    EXPECT_NE(row[0].oid_value(), a);
  }
}

TEST_F(GoalDirectedTest, UnknownPredicateYieldsEmpty) {
  EXPECT_TRUE(Analyze("nothing").cone.empty());
  auto directed = session_->Query("?- nothing(X).");
  ASSERT_TRUE(directed.ok());
  EXPECT_TRUE(directed->rows.empty());
}

}  // namespace
}  // namespace vqldb
