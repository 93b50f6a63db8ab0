// The QSQR top-down evaluator: answer correctness on recursive programs,
// goal-directed pruning (bound goals derive far fewer facts than the full
// fixpoint), one pass on non-recursive cones, loading only the stored goal
// rows a goal's constants match, termination on cyclic data, and the
// goal-analysis decline conditions it shares with the magic-set rewriter.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "src/engine/qsqr.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/obs/stats.h"

namespace vqldb {
namespace {

class QsqrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<QuerySession>(&db_);
    session_->mutable_options()->strategy = EvalStrategy::kQsqr;
    session_->set_cache_enabled(false);
    std::string program;
    // A 12-node edge chain c0 -> c1 -> ... -> c11 plus transitive closure
    // and a never-queried noise cone.
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

  Result<QsqrResult> RunDirect(const std::string& query_text) {
    auto q = Parser::ParseQuery(query_text);
    VQLDB_RETURN_NOT_OK(q.status());
    return QsqrEvaluator::Run(*q, Analyze(query_text), db_,
                              session_->options());
  }

  // Answers `goal` through the session with forced QSQR, then with the
  // forced fixpoint, and expects the same rows.
  void ExpectFixpointAnswers(const std::string& goal) {
    session_->mutable_options()->strategy = EvalStrategy::kQsqr;
    auto qsqr = session_->Query(goal);
    ASSERT_TRUE(qsqr.ok()) << goal << ": " << qsqr.status();
    EXPECT_EQ(session_->last_exec_info().strategy, "qsqr") << goal;
    session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
    auto full = session_->Query(goal);
    session_->mutable_options()->strategy = EvalStrategy::kQsqr;
    ASSERT_TRUE(full.ok()) << goal << ": " << full.status();
    EXPECT_EQ(qsqr->rows, full->rows) << goal;
    EXPECT_EQ(qsqr->columns, full->columns) << goal;
  }

  // The fact pred(a, b) over two object symbols.
  Fact Pair(const std::string& pred, const std::string& a,
            const std::string& b) {
    return Fact{pred,
                {Value::Oid(*db_.Resolve(a)), Value::Oid(*db_.Resolve(b))}};
  }

  VideoDatabase db_;
  std::unique_ptr<QuerySession> session_;
};

TEST_F(QsqrTest, AnswersMatchFullMaterialization) {
  const char* goals[] = {
      "?- path(c0, Y).",  "?- path(c8, Y).", "?- path(X, c3).",
      "?- path(c2, c5).", "?- path(X, X).",  "?- path(X, Y).",
      "?- edge(c0, Y).",  "?- noise(X, c0).",
  };
  for (const char* goal : goals) ExpectFixpointAnswers(goal);
}

TEST_F(QsqrTest, NonRecursiveConesRunOnePass) {
  // odd/even are mutually recursive (odd- and even-length edge paths).
  // cast's body calls has with G bound by Interval(G) to an interval no
  // relation holds yet, so the call must still key and probe on G exactly.
  // It comes first: any evaluation that derives a has row puts the
  // intervals in the term dictionary and hides a wrong key.
  ASSERT_TRUE(session_
                  ->Load("odd(X, Y) <- edge(X, Y).\n"
                         "even(X, Z) <- odd(X, Y), edge(Y, Z).\n"
                         "odd(X, Z) <- even(X, Y), edge(Y, Z).\n"
                         "interval g1 { duration: (t > 0 and t < 5), "
                         "entities: {c1} }.\n"
                         "interval g2 { duration: (t > 5 and t < 9), "
                         "entities: {c2} }.\n"
                         "has(G, O) <- Interval(G), Object(O), "
                         "O in G.entities.\n"
                         "cast(G) <- Interval(G), has(G, O).\n")
                  .ok());
  const struct {
    const char* goal;
    bool recursive;
  } cases[] = {
      {"?- cast(G).", false},      {"?- noise(X, c0).", false},
      {"?- edge(c0, Y).", false},  {"?- path(c0, Y).", true},
      {"?- odd(c0, Y).", true},
  };
  for (const auto& c : cases) {
    ExpectFixpointAnswers(c.goal);
    auto qr = RunDirect(c.goal);
    ASSERT_TRUE(qr.ok()) << c.goal << ": " << qr.status();
    EXPECT_EQ(Analyze(c.goal).recursive, c.recursive) << c.goal;
    if (c.recursive) {
      EXPECT_GE(qr->stats.iterations, 2u) << c.goal;
    } else {
      EXPECT_EQ(qr->stats.iterations, 1u) << c.goal;
    }
  }
}

TEST_F(QsqrTest, StoredGoalRowsLoadFilteredByConstants) {
  // A stored-only goal: of the 11 edge rows only edge(c0, c1) loads.
  auto edge = RunDirect("?- edge(c0, Y).");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->memo.CountFor("edge"), 1u);
  ExpectFixpointAnswers("?- edge(c0, Y).");

  // A goal both stored and derived, with no body naming it: the stored row
  // matching the goal loads and answers beside the derived noise(c1, c0);
  // the other stored row does not load.
  ASSERT_TRUE(session_->Load("noise(c5, c0).\nnoise(c3, c7).\n").ok());
  auto noise = RunDirect("?- noise(X, c0).");
  ASSERT_TRUE(noise.ok()) << noise.status();
  EXPECT_TRUE(noise->memo.Contains(Pair("noise", "c5", "c0")));
  EXPECT_FALSE(noise->memo.Contains(Pair("noise", "c3", "c7")));
  EXPECT_EQ(noise->memo.CountFor("noise"), 2u);
  ExpectFixpointAnswers("?- noise(X, c0).");

  // A recursive goal probes its own relation under other patterns, so
  // every stored row loads: path(c11, c5) does not match the goal's
  // constant, yet it extends to the answer path(c11, c7).
  ASSERT_TRUE(session_->Load("path(c0, c11).\npath(c11, c5).\n").ok());
  auto path = RunDirect("?- path(X, c7).");
  ASSERT_TRUE(path.ok()) << path.status();
  EXPECT_TRUE(path->memo.Contains(Pair("path", "c0", "c11")));
  EXPECT_TRUE(path->memo.Contains(Pair("path", "c11", "c5")));
  EXPECT_TRUE(path->memo.Contains(Pair("path", "c11", "c7")));
  ExpectFixpointAnswers("?- path(X, c7).");
}

TEST_F(QsqrTest, BoundGoalDerivesFarFewerFacts) {
  auto qsqr = session_->Query("?- path(c9, Y).");
  ASSERT_TRUE(qsqr.ok()) << qsqr.status();
  EXPECT_EQ(session_->last_exec_info().strategy, "qsqr");
  EXPECT_EQ(session_->last_exec_info().adornment, "bf");
  size_t qsqr_derived = session_->last_stats().derived_facts;

  session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
  auto full = session_->Query("?- path(c9, Y).");
  ASSERT_TRUE(full.ok());
  size_t full_derived = session_->last_stats().derived_facts;

  EXPECT_EQ(qsqr->rows, full->rows);
  // From c9 only two path facts are reachable; the full fixpoint derives
  // the entire transitive closure plus the noise cone.
  EXPECT_LT(qsqr_derived, full_derived / 4);
}

TEST_F(QsqrTest, TerminatesOnCyclicData) {
  // Close the chain into a cycle: naive backward chaining without the memo
  // would recurse forever on path(c0, Y).
  ASSERT_TRUE(session_->Load("edge(c11, c0).").ok());
  auto result = session_->Query("?- path(c0, Y).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(session_->last_exec_info().strategy, "qsqr");
  EXPECT_EQ(result->rows.size(), 12u);  // every node reachable from c0
}

TEST_F(QsqrTest, RepeatedVariableGoalOnCycle) {
  ASSERT_TRUE(session_->Load("edge(c11, c0).").ok());
  auto qsqr = session_->Query("?- path(X, X).");
  ASSERT_TRUE(qsqr.ok()) << qsqr.status();
  EXPECT_EQ(qsqr->rows.size(), 12u);  // every node cycles back to itself
}

TEST_F(QsqrTest, UnresolvableGoalConstantErrors) {
  auto result = session_->Query("?- path(nosuch, Y).");
  EXPECT_FALSE(result.ok());
}

TEST_F(QsqrTest, BuiltinClassGoalDeclines) {
  GoalAnalysis goal = Analyze("?- Interval(G).");
  EXPECT_NE(goal.decline_reason.find("builtin"), std::string::npos);
  EXPECT_FALSE(RunDirect("?- Interval(G).").ok());
}

TEST_F(QsqrTest, ExtendedActiveDomainDeclines) {
  session_->mutable_options()->extended_active_domain = true;
  GoalAnalysis goal = Analyze("?- path(c0, Y).");
  EXPECT_NE(goal.decline_reason.find("extended active domain"),
            std::string::npos);
  EXPECT_FALSE(RunDirect("?- path(c0, Y).").ok());
}

TEST_F(QsqrTest, ConstructiveConeDeclinesAndFallbackAgrees) {
  ASSERT_TRUE(session_
                  ->Load("interval gi1 { duration: (t > 0 and t < 5) }.\n"
                         "interval gi2 { duration: (t > 5 and t < 9) }.\n"
                         "seg(gi1). seg(gi2).\n"
                         "combo(G1 ++ G2) <- seg(G1), seg(G2).\n")
                  .ok());
  GoalAnalysis goal = Analyze("?- combo(G).");
  EXPECT_NE(goal.decline_reason.find("constructive"), std::string::npos);
  // Through the session the decline falls back and still answers.
  auto a = session_->Query("?- combo(G).");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(session_->last_exec_info().strategy, "fixpoint");
  session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
  auto b = session_->Query("?- combo(G).");
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->rows, b->rows);
}

TEST_F(QsqrTest, SysGoalFallsBackToMagicPath) {
  auto result = session_->Query("?- sys_relations(P, A, R, B, S).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(session_->last_exec_info().strategy, "magic");
  EXPECT_FALSE(result->rows.empty());
}

TEST_F(QsqrTest, DeadlineIsEnforced) {
  session_->mutable_options()->deadline = std::chrono::steady_clock::now();
  auto result = session_->Query("?- path(c0, Y).");
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
}

TEST_F(QsqrTest, ExplainShowsStrategyLine) {
  auto text = session_->Explain("?- path(c0, Y).", /*analyze=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("strategy: qsqr (forced)"), std::string::npos)
      << *text;
}

TEST_F(QsqrTest, StatsRecordQsqrAccessPath) {
  auto& collector = obs::StatsCollector::Global();
  uint64_t old_threshold = collector.slow_threshold_us();
  collector.ResetSlowLog();
  collector.set_slow_threshold_us(0);  // log every query
  ASSERT_TRUE(session_->Query("?- path(c0, Y).").ok());
  std::string log = collector.RenderSlowLogJson();
  collector.set_slow_threshold_us(old_threshold);
  collector.ResetSlowLog();
  EXPECT_NE(log.find("qsqr(bf)"), std::string::npos) << log;
}

TEST_F(QsqrTest, StoredRowsAreNotRecordedAgain) {
  // VideoDatabase::AssertFact recorded the stored edge rows when they were
  // loaded; the per-query memo load must not feed them to the sketches a
  // second time. Only derived path rows are new to the collector.
  auto& collector = obs::StatsCollector::Global();
  collector.Reset();
  auto result = session_->Query("?- path(c0, Y).");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(session_->last_exec_info().strategy, "qsqr");
  bool saw_path = false;
  for (const obs::ColumnStatView& column : collector.Snapshot().columns) {
    EXPECT_NE(column.predicate, "edge")
        << "column " << column.column << " estimate "
        << column.distinct_estimate;
    saw_path |= column.predicate == "path";
  }
  EXPECT_TRUE(saw_path);
}

}  // namespace
}  // namespace vqldb
