// The virtual sys_* relations and query fingerprinting: normalized
// fingerprints collapse alpha-equivalent goals and distinguish structural
// differences; sys_relations rows match the database's ground truth;
// sys_columns distinct estimates stay within the HLL contract; a rule
// joining a sys_* relation with a base relation answers byte-identically
// across evaluation strategies; a goal whose rules reach a sys_* relation,
// however indirectly and whenever the reaching rule was added, bypasses the
// query cache; and the sys_ namespace is reserved at every ingestion point.

#include "src/engine/sysrel.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/model/database.h"
#include "src/obs/stats.h"

namespace vqldb {
namespace {

Atom GoalOf(const std::string& text) {
  auto q = Parser::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return q->goal;
}

TEST(QueryFingerprintTest, CollapsesAlphaEquivalentGoals) {
  EXPECT_EQ(QueryFingerprint(GoalOf("?- path(X, Y).")),
            QueryFingerprint(GoalOf("?- path(From, To).")));
  EXPECT_EQ(QueryFingerprint(GoalOf("?- path(X, Y).")), "path($0, $1)");
  // Repeated variables keep their first-occurrence number.
  EXPECT_EQ(QueryFingerprint(GoalOf("?- path(X, X).")), "path($0, $0)");
}

TEST(QueryFingerprintTest, DistinguishesStructure) {
  EXPECT_NE(QueryFingerprint(GoalOf("?- path(X, Y).")),
            QueryFingerprint(GoalOf("?- path(X, X).")));
  EXPECT_NE(QueryFingerprint(GoalOf("?- path(X, Y).")),
            QueryFingerprint(GoalOf("?- edge(X, Y).")));
  // Constants normalize to '?' — the fingerprint strips parameter values
  // but remembers that a position was bound.
  EXPECT_EQ(QueryFingerprint(GoalOf("?- path(a, Y).")), "path(?, $0)");
  EXPECT_EQ(QueryFingerprint(GoalOf("?- path(a, Y).")),
            QueryFingerprint(GoalOf("?- path(b, Y).")));
  EXPECT_NE(QueryFingerprint(GoalOf("?- path(a, Y).")),
            QueryFingerprint(GoalOf("?- path(X, Y).")));
}

TEST(SysRelTest, IsSystemRelationMatchesPrefixOnly) {
  EXPECT_TRUE(IsSystemRelation("sys_relations"));
  EXPECT_TRUE(IsSystemRelation("sys_anything"));
  EXPECT_FALSE(IsSystemRelation("system"));
  EXPECT_FALSE(IsSystemRelation("edge"));
  EXPECT_FALSE(IsSystemRelation(""));
}

class SysRelSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::StatsCollector::Global().Reset();
    session_ = std::make_unique<QuerySession>(&db_);
    ASSERT_TRUE(session_
                    ->Load("object a {}. object b {}. object c {}.\n"
                           "edge(a, b). edge(b, c). edge(a, c).\n"
                           "tag(a, b).\n"
                           "path(X, Y) <- edge(X, Y).\n"
                           "path(X, Z) <- path(X, Y), edge(Y, Z).\n")
                    .ok());
  }

  VideoDatabase db_;
  std::unique_ptr<QuerySession> session_;
};

TEST_F(SysRelSessionTest, SysRelationsMatchesGroundTruth) {
  auto result = session_->Query("?- sys_relations(P, A, R, B, S).");
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_edge = false, saw_tag = false;
  for (const auto& row : result->rows) {
    ASSERT_EQ(row.size(), 5u);
    const std::string& pred = row[0].string_value();
    if (pred == "edge") {
      saw_edge = true;
      EXPECT_EQ(row[1].int_value(), 2);  // arity
      EXPECT_EQ(row[2].int_value(), 3);  // rows
      EXPECT_GT(row[3].int_value(), 0);  // bytes
    }
    if (pred == "tag") {
      saw_tag = true;
      EXPECT_EQ(row[2].int_value(), 1);
    }
    // The statistics relations never describe themselves.
    EXPECT_FALSE(IsSystemRelation(pred));
  }
  EXPECT_TRUE(saw_edge);
  EXPECT_TRUE(saw_tag);
}

TEST_F(SysRelSessionTest, SysColumnsDistinctEstimateWithinContract) {
  // 10k facts over a high-cardinality first column and a 13-value second.
  for (int i = 0; i < 10000; ++i) {
    Fact f;
    f.relation = "num";
    f.args = {Value::Int(i), Value::Int(i % 13)};
    ASSERT_TRUE(db_.AssertFact(std::move(f)).ok());
  }
  auto result = session_->Query("?- sys_columns(P, C, D).");
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_col0 = false, saw_col1 = false;
  for (const auto& row : result->rows) {
    if (row[0].string_value() != "num") continue;
    const int64_t col = row[1].int_value();
    const int64_t distinct = row[2].int_value();
    if (col == 0) {
      saw_col0 = true;
      EXPECT_GE(distinct, 9500);
      EXPECT_LE(distinct, 10500);
    }
    if (col == 1) {
      saw_col1 = true;
      // Small-range linear counting: a register collision among the 13
      // hashes can shave the estimate by one.
      EXPECT_GE(distinct, 12);
      EXPECT_LE(distinct, 14);
    }
  }
  EXPECT_TRUE(saw_col0);
  EXPECT_TRUE(saw_col1);
}

TEST_F(SysRelSessionTest, SysJoinByteIdenticalAcrossStrategies) {
  const char* kJoinRule =
      "hot(P, R) <- sys_relations(P, A, R, B, S), tag(X, Y).\n";
  const char* kGoal = "?- hot(P, R).";
  // Reference: the default session (magic on, auto threads).
  ASSERT_TRUE(session_->Load(kJoinRule).ok());
  auto reference = session_->Query(kGoal);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_FALSE(reference->rows.empty());
  const std::string expected = reference->ToString(&db_);

  struct Config {
    size_t threads;
    bool magic;
  };
  for (const Config& config : std::vector<Config>{
           {1, true}, {1, false}, {2, true}, {2, false}, {8, true}}) {
    EvalOptions options;
    options.num_threads = config.threads;
    options.strategy =
        config.magic ? EvalStrategy::kAuto : EvalStrategy::kFixpoint;
    QuerySession other(&db_, options);
    ASSERT_TRUE(other
                    .Load("path(X, Y) <- edge(X, Y).\n"
                          "path(X, Z) <- path(X, Y), edge(Y, Z).\n")
                    .ok());
    ASSERT_TRUE(other.Load(kJoinRule).ok());
    auto result = other.Query(kGoal);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->ToString(&db_), expected)
        << "threads=" << config.threads << " magic=" << config.magic;
  }
}

TEST_F(SysRelSessionTest, SysQueriesReportsEarlierFingerprints) {
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  ASSERT_TRUE(session_->Query("?- path(b, Y).").ok());
  auto result = session_->Query("?- sys_queries(F, C, P50, P99, R, S).");
  ASSERT_TRUE(result.ok()) << result.status();
  bool found = false;
  for (const auto& row : result->rows) {
    if (row[0].string_value() != "path(?, $0)") continue;
    found = true;
    EXPECT_EQ(row[1].int_value(), 2);  // both runs share the fingerprint
    EXPECT_LE(row[2].int_value(), row[3].int_value());  // p50 <= p99
    EXPECT_EQ(row[5].string_value(), "ok");
  }
  EXPECT_TRUE(found);
}

TEST_F(SysRelSessionTest, SysGoalsBypassTheQueryCache) {
  // Warm: a plain query caches; its repeat hits.
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  EXPECT_TRUE(session_->last_exec_info().cache_hit);
  // A sys goal never hits, no matter how often it repeats: its answer
  // depends on collector state the cache epochs cannot see.
  auto first = session_->Query("?- sys_queries(F, C, P50, P99, R, S).");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
  auto second = session_->Query("?- sys_queries(F, C, P50, P99, R, S).");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
  // The second run sees one more recorded query than the first (itself).
  EXPECT_GE(second->rows.size(), first->rows.size());
}

TEST_F(SysRelSessionTest, RuleChainsReachingSysRelationsStayUncached) {
  // busy reads sys_queries only through seen, two rule levels down.
  ASSERT_TRUE(session_
                  ->Load("seen(F) <- sys_queries(F, C, P50, P99, R, S).\n"
                         "busy(F) <- seen(F).\n")
                  .ok());
  for (int i = 0; i < 2; ++i) {
    auto result = session_->Query("?- busy(F).");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(session_->last_exec_info().cache_hit);
  }
  EXPECT_EQ(session_->query_cache_size(), 0u);
}

TEST_F(SysRelSessionTest, ALaterRuleMakesACachedPredicateUncacheable) {
  ASSERT_TRUE(session_->AddRule("watch(X) <- edge(X, Y).").ok());
  ASSERT_TRUE(session_->Query("?- watch(X).").ok());
  ASSERT_TRUE(session_->Query("?- watch(X).").ok());
  EXPECT_TRUE(session_->last_exec_info().cache_hit);
  // A second watch rule reads a head that has no rules yet; the rule added
  // after it makes that head, and so watch, reach sys_queries.
  ASSERT_TRUE(session_->AddRule("watch(F) <- recent(F).").ok());
  ASSERT_TRUE(session_->Query("?- watch(X).").ok());
  ASSERT_TRUE(session_->Query("?- watch(X).").ok());
  EXPECT_TRUE(session_->last_exec_info().cache_hit);
  ASSERT_TRUE(
      session_->AddRule("recent(F) <- sys_queries(F, C, P50, P99, R, S).")
          .ok());
  for (int i = 0; i < 2; ++i) {
    auto result = session_->Query("?- watch(X).");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(session_->last_exec_info().cache_hit);
  }
}

TEST_F(SysRelSessionTest, SysNamespaceIsReservedEverywhere) {
  Fact fact;
  fact.relation = "sys_relations";
  fact.args = {Value::Int(1)};
  Status assert_status = db_.AssertFact(std::move(fact));
  EXPECT_TRUE(assert_status.IsInvalidArgument()) << assert_status;

  Status load_status = session_->Load("sys_mine(X) <- edge(X, Y).\n");
  EXPECT_FALSE(load_status.ok());

  auto rule = Parser::ParseProgram("sys_other(X) <- edge(X, Y).");
  ASSERT_TRUE(rule.ok());
  ASSERT_EQ(rule->Rules().size(), 1u);
  Status add_status = session_->AddRule(*rule->Rules()[0]);
  EXPECT_TRUE(add_status.IsInvalidArgument()) << add_status;
}

TEST_F(SysRelSessionTest, SysMetricsAndBudgetAnswer) {
  auto metrics = session_->Query("?- sys_metrics(N, K, V).");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  auto budget = session_->Query("?- sys_budget(Scope, Name, V).");
  ASSERT_TRUE(budget.ok()) << budget.status();
  // The per-query limit rows are always present (0 = unlimited).
  EXPECT_GE(budget->rows.size(), 3u);
  auto cache = session_->Query("?- sys_cache(Kind, On, E, B, M).");
  ASSERT_TRUE(cache.ok()) << cache.status();
  EXPECT_EQ(cache->rows.size(), 2u);

  // With the cache off, a full materialization is not retained: the
  // fixpoint row, like the query row, reads no entry.
  session_->set_cache_enabled(false);
  session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  auto off = session_->Query("?- sys_cache(Kind, On, E, B, M).");
  ASSERT_TRUE(off.ok()) << off.status();
  ASSERT_EQ(off->rows.size(), 2u);
  for (const auto& row : off->rows) {
    EXPECT_EQ(row[1].int_value(), 0) << row[0].string_value();
    EXPECT_EQ(row[2].int_value(), 0) << row[0].string_value();
  }
}

}  // namespace
}  // namespace vqldb
