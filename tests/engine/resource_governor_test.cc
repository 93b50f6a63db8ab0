// The session-level resource governor: a query that exceeds its memory,
// tuple, or solver-step budget fails with a structured ResourceExhausted,
// the degradation order (shed caches -> retry -> fail) runs, the database
// is never mutated by a governed failure, and the same session keeps
// answering afterwards. Mirrors deadline_test.cc for the space dimension.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/engine/query.h"
#include "src/obs/metrics.h"

namespace vqldb {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "")->value();
}

// A recursive constructive program over `n` pairwise-disjoint interval
// segments: the closure of `grow` under ++ ranges over all 2^n - 1
// non-empty subsets, each a distinct derived interval whose canonicalized
// duration has one fragment per constituent segment.
std::string GrowProgram(int segments) {
  std::string program;
  for (int i = 0; i < segments; ++i) {
    std::string lo = std::to_string(10 * i);
    std::string hi = std::to_string(10 * i + 5);
    program += "interval gi" + std::to_string(i) + " { duration: (t > " + lo +
               " and t < " + hi + ") }.\n";
    program += "seg(gi" + std::to_string(i) + ").\n";
  }
  program +=
      "grow(G) <- seg(G).\n"
      "grow(G1 ++ G2) <- grow(G1), seg(G2).\n";
  return program;
}

// A chain EDB whose transitive closure is far heavier than any selective
// query: n(n+1)/2 path facts at ~10^2 bytes each.
void LoadChain(QuerySession* session, int n) {
  std::string program;
  for (int i = 0; i <= n; ++i) {
    program += "object n" + std::to_string(i) + " { }.\n";
  }
  for (int i = 0; i < n; ++i) {
    program +=
        "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  program +=
      "path(X, Y) <- edge(X, Y).\n"
      "path(X, Z) <- path(X, Y), edge(Y, Z).\n";
  ASSERT_TRUE(session->Load(program).ok());
}

TEST(ResourceGovernorTest, HeavyQueryTripsGovernorAndSessionRecovers) {
  VideoDatabase db;
  QuerySession session(&db);
  LoadChain(&session, 64);
  session.EnableMemoryGovernor(60'000);

  auto heavy = session.Query("?- path(X, Y).");
  ASSERT_FALSE(heavy.ok());
  EXPECT_TRUE(heavy.status().IsResourceExhausted()) << heavy.status();

  // The failed query released its reservations and cleared the trip: the
  // same session still answers a selective query within the same limit.
  auto small = session.Query("?- edge(n0, Y).");
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(small->size(), 1u);
}

TEST(ResourceGovernorTest, PerQueryTupleLimitFailsStructured) {
  VideoDatabase db;
  QuerySession session(&db);
  LoadChain(&session, 32);
  session.set_per_query_limits({0, /*max_tuples=*/100, 0});

  auto result = session.Query("?- path(X, Y).");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_NE(result.status().message().find("tuple budget"), std::string::npos)
      << result.status();

  session.set_per_query_limits({});
  auto retry = session.Query("?- path(X, Y).");
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry->size(), 32u * 33u / 2u);
}

TEST(ResourceGovernorTest, RecursiveConstructiveProgramIsBoundedAndRolledBack) {
  // The paper's own termination caveat: a recursive constructive rule can
  // derive unboundedly many generalized intervals. The tuple budget turns
  // that into a clean per-query failure, and the rollback anchor guarantees
  // none of the intervals materialized before the trip survive it.
  {
    // Control: unlimited, the same program really does materialize derived
    // intervals (2^7 - 1 subset unions minus the 7 base segments).
    VideoDatabase control_db;
    QuerySession control(&control_db);
    ASSERT_TRUE(control.Load(GrowProgram(7)).ok());
    auto full = control.Query("?- grow(G).");
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_EQ(full->size(), 127u);
    EXPECT_GT(control_db.derived_interval_count(), 0u);
  }

  VideoDatabase db;
  QuerySession session(&db);
  ASSERT_TRUE(session.Load(GrowProgram(7)).ok());
  session.set_per_query_limits({0, /*max_tuples=*/60, 0});

  size_t derived_before = db.derived_interval_count();
  uint64_t exhausted_before =
      CounterValue("vqldb_queries_resource_exhausted_total");
  auto result = session.Query("?- grow(G).");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_GT(CounterValue("vqldb_queries_resource_exhausted_total"),
            exhausted_before);

  // A governed failure never mutates the database.
  EXPECT_EQ(db.derived_interval_count(), derived_before);
  EXPECT_TRUE(db.Validate().ok());

  session.set_per_query_limits({});
  auto follow_up = session.Query("?- seg(G).");
  ASSERT_TRUE(follow_up.ok()) << follow_up.status();
  EXPECT_EQ(follow_up->size(), 7u);
}

TEST(ResourceGovernorTest, FailedGovernedQueryShedsCachesFirst) {
  VideoDatabase db;
  QuerySession session(&db);
  LoadChain(&session, 24);
  session.EnableMemoryGovernor(1u << 30);  // governed, but roomy

  ASSERT_TRUE(session.Query("?- path(n0, Y).").ok());
  ASSERT_EQ(session.query_cache_size(), 1u);
  ASSERT_GT(session.query_cache_bytes(), 0u);
  uint64_t evicted_before = CounterValue("vqldb_cache_bytes_evicted_total");

  // Force a trip: the degradation order sheds every retained cache before
  // the query is allowed to fail.
  session.set_per_query_limits({0, /*max_tuples=*/10, 0});
  auto result = session.Query("?- path(X, Y).");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_EQ(session.query_cache_size(), 0u);
  EXPECT_EQ(session.query_cache_bytes(), 0u);
  EXPECT_GT(CounterValue("vqldb_cache_bytes_evicted_total"), evicted_before);

  session.set_per_query_limits({});
  auto again = session.Query("?- path(n0, Y).");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->size(), 24u);
}

TEST(ResourceGovernorTest, SolverHeavyProgramTripsSolverStepLimit) {
  // Satellite regression: the trip must come from inside the constraint
  // layer, proving the inner-loop cancellation plumbing end to end. Every
  // ++ concatenation canonicalizes the unioned duration (an IntervalSet
  // construction that charges one solver step per fragment), so the subset
  // closure charges far more than 150 steps before it can complete.
  VideoDatabase db;
  QuerySession session(&db);
  ASSERT_TRUE(session.Load(GrowProgram(7)).ok());

  session.set_per_query_limits({0, 0, /*max_solver_steps=*/150});
  auto result = session.Query("?- grow(G).");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_NE(result.status().message().find("solver-step"), std::string::npos)
      << result.status();
  EXPECT_TRUE(db.Validate().ok());

  session.set_per_query_limits({});
  auto retry = session.Query("?- grow(G).");
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry->size(), 127u);
}

TEST(ResourceGovernorTest, ExplainAnalyzeShowsGovernorAndBudgetLines) {
  VideoDatabase db;
  QuerySession session(&db);
  LoadChain(&session, 8);
  session.EnableMemoryGovernor(1u << 30);

  auto explained = session.Explain("?- path(n0, Y).", /*analyze=*/true);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->find("governor: on"), std::string::npos) << *explained;
  EXPECT_NE(explained->find("\nbudget: "), std::string::npos) << *explained;
  EXPECT_NE(explained->find("bytes reserved"), std::string::npos);

  session.set_governor(nullptr);
  auto ungoverned = session.Explain("?- path(n0, Y).", /*analyze=*/true);
  ASSERT_TRUE(ungoverned.ok());
  EXPECT_NE(ungoverned->find("governor: off"), std::string::npos);
  EXPECT_EQ(ungoverned->find("\nbudget: "), std::string::npos);
}

TEST(ResourceGovernorTest, GovernorGaugesTrackReservations) {
  VideoDatabase db;
  QuerySession session(&db);
  LoadChain(&session, 16);
  session.EnableMemoryGovernor(1u << 30);

  ASSERT_TRUE(session.Query("?- path(n0, Y).").ok());
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("vqldb_governor_bytes_reserved")->value(),
            static_cast<int64_t>(session.governor()->bytes_reserved()));
  EXPECT_GT(session.governor()->bytes_peak(), 0u);
  // Retained state (the cached answer) is the only live reservation.
  EXPECT_EQ(session.governor()->bytes_reserved(), session.query_cache_bytes());

  // Under full materialization the fixpoint is one more cache entry: the
  // governor is charged for it once, by the cache, and not again by the
  // evaluation that built it.
  VideoDatabase forced_db;
  QuerySession forced(&forced_db);
  LoadChain(&forced, 16);
  forced.mutable_options()->strategy = EvalStrategy::kFixpoint;
  forced.EnableMemoryGovernor(1u << 30);
  ASSERT_TRUE(forced.Query("?- path(n0, Y).").ok());
  EXPECT_EQ(forced.query_cache_size(), 2u);  // the fixpoint and the answer
  EXPECT_EQ(forced.governor()->bytes_reserved(), forced.query_cache_bytes());
}

TEST(ResourceGovernorTest, PartialStatsSurviveGovernedAbort) {
  VideoDatabase db;
  QuerySession session(&db);
  LoadChain(&session, 32);
  session.set_per_query_limits({0, /*max_tuples=*/100, 0});
  ASSERT_FALSE(session.Query("?- path(X, Y).").ok());
  // The aborted evaluation folded its progress into last_stats, mirroring
  // the DeadlineExceeded contract.
  EXPECT_GE(session.last_stats().iterations, 1u);
  EXPECT_GT(session.last_stats().derived_facts, 0u);
}

TEST(ResourceGovernorTest, InjectedBudgetFaultsSurfaceCleanly) {
  VideoDatabase db;
  QuerySession session(&db);
  LoadChain(&session, 16);
  session.EnableMemoryGovernor(1u << 30);
  session.governor()->ArmFaults({/*seed=*/99, /*trip_p=*/1.0});

  auto result = session.Query("?- path(X, Y).");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_GT(session.governor()->injected_trips(), 0u);
  EXPECT_TRUE(db.Validate().ok());

  session.governor()->ArmFaults({0, 0.0});
  auto retry = session.Query("?- path(X, Y).");
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry->size(), 16u * 17u / 2u);
}

TEST(ResourceGovernorTest, UninstallingGovernorRestoresUnlimited) {
  VideoDatabase db;
  QuerySession session(&db);
  LoadChain(&session, 32);
  session.EnableMemoryGovernor(10'000);
  ASSERT_FALSE(session.Query("?- path(X, Y).").ok());
  session.EnableMemoryGovernor(0);  // off
  EXPECT_EQ(session.governor(), nullptr);
  auto result = session.Query("?- path(X, Y).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 32u * 33u / 2u);
}

}  // namespace
}  // namespace vqldb
