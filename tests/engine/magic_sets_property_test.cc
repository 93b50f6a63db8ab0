// Property test: for seeded random programs and every goal binding pattern,
// the magic-set rewritten evaluation produces exactly the answer set of the
// full (naive) fixpoint — serially, in parallel, and under a (far-future)
// deadline. This is the correctness bar of the goal-directed engine.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/model/database.h"

namespace vqldb {
namespace {

struct Scenario {
  std::unique_ptr<VideoDatabase> db;
  std::vector<Rule> rules;
  size_t entity_count = 0;
};

// Random positive programs over two EDB relations e/2 and f/2 and two IDB
// predicates d0/2 and d1/2 (the differential-oracle generator's fragment:
// joins, recursion, mutual recursion, Object(), variable (dis)equality).
Scenario RandomScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.db = std::make_unique<VideoDatabase>();
  size_t n = 3 + rng.UniformU64(4);
  s.entity_count = n;
  std::vector<ObjectId> entities;
  for (size_t i = 0; i < n; ++i) {
    entities.push_back(*s.db->CreateEntity("c" + std::to_string(i)));
  }
  for (size_t i = 0; i < 2 * n; ++i) {
    VQLDB_CHECK_OK(s.db->AssertFact(
        rng.Bernoulli(0.5) ? "e" : "f",
        {Value::Oid(entities[rng.UniformU64(n)]),
         Value::Oid(entities[rng.UniformU64(n)])}));
  }

  const char* templates[] = {
      "d0(X, Y) <- e(X, Y).",
      "d0(X, Y) <- f(Y, X).",
      "d0(X, Z) <- d0(X, Y), e(Y, Z).",
      "d1(X, Y) <- e(X, Y), f(X, Y).",
      "d1(X, Y) <- d0(X, Y), X != Y.",
      "d0(X, Y) <- d1(X, Y), d1(Y, X).",
      "d1(X, X) <- e(X, Y), Object(X).",
      "d0(X, Y) <- d1(X, Z), f(Z, Y).",
  };
  size_t num_rules = 2 + rng.UniformU64(5);
  for (size_t i = 0; i < num_rules; ++i) {
    auto rule = Parser::ParseRule(templates[rng.UniformU64(8)]);
    VQLDB_CHECK(rule.ok());
    s.rules.push_back(*rule);
  }
  return s;
}

// Every goal shape exercised per scenario: both IDB predicates under all
// four binding patterns plus a repeated-variable goal.
std::vector<std::string> GoalsFor(const Scenario& s, uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  auto c = [&] { return "c" + std::to_string(rng.UniformU64(s.entity_count)); };
  std::vector<std::string> goals;
  for (const char* pred : {"d0", "d1"}) {
    std::string p(pred);
    goals.push_back("?- " + p + "(" + c() + ", Y).");
    goals.push_back("?- " + p + "(X, " + c() + ").");
    goals.push_back("?- " + p + "(" + c() + ", " + c() + ").");
    goals.push_back("?- " + p + "(X, Y).");
    goals.push_back("?- " + p + "(X, X).");
  }
  return goals;
}

void CheckEquivalence(uint64_t seed, size_t num_threads, bool with_deadline) {
  Scenario s = RandomScenario(seed);
  EvalOptions options;
  options.num_threads = num_threads;
  if (with_deadline) {
    options.deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(10);
  }
  QuerySession session(s.db.get(), options);
  // The suite asserts that magic sets ran, so pin the magic strategy instead
  // of letting the kAuto default route non-recursive goals to QSQR.
  session.set_cache_enabled(false);
  for (const Rule& rule : s.rules) ASSERT_TRUE(session.AddRule(rule).ok());

  for (const std::string& goal : GoalsFor(s, seed)) {
    session.mutable_options()->strategy = EvalStrategy::kMagic;
    auto magic = session.Query(goal);
    ASSERT_TRUE(magic.ok()) << "seed " << seed << " goal " << goal << ": "
                            << magic.status();
    EXPECT_EQ(session.last_exec_info().strategy, "magic")
        << "seed " << seed << " goal " << goal;

    session.mutable_options()->strategy = EvalStrategy::kFixpoint;
    auto full = session.Query(goal);
    ASSERT_TRUE(full.ok()) << "seed " << seed << " goal " << goal << ": "
                           << full.status();

    EXPECT_EQ(magic->rows, full->rows) << "seed " << seed << " goal " << goal;
    EXPECT_EQ(magic->columns, full->columns)
        << "seed " << seed << " goal " << goal;
  }
}

class MagicEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MagicEquivalenceTest, SerialMatchesFullFixpoint) {
  CheckEquivalence(GetParam(), /*num_threads=*/1, /*with_deadline=*/false);
}

TEST_P(MagicEquivalenceTest, ParallelMatchesFullFixpoint) {
  CheckEquivalence(GetParam() + 5000, /*num_threads=*/8,
                   /*with_deadline=*/false);
}

TEST_P(MagicEquivalenceTest, DeadlinedRunsMatchToo) {
  CheckEquivalence(GetParam() + 9000, /*num_threads=*/(GetParam() % 2) ? 8 : 1,
                   /*with_deadline=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace vqldb
