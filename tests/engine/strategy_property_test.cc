// Property test: for seeded random programs and every goal binding pattern,
// the three execution strategies — QSQR top-down, magic-set rewrite, and the
// full bottom-up fixpoint — produce exactly the same answer sets, serially,
// in parallel, under a (far-future) deadline, and under a memory governor.
// Three coexisting strategies is where answer-divergence bugs breed; this
// suite is the correctness bar for EvalStrategy::kAuto being free to pick
// any of them. EXPLAIN must name, and EXPLAIN ANALYZE evaluate, the
// strategy Run() executes.

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
// predicates d0/2 and d1/2 (the same fragment the magic-set property suite
// uses: joins, recursion, mutual recursion, Object(), (dis)equality).
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

// Every goal shape per scenario: both IDB predicates under all four binding
// patterns plus a repeated-variable goal.
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

void CheckEquivalence(uint64_t seed, size_t num_threads, bool with_deadline,
                      bool governed) {
  Scenario s = RandomScenario(seed);
  EvalOptions options;
  options.num_threads = num_threads;
  if (with_deadline) {
    options.deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(10);
  }
  QuerySession session(s.db.get(), options);
  session.set_cache_enabled(false);
  if (governed) session.EnableMemoryGovernor(256ull << 20);
  for (const Rule& rule : s.rules) ASSERT_TRUE(session.AddRule(rule).ok());

  for (const std::string& goal : GoalsFor(s, seed)) {
    // Baseline: the full bottom-up fixpoint, no goal direction.
    session.mutable_options()->strategy = EvalStrategy::kFixpoint;
    auto full = session.Query(goal);
    ASSERT_TRUE(full.ok()) << "seed " << seed << " goal " << goal << ": "
                           << full.status();

    session.mutable_options()->strategy = EvalStrategy::kQsqr;
    auto qsqr = session.Query(goal);
    ASSERT_TRUE(qsqr.ok()) << "seed " << seed << " goal " << goal << ": "
                           << qsqr.status();
    // This fragment has no decline condition: QSQR must actually run.
    EXPECT_EQ(session.last_exec_info().strategy, "qsqr")
        << "seed " << seed << " goal " << goal << " fell back: "
        << session.last_exec_info().plan_reason;
    EXPECT_EQ(qsqr->rows, full->rows) << "seed " << seed << " goal " << goal;
    EXPECT_EQ(qsqr->columns, full->columns)
        << "seed " << seed << " goal " << goal;

    session.mutable_options()->strategy = EvalStrategy::kMagic;
    auto magic = session.Query(goal);
    ASSERT_TRUE(magic.ok()) << "seed " << seed << " goal " << goal << ": "
                            << magic.status();
    EXPECT_EQ(session.last_exec_info().strategy, "magic")
        << "seed " << seed << " goal " << goal;
    EXPECT_EQ(magic->rows, full->rows) << "seed " << seed << " goal " << goal;
    EXPECT_EQ(magic->columns, full->columns)
        << "seed " << seed << " goal " << goal;

    // Auto may pick any of the three; whatever it picks must agree too.
    session.mutable_options()->strategy = EvalStrategy::kAuto;
    auto automatic = session.Query(goal);
    ASSERT_TRUE(automatic.ok()) << "seed " << seed << " goal " << goal << ": "
                                << automatic.status();
    EXPECT_EQ(automatic->rows, full->rows)
        << "seed " << seed << " goal " << goal << " (auto chose "
        << session.last_exec_info().strategy << ")";
  }
}

class StrategyEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyEquivalenceTest, SerialAnswersAgree) {
  CheckEquivalence(GetParam(), /*num_threads=*/1, /*with_deadline=*/false,
                   /*governed=*/false);
}

TEST_P(StrategyEquivalenceTest, ParallelAnswersAgree) {
  CheckEquivalence(GetParam() + 5000, /*num_threads=*/8,
                   /*with_deadline=*/false, /*governed=*/false);
}

TEST_P(StrategyEquivalenceTest, DeadlinedAnswersAgree) {
  CheckEquivalence(GetParam() + 9000, /*num_threads=*/(GetParam() % 2) ? 8 : 1,
                   /*with_deadline=*/true, /*governed=*/false);
}

TEST_P(StrategyEquivalenceTest, GovernedAnswersAgree) {
  CheckEquivalence(GetParam() + 13000, /*num_threads=*/1,
                   /*with_deadline=*/false, /*governed=*/true);
}

// EXPLAIN names the strategy Run() executes, under every requested one, and
// EXPLAIN ANALYZE evaluates it: QSQR reports passes, the bottom-up
// strategies rounds, and the rendered answer is Run()'s.
TEST_P(StrategyEquivalenceTest, ExplainAgreesWithRun) {
  const uint64_t seed = GetParam();
  Scenario s = RandomScenario(seed);
  QuerySession session(s.db.get());
  session.set_cache_enabled(false);
  for (const Rule& rule : s.rules) ASSERT_TRUE(session.AddRule(rule).ok());
  for (const std::string& goal : GoalsFor(s, seed)) {
    for (EvalStrategy requested :
         {EvalStrategy::kAuto, EvalStrategy::kQsqr, EvalStrategy::kMagic,
          EvalStrategy::kFixpoint}) {
      session.mutable_options()->strategy = requested;
      auto text = session.Explain(goal, /*analyze=*/true);
      ASSERT_TRUE(text.ok()) << goal << ": " << text.status();
      const size_t at = text->find("strategy: ");
      ASSERT_NE(at, std::string::npos) << *text;
      const size_t from = at + std::string("strategy: ").size();
      const std::string named = text->substr(from, text->find(' ', from) - from);

      auto run = session.Query(goal);
      ASSERT_TRUE(run.ok()) << goal << ": " << run.status();
      const std::string& ran = session.last_exec_info().strategy;
      EXPECT_EQ(named, ran) << "seed " << seed << " goal " << goal
                            << " requested " << EvalStrategyName(requested);
      EXPECT_EQ(text->find(" passes, ") != std::string::npos, ran == "qsqr")
          << *text;
      const std::string answer = run->ToString(s.db.get());
      ASSERT_GE(text->size(), answer.size());
      EXPECT_EQ(text->substr(text->size() - answer.size()), answer)
          << "seed " << seed << " goal " << goal;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace vqldb
