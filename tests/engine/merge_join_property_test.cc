// Property suite: the join access path never changes an answer. For seeded
// random programs and goals, the bottom-up engines (forced fixpoint and
// forced magic sets), which merge-join bound prefixes and probe the hash
// index elsewhere, must return exactly the rows of forced QSQR, which
// probes only the hash index — serially and in parallel. 30 seeds x 4
// configurations = 120 equivalence cases, each checking full row content,
// not just counts.

#include <gtest/gtest.h>

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

// Random positive programs over EDB relations e/2, f/2 and a ternary g/3
// (whose joins bind non-prefix positions, forcing the evaluator to mix merge
// probes with hash-index fallbacks within one program).
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
  auto ent = [&] { return Value::Oid(entities[rng.UniformU64(n)]); };
  for (size_t i = 0; i < 2 * n; ++i) {
    VQLDB_CHECK_OK(
        s.db->AssertFact(rng.Bernoulli(0.5) ? "e" : "f", {ent(), ent()}));
  }
  for (size_t i = 0; i < n; ++i) {
    VQLDB_CHECK_OK(s.db->AssertFact("g", {ent(), ent(), ent()}));
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
      // Non-prefix bound positions: g's second/third arguments join against
      // earlier bindings, so these literals are not merge-eligible and must
      // fall back to hash probes mid-rule.
      "d1(X, Y) <- e(X, Z), g(X, Y, Z).",
      "d0(X, Y) <- g(Y, X, X).",
      "d1(X, Z) <- g(X, Y, Z), e(Y, Y).",
  };
  size_t num_rules = 2 + rng.UniformU64(6);
  for (size_t i = 0; i < num_rules; ++i) {
    auto rule = Parser::ParseRule(templates[rng.UniformU64(11)]);
    VQLDB_CHECK(rule.ok());
    s.rules.push_back(*rule);
  }
  return s;
}

std::vector<std::string> GoalsFor(const Scenario& s, uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  auto c = [&] { return "c" + std::to_string(rng.UniformU64(s.entity_count)); };
  std::vector<std::string> goals;
  for (const char* pred : {"d0", "d1"}) {
    std::string p(pred);
    goals.push_back("?- " + p + "(X, Y).");
    goals.push_back("?- " + p + "(" + c() + ", Y).");
    goals.push_back("?- " + p + "(X, X).");
  }
  return goals;
}

// Rendered rows in result order: answers come back sorted whatever the
// strategy, so plain vector equality applies.
std::vector<std::string> RenderRows(const QueryResult& result) {
  std::vector<std::string> out;
  for (const auto& row : result.rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

void CheckEquivalence(uint64_t seed, size_t num_threads, bool magic) {
  Scenario s = RandomScenario(seed);
  EvalOptions options;
  options.num_threads = num_threads;
  QuerySession session(s.db.get(), options);
  session.set_cache_enabled(false);
  for (const Rule& rule : s.rules) ASSERT_TRUE(session.AddRule(rule).ok());
  const EvalStrategy bottom_up =
      magic ? EvalStrategy::kMagic : EvalStrategy::kFixpoint;

  for (const std::string& goal : GoalsFor(s, seed)) {
    session.mutable_options()->strategy = bottom_up;
    session.Invalidate();
    auto merge = session.Query(goal);
    ASSERT_TRUE(merge.ok()) << "seed " << seed << " goal " << goal << ": "
                            << merge.status();
    EXPECT_EQ(session.last_exec_info().strategy, EvalStrategyName(bottom_up))
        << "seed " << seed << " goal " << goal;

    session.mutable_options()->strategy = EvalStrategy::kQsqr;
    session.Invalidate();
    auto hash = session.Query(goal);
    ASSERT_TRUE(hash.ok()) << "seed " << seed << " goal " << goal << ": "
                           << hash.status();
    EXPECT_EQ(session.last_exec_info().strategy, "qsqr")
        << "seed " << seed << " goal " << goal << " fell back: "
        << session.last_exec_info().plan_reason;

    EXPECT_EQ(merge->columns, hash->columns)
        << "seed " << seed << " goal " << goal;
    EXPECT_EQ(RenderRows(*merge), RenderRows(*hash))
        << "seed " << seed << " goal " << goal;
  }
}

class MergeJoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeJoinEquivalenceTest, SerialMatchesHashJoins) {
  CheckEquivalence(GetParam(), /*num_threads=*/1, /*magic=*/false);
}

TEST_P(MergeJoinEquivalenceTest, ParallelMatchesHashJoins) {
  CheckEquivalence(GetParam() + 3000, /*num_threads=*/8, /*magic=*/false);
}

TEST_P(MergeJoinEquivalenceTest, MagicSerialMatchesHashJoins) {
  CheckEquivalence(GetParam() + 6000, /*num_threads=*/1, /*magic=*/true);
}

TEST_P(MergeJoinEquivalenceTest, MagicParallelMatchesHashJoins) {
  CheckEquivalence(GetParam() + 9000, /*num_threads=*/8, /*magic=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeJoinEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace vqldb
