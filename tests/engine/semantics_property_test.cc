// THM-1 (and Lemmas 3-4): model-theoretic semantics — a fixpoint of T_P is a
// model; the intersection of models is a model; the least fixpoint is
// contained in every model (minimality). Exercised over randomly generated
// positive programs and EDBs.

#include <gtest/gtest.h>

#include "src/common/logging.h"

#include "src/common/rng.h"
#include "src/engine/evaluator.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"

namespace vqldb {
namespace {

struct Scenario {
  std::unique_ptr<VideoDatabase> db;
  std::vector<Rule> rules;
};

// Random EDB over relations p/1 and e/2 with `n` entities, plus a random
// positive, non-constructive program over derived predicates d0..d2.
Scenario RandomSetup(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.db = std::make_unique<VideoDatabase>();
  size_t n = 3 + rng.UniformU64(3);
  std::vector<ObjectId> entities;
  for (size_t i = 0; i < n; ++i) {
    entities.push_back(*s.db->CreateEntity("c" + std::to_string(i)));
  }
  for (ObjectId o : entities) {
    if (rng.Bernoulli(0.5)) {
      VQLDB_CHECK_OK(s.db->AssertFact("p", {Value::Oid(o)}));
    }
  }
  for (size_t i = 0; i < 2 * n; ++i) {
    ObjectId a = entities[rng.UniformU64(entities.size())];
    ObjectId b = entities[rng.UniformU64(entities.size())];
    VQLDB_CHECK_OK(s.db->AssertFact("e", {Value::Oid(a), Value::Oid(b)}));
  }

  const char* templates[] = {
      "d0(X) <- p(X).",
      "d0(X) <- e(X, Y).",
      "d1(X, Y) <- e(X, Y), p(X).",
      "d1(X, Y) <- e(Y, X).",
      "d2(X, Z) <- e(X, Y), e(Y, Z).",
      "d2(X, Z) <- d2(X, Y), e(Y, Z).",
      "d0(Y) <- d1(X, Y), d0(X).",
      "d2(X, X) <- d0(X).",
  };
  size_t num_rules = 2 + rng.UniformU64(5);
  for (size_t i = 0; i < num_rules; ++i) {
    auto rule = Parser::ParseRule(templates[rng.UniformU64(8)]);
    VQLDB_CHECK(rule.ok());
    s.rules.push_back(*rule);
  }
  return s;
}

// Closes an interpretation under T_P (a model containing the seed).
Interpretation CloseUnderTp(Evaluator* eval, Interpretation seed) {
  while (true) {
    auto next = eval->ApplyOnce(seed);
    VQLDB_CHECK(next.ok());
    if (*next == seed) return seed;
    seed = std::move(*next);
  }
}

// A random superset of the given interpretation (junk facts over the same
// predicates/constants).
Interpretation RandomSuperset(const Interpretation& base,
                              const VideoDatabase& db, Rng* rng) {
  Interpretation out;
  for (const Fact& f : base.AllFacts()) out.Add(f);
  const auto& entities = db.Entities();
  for (int i = 0; i < 5; ++i) {
    Fact f;
    switch (rng->UniformU64(3)) {
      case 0:
        f.relation = "d0";
        f.args = {Value::Oid(entities[rng->UniformU64(entities.size())])};
        break;
      case 1:
        f.relation = "d1";
        f.args = {Value::Oid(entities[rng->UniformU64(entities.size())]),
                  Value::Oid(entities[rng->UniformU64(entities.size())])};
        break;
      default:
        f.relation = "d2";
        f.args = {Value::Oid(entities[rng->UniformU64(entities.size())]),
                  Value::Oid(entities[rng->UniformU64(entities.size())])};
    }
    out.Add(f);
  }
  return out;
}

class SemanticsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemanticsPropertyTest, LeastFixpointIsAFixpointAndAModel) {
  Scenario s = RandomSetup(GetParam());
  auto eval = Evaluator::Make(s.db.get(), s.rules);
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  // Lemma 3/4: TP(FP) == FP, i.e. FP is a model.
  auto applied = eval->ApplyOnce(*fp);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(*applied == *fp);
}

TEST_P(SemanticsPropertyTest, LeastFixpointIsMinimal) {
  // Theorem 3: the least fixpoint is contained in every model containing
  // the EDB. Build models as T_P-closures of random supersets.
  Scenario s = RandomSetup(GetParam() + 10000);
  auto eval = Evaluator::Make(s.db.get(), s.rules);
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());

  Rng rng(GetParam() * 31 + 7);
  auto edb = eval->Edb();
  ASSERT_TRUE(edb.ok());
  for (int trial = 0; trial < 3; ++trial) {
    Interpretation model =
        CloseUnderTp(&*eval, RandomSuperset(*edb, *s.db, &rng));
    // model is a model of P containing the EDB; minimality requires
    // FP subset-of model.
    EXPECT_TRUE(fp->SubsetOf(model));
  }
}

TEST_P(SemanticsPropertyTest, IntersectionOfModelsIsAModel) {
  // Theorem 1's core step: the intersection of models of P is a model of P.
  Scenario s = RandomSetup(GetParam() + 20000);
  auto eval = Evaluator::Make(s.db.get(), s.rules);
  ASSERT_TRUE(eval.ok());
  Rng rng(GetParam() * 17 + 3);
  auto edb = eval->Edb();
  ASSERT_TRUE(edb.ok());

  Interpretation m1 = CloseUnderTp(&*eval, RandomSuperset(*edb, *s.db, &rng));
  Interpretation m2 = CloseUnderTp(&*eval, RandomSuperset(*edb, *s.db, &rng));
  Interpretation inter;
  for (const Fact& f : m1.AllFacts()) {
    if (m2.Contains(f)) inter.Add(f);
  }
  // T_P(inter) adds nothing outside inter (Lemma 3: model iff TP(I) <= I).
  auto applied = eval->ApplyOnce(inter);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied->SubsetOf(inter));
  EXPECT_TRUE(*applied == inter);
}

// Theorems 1-3 fix one semantics, so every EvalStrategy answers each
// derived predicate with exactly the least fixpoint's facts.
TEST_P(SemanticsPropertyTest, FixpointIndependentOfEvaluationStrategy) {
  Scenario s = RandomSetup(GetParam() + 30000);
  auto eval = Evaluator::Make(s.db.get(), s.rules);
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  for (EvalStrategy strategy :
       {EvalStrategy::kAuto, EvalStrategy::kQsqr, EvalStrategy::kMagic,
        EvalStrategy::kFixpoint}) {
    EvalOptions options;
    options.strategy = strategy;
    QuerySession session(s.db.get(), options);
    session.set_cache_enabled(false);
    for (const Rule& rule : s.rules) ASSERT_TRUE(session.AddRule(rule).ok());
    for (const char* goal : {"?- d0(X).", "?- d1(X, Y).", "?- d2(X, Y)."}) {
      auto answer = session.Query(goal);
      ASSERT_TRUE(answer.ok()) << goal << ": " << answer.status();
      const std::string pred(goal + 3, goal + 5);
      EXPECT_EQ(answer->rows.size(), fp->CountFor(pred))
          << EvalStrategyName(strategy) << " " << goal;
      for (const std::vector<Value>& row : answer->rows) {
        EXPECT_TRUE(fp->Contains(Fact{pred, row}))
            << EvalStrategyName(strategy) << " " << goal;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticsPropertyTest,
                         ::testing::Range<uint64_t>(0, 15));

}  // namespace
}  // namespace vqldb
