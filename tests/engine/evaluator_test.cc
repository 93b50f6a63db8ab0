#include "src/engine/evaluator.h"

#include <gtest/gtest.h>

#include "src/common/logging.h"

#include "src/engine/query.h"
#include "src/lang/parser.h"

namespace vqldb {
namespace {

// Builds a small graph EDB: edge(a,b), edge(b,c), edge(c,d).
void SeedGraph(VideoDatabase* db) {
  for (const char* s : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(db->CreateEntity(s).ok());
  }
  auto edge = [&](const char* x, const char* y) {
    ASSERT_TRUE(db->AssertFact("edge", {Value::Oid(*db->Resolve(x)),
                                        Value::Oid(*db->Resolve(y))})
                    .ok());
  };
  edge("a", "b");
  edge("b", "c");
  edge("c", "d");
}

std::vector<Rule> ParseRules(std::initializer_list<const char*> texts) {
  std::vector<Rule> rules;
  for (const char* text : texts) {
    auto r = Parser::ParseRule(text);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status();
    rules.push_back(*r);
  }
  return rules;
}

TEST(EvaluatorTest, EdbSeedsDatabaseFacts) {
  VideoDatabase db;
  SeedGraph(&db);
  auto eval = Evaluator::Make(&db, {});
  ASSERT_TRUE(eval.ok());
  auto edb = eval->Edb();
  ASSERT_TRUE(edb.ok());
  EXPECT_EQ(edb->FactsFor("edge").size(), 3u);
}

TEST(EvaluatorTest, EmptyProgramFixpointIsEdb) {
  VideoDatabase db;
  SeedGraph(&db);
  auto eval = Evaluator::Make(&db, {});
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->size(), 3u);
}

TEST(EvaluatorTest, SingleJoinRule) {
  VideoDatabase db;
  SeedGraph(&db);
  auto eval = Evaluator::Make(
      &db, ParseRules({"two_hop(X, Z) <- edge(X, Y), edge(Y, Z)."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->FactsFor("two_hop").size(), 2u);  // a->c, b->d
}

TEST(EvaluatorTest, TransitiveClosureRecursion) {
  VideoDatabase db;
  SeedGraph(&db);
  auto eval = Evaluator::Make(
      &db, ParseRules({"reach(X, Y) <- edge(X, Y).",
                       "reach(X, Z) <- reach(X, Y), edge(Y, Z)."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->FactsFor("reach").size(), 6u);  // ab ac ad bc bd cd
}

TEST(EvaluatorTest, SemiNaiveDerivesClosureAndItsInverse) {
  VideoDatabase db;
  SeedGraph(&db);
  auto eval = Evaluator::Make(
      &db, ParseRules({"reach(X, Y) <- edge(X, Y).",
                       "reach(X, Z) <- reach(X, Y), edge(Y, Z).",
                       "sym(X, Y) <- reach(Y, X)."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->FactsFor("reach").size(), 6u);
  EXPECT_EQ(fp->FactsFor("sym").size(), 6u);
}

TEST(EvaluatorTest, BuiltinObjectEnumeration) {
  VideoDatabase db;
  SeedGraph(&db);
  ASSERT_TRUE(db.CreateInterval("gi", GeneralizedInterval::Single(0, 1)).ok());
  auto eval =
      Evaluator::Make(&db, ParseRules({"is_obj(X) <- Object(X).",
                                       "is_int(X) <- Interval(X).",
                                       "is_any(X) <- Anyobject(X)."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->FactsFor("is_obj").size(), 4u);
  EXPECT_EQ(fp->FactsFor("is_int").size(), 1u);
  EXPECT_EQ(fp->FactsFor("is_any").size(), 5u);
}

TEST(EvaluatorTest, ComparisonConstraints) {
  VideoDatabase db;
  ASSERT_TRUE(db.AssertFact("n", {Value::Int(1)}).ok());
  ASSERT_TRUE(db.AssertFact("n", {Value::Int(5)}).ok());
  ASSERT_TRUE(db.AssertFact("n", {Value::Int(9)}).ok());
  auto eval = Evaluator::Make(
      &db, ParseRules({"small(X) <- n(X), X < 6.",
                       "pairs(X, Y) <- n(X), n(Y), X < Y.",
                       "diff(X, Y) <- n(X), n(Y), X != Y."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->FactsFor("small").size(), 2u);
  EXPECT_EQ(fp->FactsFor("pairs").size(), 3u);
  EXPECT_EQ(fp->FactsFor("diff").size(), 6u);
}

TEST(EvaluatorTest, AttributeAccessConstraints) {
  VideoDatabase db;
  ObjectId o1 = *db.CreateEntity("o1");
  ObjectId o2 = *db.CreateEntity("o2");
  ASSERT_TRUE(db.SetAttribute(o1, "age", Value::Int(30)).ok());
  ASSERT_TRUE(db.SetAttribute(o2, "age", Value::Int(40)).ok());
  auto eval = Evaluator::Make(
      &db, ParseRules({"older(X, Y) <- Object(X), Object(Y), X.age > Y.age.",
                       "aged(X) <- Object(X), X.age >= 40."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  ASSERT_EQ(fp->FactsFor("older").size(), 1u);
  EXPECT_EQ(fp->FactsFor("older")[0].args[0], Value::Oid(o2));
  EXPECT_EQ(fp->FactsFor("aged").size(), 1u);
}

TEST(EvaluatorTest, UndefinedAttributeFailsConstraintSilently) {
  VideoDatabase db;
  ObjectId o1 = *db.CreateEntity("o1");
  ASSERT_TRUE(db.SetAttribute(o1, "age", Value::Int(30)).ok());
  ASSERT_TRUE(db.CreateEntity("o2").ok());  // no age
  auto eval = Evaluator::Make(
      &db, ParseRules({"aged(X) <- Object(X), X.age >= 0."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->FactsFor("aged").size(), 1u);
}

TEST(EvaluatorTest, StrictTypesTurnsMismatchIntoError) {
  VideoDatabase db;
  ASSERT_TRUE(db.AssertFact("n", {Value::String("x")}).ok());
  ASSERT_TRUE(db.AssertFact("n", {Value::Int(1)}).ok());
  EvalOptions options;
  options.strict_types = true;
  auto eval = Evaluator::Make(
      &db, ParseRules({"bad(X, Y) <- n(X), n(Y), X < Y."}), options);
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval->Fixpoint().status().IsTypeError());
}

TEST(EvaluatorTest, GroundConstraintsPruneRule) {
  VideoDatabase db;
  ASSERT_TRUE(db.AssertFact("p", {Value::Int(1)}).ok());
  auto eval = Evaluator::Make(
      &db, ParseRules({"never(X) <- p(X), 1 > 2.", "always(X) <- p(X), 1 < 2."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_TRUE(fp->FactsFor("never").empty());
  EXPECT_EQ(fp->FactsFor("always").size(), 1u);
}

TEST(EvaluatorTest, TemporalMembershipConstraint) {
  VideoDatabase db;
  ASSERT_TRUE(
      db.CreateInterval("gi", GeneralizedInterval::Single(10, 20)).ok());
  ASSERT_TRUE(db.AssertFact("probe", {Value::Int(15)}).ok());
  ASSERT_TRUE(db.AssertFact("probe", {Value::Int(25)}).ok());
  auto eval = Evaluator::Make(
      &db,
      ParseRules({"inside(T, G) <- probe(T), Interval(G), T in G.duration."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  ASSERT_EQ(fp->FactsFor("inside").size(), 1u);
  EXPECT_EQ(fp->FactsFor("inside")[0].args[0], Value::Int(15));
}

TEST(EvaluatorTest, IterationCapReported) {
  VideoDatabase db;
  ASSERT_TRUE(db.AssertFact("p", {Value::Int(0)}).ok());
  // This program is finite, but cap iterations at 1 to exercise the guard
  // with a program that needs two rounds.
  EvalOptions options;
  options.max_iterations = 1;
  auto eval = Evaluator::Make(
      &db, ParseRules({"q(X) <- p(X).", "r(X) <- q(X)."}), options);
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval->Fixpoint().status().IsEvaluationError());
}

TEST(EvaluatorTest, ApplyOnceIsInflationary) {
  VideoDatabase db;
  SeedGraph(&db);
  auto eval = Evaluator::Make(
      &db, ParseRules({"reach(X, Y) <- edge(X, Y).",
                       "reach(X, Z) <- reach(X, Y), edge(Y, Z)."}));
  ASSERT_TRUE(eval.ok());
  Interpretation empty;
  auto step1 = eval->ApplyOnce(empty);
  ASSERT_TRUE(step1.ok());
  // One application: EDB facts + first-level reach.
  EXPECT_EQ(step1->FactsFor("edge").size(), 3u);
  EXPECT_EQ(step1->FactsFor("reach").size(), 0u);  // edge not yet in input
  auto step2 = eval->ApplyOnce(*step1);
  ASSERT_TRUE(step2.ok());
  EXPECT_EQ(step2->FactsFor("reach").size(), 3u);
  EXPECT_TRUE(step1->SubsetOf(*step2));
}

TEST(EvaluatorTest, FixpointIsFixedUnderApplyOnce) {
  VideoDatabase db;
  SeedGraph(&db);
  auto eval = Evaluator::Make(
      &db, ParseRules({"reach(X, Y) <- edge(X, Y).",
                       "reach(X, Z) <- reach(X, Y), edge(Y, Z)."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  auto again = eval->ApplyOnce(*fp);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *fp);  // Lemma 3: a model satisfies TP(I) <= I
}

TEST(EvaluatorTest, ConstantInRuleBodyFiltersViaIndex) {
  VideoDatabase db;
  SeedGraph(&db);
  auto eval = Evaluator::Make(
      &db, ParseRules({"from_a(Y) <- edge(a, Y)."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  ASSERT_EQ(fp->FactsFor("from_a").size(), 1u);
  EXPECT_EQ(fp->FactsFor("from_a")[0].args[0],
            Value::Oid(*db.Resolve("b")));
}

TEST(EvaluatorTest, RepeatedVariableInLiteral) {
  VideoDatabase db;
  ObjectId a = *db.CreateEntity("a");
  ASSERT_TRUE(db.AssertFact("pair", {Value::Oid(a), Value::Oid(a)}).ok());
  ObjectId b = *db.CreateEntity("b");
  ASSERT_TRUE(db.AssertFact("pair", {Value::Oid(a), Value::Oid(b)}).ok());
  auto eval = Evaluator::Make(&db, ParseRules({"loop(X) <- pair(X, X)."}));
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->FactsFor("loop").size(), 1u);
}

}  // namespace
}  // namespace vqldb
