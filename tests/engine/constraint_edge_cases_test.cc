// Edge cases of constraint evaluation inside valuations: cross-kind
// comparisons, membership corner cases, mixed set/temporal operands, and
// the permissive-vs-strict type policies.

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/engine/query.h"

namespace vqldb {
namespace {

class ConstraintEdgeCasesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<QuerySession>(&db_);
    ASSERT_TRUE(session_->Load(R"(
      object o1 { score: 5, name: "alpha", tags: {1, 2, "x"} }.
      object o2 { score: 5.0, name: "beta" }.
      object o3 { name: "alpha" }.
      interval g { duration: (t >= 0 and t <= 10), entities: {o1, o2, o3} }.
      val(o1, 5).
      val(o2, "five").
    )")
                    .ok());
  }

  VideoDatabase db_;
  std::unique_ptr<QuerySession> session_;
};

TEST_F(ConstraintEdgeCasesTest, IntAndDoubleCompareEqual) {
  // o1.score is Int(5), o2.score is Double(5.0): numerically equal.
  ASSERT_TRUE(session_
                  ->AddRule("same_score(X, Y) <- Object(X), Object(Y), "
                            "X.score = Y.score, X != Y.")
                  .ok());
  auto r = session_->Query("?- same_score(X, Y).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);  // (o1,o2) and (o2,o1)
}

TEST_F(ConstraintEdgeCasesTest, OrderBetweenIncomparableKindsFails) {
  // val holds an int for o1 and a string for o2: the `<` pair mixing them
  // fails silently, the homogeneous pairs evaluate.
  ASSERT_TRUE(session_
                  ->AddRule("lt(X, Y) <- val(O1, X), val(O2, Y), X < Y.")
                  .ok());
  auto r = session_->Query("?- lt(X, Y).");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());  // 5<5 false; "five"<"five" false; mixed fail
}

TEST_F(ConstraintEdgeCasesTest, EqualityAcrossKindsIsJustFalse) {
  ASSERT_TRUE(session_
                  ->AddRule("eq(X, Y) <- val(O1, X), val(O2, Y), X = Y, "
                            "O1 != O2.")
                  .ok());
  auto r = session_->Query("?- eq(X, Y).");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());  // Int(5) != String("five"), no error
}

TEST_F(ConstraintEdgeCasesTest, MembershipInHeterogeneousSet) {
  ASSERT_TRUE(session_
                  ->AddRule("tagged(V) <- val(O, V), V in o1.tags.")
                  .ok());
  // val values are 5 and "five"; o1.tags = {1, 2, "x"}: no member.
  auto r = session_->Query("?- tagged(V).");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());

  ASSERT_TRUE(session_->AddRule("two_tag(O) <- Object(O), 2 in O.tags.").ok());
  auto two = session_->Query("?- two_tag(O).");
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->rows.size(), 1u);
}

TEST_F(ConstraintEdgeCasesTest, MembershipInNonSetFailsSilently) {
  ASSERT_TRUE(
      session_->AddRule("weird(O) <- Object(O), 1 in O.name.").ok());
  auto r = session_->Query("?- weird(O).");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(ConstraintEdgeCasesTest, InstantMembershipInDuration) {
  ASSERT_TRUE(
      session_->AddRule("covers(T) <- val(O, T), T in g.duration.").ok());
  auto r = session_->Query("?- covers(T).");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);  // 5 lies in [0,10]; "five" fails
  EXPECT_EQ(r->rows[0][0], Value::Int(5));
}

TEST_F(ConstraintEdgeCasesTest, SubsetBetweenSetAndTemporalFails) {
  ASSERT_TRUE(session_
                  ->AddRule("odd(O) <- Object(O), O.tags subset g.duration.")
                  .ok());
  auto r = session_->Query("?- odd(O).");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(ConstraintEdgeCasesTest, AccessOnNonOidFailsSilently) {
  ASSERT_TRUE(session_
                  ->AddRule("deep(X) <- val(O, X), X.anything = 1.")
                  .ok());
  auto r = session_->Query("?- deep(X).");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(ConstraintEdgeCasesTest, StrictTypesUpgradesAccessOnNonOid) {
  EvalOptions options;
  options.strict_types = true;
  QuerySession strict(&db_, options);
  ASSERT_TRUE(
      strict.AddRule("deep(X) <- val(O, X), X.anything = 1.").ok());
  const Status fresh = strict.Query("?- deep(X).").status();
  EXPECT_TRUE(fresh.IsTypeError());

  // Strict types switched on after a lax fixpoint was materialized: the
  // option is part of the cached fixpoint's key, so the session raises
  // what a fresh strict session raises.
  QuerySession flipped(&db_);
  flipped.mutable_options()->strategy = EvalStrategy::kFixpoint;
  ASSERT_TRUE(
      flipped.AddRule("deep(X) <- val(O, X), X.anything = 1.").ok());
  ASSERT_TRUE(flipped.Query("?- deep(X).").ok());
  flipped.mutable_options()->strict_types = true;
  EXPECT_EQ(flipped.Query("?- deep(X).").status().ToString(),
            fresh.ToString());
}

TEST_F(ConstraintEdgeCasesTest, EntailmentTrivialities) {
  // Empty durations entail everything; everything entails `true`-like wide
  // windows.
  ASSERT_TRUE(session_->Load(R"(
    interval nothing { duration: (false) }.
  )")
                  .ok());
  ASSERT_TRUE(session_
                  ->AddRule("sub(G1, G2) <- Interval(G1), Interval(G2), "
                            "G1.duration => G2.duration.")
                  .ok());
  auto r = session_->Query("?- sub(nothing, G).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);  // the empty extent entails both durations
  auto wide = session_->Query("?- sub(G, g).");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->rows.size(), 2u);  // g itself and `nothing`
}

TEST_F(ConstraintEdgeCasesTest, SymbolBaseAccessInConstraint) {
  // Access on a constant symbol base (the paper's `g.entities` with g a
  // constant) rather than a variable.
  ASSERT_TRUE(session_
                  ->AddRule("named_alpha(O) <- Object(O), O in g.entities, "
                            "O.name = \"alpha\".")
                  .ok());
  auto r = session_->Query("?- named_alpha(O).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);  // o1 and o3
}

}  // namespace
}  // namespace vqldb
