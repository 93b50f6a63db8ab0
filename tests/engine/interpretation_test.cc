#include "src/engine/interpretation.h"

#include <gtest/gtest.h>

namespace vqldb {
namespace {

Fact F(const std::string& pred, std::initializer_list<int64_t> args) {
  Fact f;
  f.relation = pred;
  for (int64_t a : args) f.args.push_back(Value::Int(a));
  return f;
}

TEST(InterpretationTest, AddAndContains) {
  Interpretation interp;
  EXPECT_TRUE(interp.Add(F("p", {1})));
  EXPECT_FALSE(interp.Add(F("p", {1})));  // dedup
  EXPECT_TRUE(interp.Contains(F("p", {1})));
  EXPECT_FALSE(interp.Contains(F("p", {2})));
  EXPECT_EQ(interp.size(), 1u);
}

TEST(InterpretationTest, FactsForPreservesInsertionOrder) {
  Interpretation interp;
  interp.Add(F("p", {3}));
  interp.Add(F("p", {1}));
  interp.Add(F("p", {2}));
  const auto& facts = interp.FactsFor("p");
  ASSERT_EQ(facts.size(), 3u);
  EXPECT_EQ(facts[0].args[0].int_value(), 3);
  EXPECT_EQ(facts[2].args[0].int_value(), 2);
}

TEST(InterpretationTest, UnknownPredicateEmpty) {
  Interpretation interp;
  EXPECT_TRUE(interp.FactsFor("nope").empty());
  EXPECT_TRUE(interp.LookupMulti("nope", 0b1, {Value::Int(1)}).empty());
}

TEST(InterpretationTest, LookupIndexesByPosition) {
  Interpretation interp;
  interp.Add(F("edge", {1, 2}));
  interp.Add(F("edge", {1, 3}));
  interp.Add(F("edge", {2, 3}));
  EXPECT_EQ(interp.LookupMulti("edge", 0b01, {Value::Int(1)}).size(), 2u);
  EXPECT_EQ(interp.LookupMulti("edge", 0b10, {Value::Int(3)}).size(), 2u);
  EXPECT_TRUE(interp.LookupMulti("edge", 0b01, {Value::Int(9)}).empty());
}

TEST(InterpretationTest, LookupIndexExtendsIncrementally) {
  Interpretation interp;
  interp.Add(F("p", {1}));
  EXPECT_EQ(interp.LookupMulti("p", 0b1, {Value::Int(1)}).size(), 1u);
  interp.Add(F("q", {1}));
  Fact another = F("p", {1});
  another.args.push_back(Value::Int(9));  // p(1, 9)
  interp.Add(another);
  // The index extends over facts added after the first lookup.
  EXPECT_EQ(interp.LookupMulti("p", 0b1, {Value::Int(1)}).size(), 2u);
}

TEST(InterpretationTest, NumericCrossKindLookup) {
  Interpretation interp;
  interp.Add(F("p", {2}));
  // Int(2) and Double(2.0) are Compare-equal and hash-equal.
  EXPECT_EQ(interp.LookupMulti("p", 0b1, {Value::Double(2.0)}).size(), 1u);
}

TEST(InterpretationTest, PredicatesSorted) {
  Interpretation interp;
  interp.Add(F("zeta", {1}));
  interp.Add(F("alpha", {1}));
  EXPECT_EQ(interp.Predicates(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(InterpretationTest, SubsetAndEquality) {
  Interpretation a, b;
  a.Add(F("p", {1}));
  b.Add(F("p", {1}));
  b.Add(F("q", {2}));
  EXPECT_TRUE(a.SubsetOf(b));
  EXPECT_FALSE(b.SubsetOf(a));
  EXPECT_FALSE(a == b);
  a.Add(F("q", {2}));
  EXPECT_TRUE(a == b);
}

TEST(InterpretationTest, AllFactsCountsEverything) {
  Interpretation interp;
  interp.Add(F("p", {1}));
  interp.Add(F("q", {1}));
  interp.Add(F("q", {2}));
  EXPECT_EQ(interp.AllFacts().size(), 3u);
}

TEST(InterpretationTest, ToStringListsFacts) {
  Interpretation interp;
  interp.Add(F("p", {1}));
  EXPECT_EQ(interp.ToString(), "{p(1)}");
}

TEST(InterpretationTest, LookupMultiProbesBoundPositions) {
  Interpretation interp;
  interp.Add(F("edge", {1, 2}));
  interp.Add(F("edge", {1, 3}));
  interp.Add(F("edge", {2, 3}));
  const auto& facts = interp.FactsFor("edge");
  // Mask 0b11: both positions bound — exact-tuple probe.
  auto hits = interp.LookupMulti("edge", 0b11, {Value::Int(1), Value::Int(3)});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(facts[hits[0]], F("edge", {1, 3}));
  // Mask 0b10: only position 1 bound.
  EXPECT_EQ(interp.LookupMulti("edge", 0b10, {Value::Int(3)}).size(), 2u);
  EXPECT_TRUE(interp.LookupMulti("edge", 0b11,
                                 {Value::Int(9), Value::Int(9)})
                  .empty());
  EXPECT_TRUE(interp.LookupMulti("nope", 0b1, {Value::Int(1)}).empty());
}

TEST(InterpretationTest, LookupMultiTracksLaterInsertions) {
  Interpretation interp;
  interp.Add(F("edge", {1, 2}));
  EXPECT_EQ(interp.LookupMulti("edge", 0b01, {Value::Int(1)}).size(), 1u);
  // The index extends from its watermark when the relation grows.
  interp.Add(F("edge", {1, 5}));
  EXPECT_EQ(interp.LookupMulti("edge", 0b01, {Value::Int(1)}).size(), 2u);
}

TEST(InterpretationTest, PrepareIndexMatchesLazyLookups) {
  Interpretation interp;
  for (int64_t i = 0; i < 20; ++i) interp.Add(F("r", {i % 4, i}));
  interp.PrepareIndex("r", 0b01);
  EXPECT_EQ(interp.LookupMulti("r", 0b01, {Value::Int(2)}).size(), 5u);
  // Facts shorter than the mask's highest bound position never match.
  interp.Add(F("short", {7}));
  EXPECT_TRUE(interp.LookupMulti("short", 0b10, {Value::Int(7)}).empty());
}

TEST(InterpretationTest, ArityBeyondSixtyFourIsStructured) {
  // Facts wider than the 64-bit position bitmap index by their first 64
  // positions; probes at representable positions stay exact and shifting
  // never strays into undefined behavior.
  auto wide = [](int64_t tag, int64_t tail) {
    Fact f;
    f.relation = "wide";
    for (int i = 0; i < 70; ++i) f.args.push_back(Value::Int(0));
    f.args[0] = Value::Int(tag);
    f.args[63] = Value::Int(tag * 100);
    f.args[69] = Value::Int(tail);
    return f;
  };
  Interpretation interp;
  interp.Add(wide(1, 7));
  interp.Add(wide(2, 8));
  interp.Add(wide(2, 9));  // differs from the previous only beyond bit 63

  EXPECT_EQ(interp.LookupMulti("wide", 0b1, {Value::Int(2)}).size(), 2u);
  // Highest representable position (bit 63) probes exactly.
  uint64_t mask = (1ULL << 0) | (1ULL << 63);
  EXPECT_EQ(
      interp.LookupMulti("wide", mask, {Value::Int(1), Value::Int(100)})
          .size(),
      1u);
  // Facts differing only at positions >= 64 share an index cell; the probe
  // returns both candidates and the caller's residual checks distinguish
  // them — a full-scan-style superset, never a silent miss.
  const auto& both =
      interp.LookupMulti("wide", mask, {Value::Int(2), Value::Int(200)});
  EXPECT_EQ(both.size(), 2u);
}

TEST(InterpretationTest, GenerationAdvancesOnlyOnRealInsertions) {
  Interpretation interp;
  uint64_t g0 = interp.generation();
  interp.Add(F("p", {1}));
  EXPECT_EQ(interp.generation(), g0 + 1);
  interp.Add(F("p", {1}));  // duplicate: no mutation
  EXPECT_EQ(interp.generation(), g0 + 1);
  interp.Add(F("p", {2}));
  EXPECT_EQ(interp.generation(), g0 + 2);
}

TEST(InterpretationTest, ReprobeAfterAddSeesCompleteCandidateSet) {
  // The documented contract for holding index references across Add: copy
  // or re-probe. A re-probe (fresh LookupMulti call) always returns the
  // full, current candidate list.
  Interpretation interp;
  interp.Add(F("e", {1, 2}));
  EXPECT_EQ(interp.LookupMulti("e", 0b1, {Value::Int(1)}).size(), 1u);
  uint64_t gen = interp.generation();
  interp.Add(F("e", {1, 3}));
  EXPECT_NE(interp.generation(), gen);  // the staleness signal
  EXPECT_EQ(interp.LookupMulti("e", 0b1, {Value::Int(1)}).size(), 2u);
}

TEST(InterpretationDeathTest, AddWhileFrozenDies) {
  Interpretation interp;
  interp.Add(F("p", {1}));
  interp.Freeze();
  EXPECT_TRUE(interp.frozen());
  EXPECT_DEATH(interp.Add(F("p", {2})), "frozen");
  interp.Thaw();
  EXPECT_FALSE(interp.frozen());
  EXPECT_TRUE(interp.Add(F("p", {2})));
}

}  // namespace
}  // namespace vqldb
