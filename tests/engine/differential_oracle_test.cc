// Differential testing: an independent, brute-force reference interpreter
// (ground every rule by enumerating all substitutions over the active
// domain, iterate to fixpoint) checked against the production engines on
// random programs. The two implementations share no evaluation code, so
// agreement is strong evidence of correctness.
//
// The random databases hold entities and generalized intervals with random
// entity sets and durations (empty, one closed piece, two pieces, open and
// unbounded ends), and the rule templates cover the class-literal fragment
// the engines narrow through indexes: Interval(G), `X in G.entities`,
// `O in G.entities` and `G2.duration => G1.duration`. A source that dropped
// a satisfying interval would show up here as a missing answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/engine/evaluator.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"

namespace vqldb {
namespace {

// ------------------------------------------------------------ reference

// A ground fact for the oracle: predicate plus oid arguments only.
using GroundFact = std::pair<std::string, std::vector<uint64_t>>;

// One piece of a duration: bounds (possibly infinite) and their openness.
struct Piece {
  double lo;
  double hi;
  bool lo_open;
  bool hi_open;

  bool Contains(double t) const {
    bool above = lo_open ? t > lo : t >= lo;
    bool below = hi_open ? t < hi : t <= hi;
    return above && below;
  }
};

// Every bound the generator draws is an integer in [0, kHorizon], so
// membership is constant on each open unit gap and beyond both ends: the
// integers and half-integers of [-1, kHorizon + 1] decide every inclusion.
constexpr int kHorizon = 20;

// The reference model of one database: entities, and for each interval its
// entity set and duration pieces (no pieces = the empty duration).
struct Model {
  std::set<uint64_t> entities;
  std::map<uint64_t, std::set<uint64_t>> members;  // interval -> entities
  std::map<uint64_t, std::vector<Piece>> durations;

  bool IsInterval(uint64_t id) const { return durations.count(id) > 0; }

  static bool Covers(const std::vector<Piece>& pieces, double t) {
    for (const Piece& p : pieces) {
      if (p.Contains(t)) return true;
    }
    return false;
  }

  // duration(a) is a subset of duration(b).
  bool Entails(uint64_t a, uint64_t b) const {
    for (int k = -2; k <= 2 * (kHorizon + 1); ++k) {
      double t = k / 2.0;
      if (Covers(durations.at(a), t) && !Covers(durations.at(b), t)) {
        return false;
      }
    }
    return true;
  }
};

// Evaluates one rule body under a substitution; the oracle supports the
// fragment the random generator emits: relational literals, Object(),
// Interval(), equality/disequality between variables, `X in G.entities`
// and `G2.duration => G1.duration`.
class Oracle {
 public:
  Oracle(const std::vector<Rule>& rules, std::set<GroundFact> edb,
         const Model& model, std::vector<uint64_t> domain)
      : rules_(rules),
        facts_(std::move(edb)),
        model_(model),
        domain_(std::move(domain)) {}

  const std::set<GroundFact>& Fixpoint() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Rule& rule : rules_) {
        std::map<std::string, uint64_t> subst;
        changed |= Fire(rule, VariablesOf(rule), 0, &subst);
      }
    }
    return facts_;
  }

 private:
  // Enumerates substitutions for the rule's variables in order.
  bool Fire(const Rule& rule, const std::vector<std::string>& vars,
            size_t var_index, std::map<std::string, uint64_t>* subst) {
    if (var_index == vars.size()) {
      if (!BodyHolds(rule, *subst)) return false;
      GroundFact head = Ground(rule.head, *subst);
      if (facts_.count(head)) return false;
      facts_.insert(std::move(head));
      return true;
    }
    bool changed = false;
    for (uint64_t value : domain_) {
      (*subst)[vars[var_index]] = value;
      changed |= Fire(rule, vars, var_index + 1, subst);
    }
    return changed;
  }

  GroundFact Ground(const Atom& atom,
                    const std::map<std::string, uint64_t>& subst) {
    GroundFact f;
    f.first = atom.predicate;
    for (const Term& t : atom.args) {
      VQLDB_CHECK(t.kind == Term::Kind::kVariable);
      f.second.push_back(subst.at(t.variable));
    }
    return f;
  }

  bool BodyHolds(const Rule& rule,
                 const std::map<std::string, uint64_t>& subst) {
    for (const Atom& atom : rule.body) {
      uint64_t first = atom.args.empty() ? 0 : subst.at(atom.args[0].variable);
      if (atom.predicate == kPredObject) {
        if (!model_.entities.count(first)) return false;
      } else if (atom.predicate == kPredInterval) {
        if (!model_.IsInterval(first)) return false;
      } else if (!facts_.count(Ground(atom, subst))) {
        return false;
      }
    }
    for (const ConstraintExpr& c : rule.constraints) {
      uint64_t lhs = subst.at(c.lhs.term.variable);
      uint64_t rhs = subst.at(c.rhs.term.variable);
      switch (c.kind) {
        case ConstraintExpr::Kind::kCompare:
          if (c.op == CompareOp::kEq && lhs != rhs) return false;
          if (c.op == CompareOp::kNe && lhs == rhs) return false;
          break;
        case ConstraintExpr::Kind::kMembership:  // lhs in rhs.entities
          VQLDB_CHECK(c.rhs.attribute == kAttrEntities);
          if (!model_.IsInterval(rhs) || !model_.members.at(rhs).count(lhs)) {
            return false;
          }
          break;
        case ConstraintExpr::Kind::kEntails:  // lhs.duration => rhs.duration
          VQLDB_CHECK(c.lhs.attribute == kAttrDuration &&
                      c.rhs.attribute == kAttrDuration);
          if (!model_.IsInterval(lhs) || !model_.IsInterval(rhs) ||
              !model_.Entails(lhs, rhs)) {
            return false;
          }
          break;
        default:
          VQLDB_CHECK(false);
      }
    }
    return true;
  }

  const std::vector<Rule>& rules_;
  std::set<GroundFact> facts_;
  const Model& model_;
  std::vector<uint64_t> domain_;
};

// ------------------------------------------------------------- generator

struct Scenario {
  std::unique_ptr<VideoDatabase> db;
  std::vector<Rule> rules;
  std::vector<uint64_t> domain;  // every object id
  std::vector<std::string> symbols;  // every object's symbol
  std::vector<ObjectId> entities;
  std::set<GroundFact> edb;
  Model model;
  size_t next_interval = 0;
};

// The rules over entities (d0, d1) and the class-literal fragment:
// appearances a2(entity, interval) and containments c3(interval, interval),
// in the orders that exercise every source: the entity index (with its
// input bound by an earlier step, or only by a QSQR call's head), the
// members of G.entities and the temporal index.
constexpr const char* kTemplates[] = {
    "d0(X, Y) <- e(X, Y).",
    "d0(X, Y) <- f(Y, X).",
    "d0(X, Z) <- d0(X, Y), e(Y, Z).",
    "d1(X, Y) <- e(X, Y), f(X, Y).",
    "d1(X, Y) <- d0(X, Y), X != Y.",
    "d0(X, Y) <- d1(X, Y), d1(Y, X).",
    "d1(X, X) <- e(X, Y), Object(X).",
    "d0(X, Y) <- d1(X, Z), f(Z, Y).",
    "a2(O, G) <- Interval(G), Object(O), O in G.entities.",
    "a2(X, G) <- d0(X, Y), Interval(G), X in G.entities.",
    "a2(O, G) <- Interval(G), e(O, Y), O in G.entities.",
    "c3(G1, G2) <- Interval(G1), Interval(G2), G2.duration => G1.duration.",
    "c3(G1, G2) <- a2(O, G1), Interval(G2), O in G2.entities, "
    "G2.duration => G1.duration.",
    "d1(X, Y) <- a2(X, G), Object(Y), Y in G.entities, X != Y.",
    "d0(X, Y) <- c3(G1, G2), Object(X), Object(Y), X in G1.entities, "
    "Y in G2.entities.",
};
constexpr size_t kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

// A random duration: empty, one closed piece, two pieces, or one piece with
// open or unbounded ends, all bounds integers in [0, kHorizon].
std::vector<Piece> RandomDuration(Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  auto point = [&] {
    return static_cast<double>(rng->UniformU64(kHorizon + 1));
  };
  double a = point();
  double b = point();
  if (a > b) std::swap(a, b);
  switch (rng->UniformU64(6)) {
    case 0:
      return {};
    case 1:
      return {{a, b, false, false}};
    case 2: {
      double c = std::min<double>(b + 1 + rng->UniformU64(4), kHorizon);
      double d = std::min<double>(c + rng->UniformU64(4), kHorizon);
      if (c <= b) return {{a, b, false, false}};
      return {{a, b, false, false}, {c, d, false, false}};
    }
    case 3:
      if (a == b) return {{a, b, false, false}};
      return {{a, b, rng->Bernoulli(0.5), rng->Bernoulli(0.5)}};
    case 4:
      return {{a, inf, rng->Bernoulli(0.5), true}};
    default:
      return {{-inf, b, true, rng->Bernoulli(0.5)}};
  }
}

// Adds one random interval to the database and the model.
void AddRandomInterval(Scenario* s, Rng* rng) {
  std::vector<Piece> pieces = RandomDuration(rng);
  std::vector<TimeInterval> fragments;
  for (const Piece& p : pieces) {
    fragments.emplace_back(p.lo, p.lo_open, p.hi, p.hi_open);
  }
  std::string symbol = "g" + std::to_string(s->next_interval++);
  ObjectId id = *s->db->CreateInterval(symbol, IntervalSet(fragments));
  std::set<uint64_t> members;
  size_t cast = rng->UniformU64(4);
  for (size_t k = 0; k < cast; ++k) {
    ObjectId e = s->entities[rng->UniformU64(s->entities.size())];
    VQLDB_CHECK_OK(s->db->AddEntityToInterval(id, e));
    members.insert(e.raw);
  }
  s->model.members[id.raw] = std::move(members);
  s->model.durations[id.raw] = std::move(pieces);
  s->domain.push_back(id.raw);
  s->symbols.push_back(symbol);
}

// At most `max_intervals` base intervals (the draw is made either way, so
// a seed's other choices do not move).
Scenario RandomScenario(uint64_t seed,
                        size_t max_intervals = static_cast<size_t>(-1)) {
  Rng rng(seed);
  Scenario s;
  s.db = std::make_unique<VideoDatabase>();
  size_t n = 3 + rng.UniformU64(3);
  for (size_t i = 0; i < n; ++i) {
    std::string symbol = "c" + std::to_string(i);
    ObjectId id = *s.db->CreateEntity(symbol);
    s.entities.push_back(id);
    s.model.entities.insert(id.raw);
    s.domain.push_back(id.raw);
    s.symbols.push_back(symbol);
  }
  auto assert_fact = [&](const std::string& rel, ObjectId a, ObjectId b) {
    VQLDB_CHECK_OK(s.db->AssertFact(rel, {Value::Oid(a), Value::Oid(b)}));
    s.edb.insert({rel, {a.raw, b.raw}});
  };
  for (size_t i = 0; i < 2 * n; ++i) {
    assert_fact(rng.Bernoulli(0.5) ? "e" : "f",
                s.entities[rng.UniformU64(n)], s.entities[rng.UniformU64(n)]);
  }
  size_t m = std::min<size_t>(3 + rng.UniformU64(4), max_intervals);
  for (size_t i = 0; i < m; ++i) AddRandomInterval(&s, &rng);

  size_t num_rules = 2 + rng.UniformU64(5);
  for (size_t i = 0; i < num_rules; ++i) {
    auto rule = Parser::ParseRule(kTemplates[rng.UniformU64(kNumTemplates)]);
    VQLDB_CHECK(rule.ok());
    s.rules.push_back(*rule);
  }

  // Stored rows of derived predicates: d0 and a2 are then both stored and
  // derived, through a recursive cone in some seeds and not in others.
  size_t stored = 1 + rng.UniformU64(3);
  for (size_t i = 0; i < stored; ++i) {
    assert_fact("d0", s.entities[rng.UniformU64(n)],
                s.entities[rng.UniformU64(n)]);
    ObjectId interval{s.domain[n + rng.UniformU64(m)]};
    assert_fact("a2", s.entities[rng.UniformU64(n)], interval);
  }
  return s;
}

// Closes the scenario's intervals under concatenation, as the extended
// active domain does, modelling each concatenation as the union of its
// parts' entities and durations, so the reference ranges over the same
// Interval() domain as the engine.
void CloseUnderConcatenation(Scenario* s) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<uint64_t> intervals;
    for (const auto& [id, pieces] : s->model.durations) intervals.push_back(id);
    for (size_t i = 0; i < intervals.size(); ++i) {
      for (size_t j = i + 1; j < intervals.size(); ++j) {
        const uint64_t a = intervals[i];
        const uint64_t b = intervals[j];
        auto c = s->db->Concatenate(ObjectId{a}, ObjectId{b});
        VQLDB_CHECK_OK(c.status());
        if (s->model.IsInterval(c->raw)) continue;
        std::set<uint64_t> members = s->model.members.at(a);
        members.insert(s->model.members.at(b).begin(),
                       s->model.members.at(b).end());
        std::vector<Piece> pieces = s->model.durations.at(a);
        pieces.insert(pieces.end(), s->model.durations.at(b).begin(),
                      s->model.durations.at(b).end());
        s->model.members[c->raw] = std::move(members);
        s->model.durations[c->raw] = std::move(pieces);
        s->domain.push_back(c->raw);
        changed = true;
      }
    }
  }
}

std::set<GroundFact> ReferenceFixpoint(const Scenario& s) {
  Oracle oracle(s.rules, s.edb, s.model, s.domain);
  return oracle.Fixpoint();
}

std::set<GroundFact> ToGround(const Interpretation& interp) {
  std::set<GroundFact> out;
  for (const Fact& f : interp.AllFacts()) {
    GroundFact g;
    g.first = f.relation;
    for (const Value& v : f.args) g.second.push_back(v.oid_value().raw);
    out.insert(std::move(g));
  }
  return out;
}

class DifferentialOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialOracleTest, EngineMatchesBruteForceReference) {
  Scenario s = RandomScenario(GetParam());
  std::set<GroundFact> expected = ReferenceFixpoint(s);

  auto eval = Evaluator::Make(s.db.get(), s.rules);
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  std::set<GroundFact> actual = ToGround(*fp);

  EXPECT_EQ(actual, expected) << "seed " << GetParam();
}

// The naive rounds the extended active domain runs, over a domain closed
// under concatenation up front (three base intervals at most, so the
// brute-force reference stays small).
TEST_P(DifferentialOracleTest, NaiveModeAlsoMatches) {
  Scenario s = RandomScenario(GetParam() + 777, /*max_intervals=*/3);
  CloseUnderConcatenation(&s);
  std::set<GroundFact> expected = ReferenceFixpoint(s);

  EvalOptions options;
  options.extended_active_domain = true;
  auto eval = Evaluator::Make(s.db.get(), s.rules, options);
  ASSERT_TRUE(eval.ok());
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(ToGround(*fp), expected) << "seed " << GetParam();
}

// ------------------------------------------------- strategies and goals

// One answer row as raw oids, in the goal's column order.
using Row = std::vector<uint64_t>;

// The reference answers to `pred(a0, a1)`, where an argument is a constant
// oid or, when absent, a variable; a repeated variable is `same`.
std::set<Row> ReferenceAnswers(const std::set<GroundFact>& fixpoint,
                               const std::string& pred,
                               std::optional<uint64_t> a0,
                               std::optional<uint64_t> a1, bool same) {
  std::set<Row> out;
  for (const GroundFact& f : fixpoint) {
    if (f.first != pred) continue;
    if (a0.has_value() && f.second[0] != *a0) continue;
    if (a1.has_value() && f.second[1] != *a1) continue;
    if (same && f.second[0] != f.second[1]) continue;
    Row row;
    if (!a0.has_value()) row.push_back(f.second[0]);
    if (!a1.has_value() && !same) row.push_back(f.second[1]);
    out.insert(std::move(row));
  }
  return out;
}

std::set<Row> ToRows(const QueryResult& result) {
  std::set<Row> out;
  for (const std::vector<Value>& values : result.rows) {
    Row row;
    for (const Value& v : values) row.push_back(v.oid_value().raw);
    out.insert(std::move(row));
  }
  return out;
}

// Asks every predicate under free, half-bound, bound and repeated-variable
// goals with each forced strategy, and compares with the reference. The
// stored-only e and f have an empty dependency cone.
void CheckGoals(const Scenario& s, QuerySession* session, uint64_t seed,
                const std::set<GroundFact>& fixpoint) {
  Rng rng(seed * 7919 + 13);
  auto pick = [&] { return rng.UniformU64(s.domain.size()); };
  for (const char* pred : {"d0", "d1", "a2", "c3", "e", "f"}) {
    size_t i = pick();
    size_t j = pick();
    struct Goal {
      std::string text;
      std::optional<uint64_t> a0, a1;
      bool same;
    };
    const std::string p(pred);
    const Goal goals[] = {
        {p + "(X, Y)", std::nullopt, std::nullopt, false},
        {p + "(" + s.symbols[i] + ", Y)", s.domain[i], std::nullopt, false},
        {p + "(X, " + s.symbols[j] + ")", std::nullopt, s.domain[j], false},
        {p + "(" + s.symbols[i] + ", " + s.symbols[j] + ")", s.domain[i],
         s.domain[j], false},
        {p + "(X, X)", std::nullopt, std::nullopt, true},
    };
    for (const Goal& goal : goals) {
      std::set<Row> expected =
          ReferenceAnswers(fixpoint, pred, goal.a0, goal.a1, goal.same);
      for (EvalStrategy strategy :
           {EvalStrategy::kQsqr, EvalStrategy::kMagic,
            EvalStrategy::kFixpoint}) {
        session->mutable_options()->strategy = strategy;
        auto result = session->Query("?- " + goal.text + ".");
        ASSERT_TRUE(result.ok())
            << "seed " << seed << " goal " << goal.text << ": "
            << result.status();
        EXPECT_EQ(ToRows(*result), expected)
            << "seed " << seed << " goal " << goal.text << " strategy "
            << EvalStrategyName(strategy) << " threads "
            << session->options().num_threads;
      }
    }
  }
}

void CheckStrategies(uint64_t seed, size_t num_threads) {
  Scenario s = RandomScenario(seed);
  std::set<GroundFact> fixpoint = ReferenceFixpoint(s);
  EvalOptions options;
  options.num_threads = num_threads;
  QuerySession session(s.db.get(), options);
  session.set_cache_enabled(false);
  for (const Rule& rule : s.rules) ASSERT_TRUE(session.AddRule(rule).ok());
  CheckGoals(s, &session, seed, fixpoint);
}

TEST_P(DifferentialOracleTest, StrategiesMatchReferenceSerial) {
  CheckStrategies(GetParam() + 1500, /*num_threads=*/1);
}

TEST_P(DifferentialOracleTest, StrategiesMatchReferenceParallel) {
  CheckStrategies(GetParam() + 3000, /*num_threads=*/8);
}

// Parallel rule tasks read the database's temporal index. Intervals added
// after a query leave it stale; the next 8-thread query must still see
// them (and, under TSan, must not rebuild it from several tasks at once).
TEST_P(DifferentialOracleTest, ParallelRoundsSeeIntervalsAddedSinceLastQuery) {
  Scenario s = RandomScenario(GetParam() + 4500);
  // Every narrowing source, in rules that run as parallel tasks together.
  for (size_t t : {8, 9, 11, 12, 13}) {
    auto rule = Parser::ParseRule(kTemplates[t]);
    ASSERT_TRUE(rule.ok());
    s.rules.push_back(*rule);
  }
  EvalOptions options;
  options.num_threads = 8;
  QuerySession session(s.db.get(), options);
  session.set_cache_enabled(false);
  for (const Rule& rule : s.rules) ASSERT_TRUE(session.AddRule(rule).ok());
  CheckGoals(s, &session, GetParam(), ReferenceFixpoint(s));

  Rng rng(GetParam() + 99);
  for (int i = 0; i < 3; ++i) AddRandomInterval(&s, &rng);
  CheckGoals(s, &session, GetParam() + 1, ReferenceFixpoint(s));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialOracleTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace vqldb
