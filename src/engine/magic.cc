#include "src/engine/magic.h"

#include <cstdint>
#include <deque>
#include <set>
#include <utility>

#include "src/constraint/concrete_domain.h"
#include "src/engine/binding.h"

namespace vqldb {
namespace {

// Adornment string for (mask, arity): 'b' at bound positions. Positions
// >= 64 cannot be expressed in the bitmap and print as free.
std::string AdornString(uint64_t mask, size_t arity) {
  std::string s;
  s.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    s.push_back((i < 64 && (mask >> i & 1)) ? 'b' : 'f');
  }
  return s;
}

// Demand predicate name. '#' is unparseable in predicate names, so these
// can never collide with user predicates.
std::string MagicPredicate(const std::string& pred, uint64_t mask,
                           size_t arity) {
  return "m#" + pred + "#" + AdornString(mask, arity);
}

}  // namespace

Result<MagicRewrite> MagicSetRewriter::Rewrite(const Query& query,
                                               const GoalAnalysis& analysis,
                                               const VideoDatabase& db,
                                               const EvalOptions& options) {
  MagicRewrite out;
  const Atom& goal = query.goal;
  if (analysis.declined()) {
    return Status::InvalidArgument("the magic-set rewrite declines " +
                                   goal.ToString() + ": " +
                                   analysis.decline_reason);
  }
  const std::vector<Rule>& cone = analysis.cone;

  // IDB = predicates with at least one defining rule in the cone; literals
  // over anything else match stored facts only and need no demand.
  std::set<std::string> idb;
  for (const Rule& rule : cone) idb.insert(rule.head.predicate);

  // The goal's own adornment: bound where the argument is a constant.
  uint64_t goal_mask = 0;
  for (size_t i = 0; i < goal.args.size() && i < 64; ++i) {
    if (goal.args[i].kind == Term::Kind::kConcat) {
      return Status::InvalidArgument(
          "constructive terms are not allowed in query goals");
    }
    if (goal.args[i].kind == Term::Kind::kConstant) goal_mask |= 1ULL << i;
  }
  out.adornment = AdornString(goal_mask, goal.args.size());

  if (!idb.count(goal.predicate)) {
    // Pure EDB goal: stored facts answer it; nothing to rewrite or run.
    return out;
  }

  if (goal_mask != 0) {
    Fact seed;
    seed.relation = MagicPredicate(goal.predicate, goal_mask,
                                   goal.args.size());
    for (size_t i = 0; i < goal.args.size() && i < 64; ++i) {
      if (goal_mask >> i & 1) {
        VQLDB_ASSIGN_OR_RETURN(Value v, ResolveConst(goal.args[i].constant,
                                                     db));
        seed.args.push_back(std::move(v));
      }
    }
    out.seed_facts.push_back(std::move(seed));
  }

  // Worklist over demanded (predicate, adornment) pairs. Every demanded
  // pair contributes one guarded copy per defining rule; walking each copy's
  // body in written order (the SIPS) yields demand rules for the IDB
  // literals it joins against and possibly new demanded pairs.
  std::set<std::pair<std::string, uint64_t>> demanded;
  std::deque<std::pair<std::string, uint64_t>> work;
  demanded.insert({goal.predicate, goal_mask});
  work.push_back({goal.predicate, goal_mask});

  std::set<std::string> emitted;  // rule-text dedup across demand sources
  auto emit = [&](Rule rule, bool is_magic, bool is_guarded) {
    if (!emitted.insert(rule.ToString()).second) return;
    if (is_magic) ++out.magic_rule_count;
    if (is_guarded) ++out.guarded_rule_count;
    out.rules.push_back(std::move(rule));
  };

  while (!work.empty()) {
    auto [pred, mask] = work.front();
    work.pop_front();
    for (const Rule& rule : cone) {
      if (rule.head.predicate != pred) continue;
      const size_t arity = rule.head.args.size();

      // The demand guard for this adornment, and the variables it binds.
      std::set<std::string> bound;
      Atom guard;
      if (mask != 0) {
        guard.predicate = MagicPredicate(pred, mask, arity);
        for (size_t i = 0; i < arity && i < 64; ++i) {
          if (mask >> i & 1) {
            guard.args.push_back(rule.head.args[i]);
            if (rule.head.args[i].kind == Term::Kind::kVariable) {
              bound.insert(rule.head.args[i].variable);
            }
          }
        }
      }

      for (size_t li = 0; li < rule.body.size(); ++li) {
        const Atom& lit = rule.body[li];
        if (lit.IsBuiltinClass()) {
          // Enumerates its class; binds its variable, demands nothing.
          for (const std::string& v : VariablesOf(lit)) bound.insert(v);
          continue;
        }
        if (options.concrete_domain != nullptr &&
            options.concrete_domain->HasPredicate(
                lit.predicate, static_cast<int>(lit.args.size()))) {
          continue;  // a computable check: binds nothing, demands nothing
        }
        uint64_t lit_mask = 0;
        for (size_t ai = 0; ai < lit.args.size() && ai < 64; ++ai) {
          const Term& t = lit.args[ai];
          if (t.kind == Term::Kind::kConstant ||
              (t.kind == Term::Kind::kVariable && bound.count(t.variable))) {
            lit_mask |= 1ULL << ai;
          }
        }
        if (idb.count(lit.predicate)) {
          if (demanded.insert({lit.predicate, lit_mask}).second) {
            work.push_back({lit.predicate, lit_mask});
          }
          if (lit_mask != 0) {
            // Demand rule: the bindings this literal will be probed with,
            // derivable from the guard plus the join prefix. Constraints
            // already decidable from the prefix ride along — they restrict
            // demand to bindings the parent rule could actually use.
            Rule demand;
            demand.head.predicate =
                MagicPredicate(lit.predicate, lit_mask, lit.args.size());
            for (size_t ai = 0; ai < lit.args.size() && ai < 64; ++ai) {
              if (lit_mask >> ai & 1) demand.head.args.push_back(lit.args[ai]);
            }
            if (mask != 0) demand.body.push_back(guard);
            for (size_t pi = 0; pi < li; ++pi) {
              demand.body.push_back(rule.body[pi]);
            }
            for (const ConstraintExpr& c : rule.constraints) {
              bool all_bound = true;
              for (const std::string& v : VariablesOf(c)) {
                if (!bound.count(v)) {
                  all_bound = false;
                  break;
                }
              }
              if (all_bound) demand.constraints.push_back(c);
            }
            emit(std::move(demand), /*is_magic=*/true, /*is_guarded=*/false);
          }
        }
        for (const std::string& v : VariablesOf(lit)) bound.insert(v);
      }

      // The guarded copy: the original rule, restricted to demanded
      // bindings, still emitting into the original head predicate. The
      // guard goes first so the compiled join plan seeds from it.
      Rule copy = rule;
      if (mask != 0) copy.body.insert(copy.body.begin(), guard);
      emit(std::move(copy), /*is_magic=*/false, /*is_guarded=*/mask != 0);
    }
  }

  return out;
}

}  // namespace vqldb
