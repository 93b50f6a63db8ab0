#include "src/engine/goal_analysis.h"

#include <set>

namespace vqldb {
namespace {

// The rules whose head predicates `predicate` transitively depends on.
std::vector<Rule> DependencyCone(const std::string& predicate,
                                 const std::vector<Rule>& rules) {
  // Transitive closure of the head -> body-predicate dependency graph,
  // seeded at the goal predicate.
  std::set<std::string> reachable = {predicate};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : rules) {
      if (!reachable.count(rule.head.predicate)) continue;
      for (const Atom& atom : rule.body) {
        if (!atom.IsBuiltinClass() && reachable.insert(atom.predicate).second) {
          changed = true;
        }
      }
    }
  }
  std::vector<Rule> relevant;
  for (const Rule& rule : rules) {
    if (reachable.count(rule.head.predicate)) relevant.push_back(rule);
  }
  return relevant;
}

// Peels predicates whose bodies call no unpeeled head predicate; exactly
// the predicates on or above a cycle never peel.
bool IsRecursive(const std::vector<Rule>& cone) {
  std::set<std::string> unpeeled;
  for (const Rule& rule : cone) unpeeled.insert(rule.head.predicate);
  bool peeled = true;
  while (peeled) {
    peeled = false;
    for (auto it = unpeeled.begin(); it != unpeeled.end();) {
      bool calls_unpeeled = false;
      for (const Rule& rule : cone) {
        if (rule.head.predicate != *it) continue;
        for (const Atom& atom : rule.body) {
          calls_unpeeled |= unpeeled.count(atom.predicate) > 0;
        }
      }
      if (calls_unpeeled) {
        ++it;
      } else {
        it = unpeeled.erase(it);
        peeled = true;
      }
    }
  }
  return !unpeeled.empty();
}

}  // namespace

GoalAnalysis AnalyzeGoal(const Atom& goal, const std::vector<Rule>& rules,
                         const EvalOptions& options) {
  GoalAnalysis out;
  out.cone = DependencyCone(goal.predicate, rules);
  out.recursive = IsRecursive(out.cone);

  // Constructive (++) rules materialize derived intervals as a side effect
  // of the fixpoint; pruning them would materialize fewer intervals, and
  // builtin class literals (Interval / Anyobject) enumerate exactly that
  // object domain. Decline whenever pruning could shrink what a cone rule
  // observes.
  bool any_constructive = false;
  for (const Rule& rule : rules) any_constructive |= rule.IsConstructive();
  bool cone_constructive = false;
  bool cone_builtin = false;
  for (const Rule& rule : out.cone) {
    cone_constructive |= rule.IsConstructive();
    for (const Atom& atom : rule.body) cone_builtin |= atom.IsBuiltinClass();
  }
  if (goal.IsBuiltinClass()) {
    out.decline_reason = "builtin class goals enumerate the object domain";
  } else if (options.extended_active_domain) {
    out.decline_reason = "extended active domain requires the full fixpoint";
  } else if (cone_constructive) {
    out.decline_reason = "constructive rule in the goal's dependency cone";
  } else if (any_constructive && cone_builtin) {
    out.decline_reason =
        "builtin class literal depends on constructively materialized "
        "intervals";
  }
  return out;
}

StrategyChoice ChooseStrategy(EvalStrategy requested,
                              const GoalAnalysis& goal, bool sys_goal) {
  const bool forced = requested != EvalStrategy::kAuto;
  // A forced strategy that cannot run names itself before the fallback.
  const std::string fallback =
      forced ? std::string("forced ") + EvalStrategyName(requested) + "; "
             : std::string();
  if (requested == EvalStrategy::kFixpoint) {
    return {EvalStrategy::kFixpoint, "forced"};
  }
  if (goal.declined()) {
    return {EvalStrategy::kFixpoint, fallback + "declined: " +
                                         goal.decline_reason};
  }
  if (requested == EvalStrategy::kMagic) return {EvalStrategy::kMagic, "forced"};
  if (sys_goal) {
    return {EvalStrategy::kMagic, fallback + "goal observes sys_* relations"};
  }
  if (forced) return {EvalStrategy::kQsqr, "forced"};
  if (goal.recursive) return {EvalStrategy::kMagic, "recursive cone"};
  return {EvalStrategy::kQsqr, "non-recursive cone"};
}

}  // namespace vqldb
