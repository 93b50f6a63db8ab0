// The goal analysis: what every execution strategy needs to know about one
// query goal, computed once per query and read by QSQR, the magic-set
// rewrite, EXPLAIN and the strategy rule.
//
// By the paper's Theorems 1-3 the least fixpoint is the one semantics, so
// QSQR, magic sets and the full fixpoint return the same answers and differ
// only in cost. Under EvalStrategy::kAuto a goal runs the strategy its
// cone's shape picks, measured in DESIGN.md §12 and bench/bench_planner:
//   * declined (goal-directed pruning could change answers) -> fixpoint;
//   * the goal observes sys_* relations                     -> magic sets
//     (QSQR seeds from stored facts only; sys_* rows are seed facts);
//   * the dependency cone is recursive                      -> magic sets
//     (QSQR repeats whole passes until nothing new derives);
//   * otherwise                                             -> QSQR
//     (one top-down pass, no demand relations).

#ifndef VQLDB_ENGINE_GOAL_ANALYSIS_H_
#define VQLDB_ENGINE_GOAL_ANALYSIS_H_

#include <string>
#include <vector>

#include "src/engine/evaluator.h"
#include "src/lang/ast.h"

namespace vqldb {

struct GoalAnalysis {
  /// The goal's dependency cone: the rules whose head predicates the goal
  /// predicate transitively depends on, in original rule order. A rule
  /// outside the cone cannot contribute a fact the goal can reach.
  std::vector<Rule> cone;
  /// Some head predicate of the cone reaches itself through the relational
  /// literals of rule bodies (a rule naming its own head counts).
  bool recursive = false;
  /// Why goal-directed evaluation (QSQR and magic sets alike) must decline,
  /// or empty: builtin-class goals, the extended active domain, and
  /// constructive rules in (or observable from) the cone make pruning
  /// change answers. A declined goal runs the full fixpoint.
  std::string decline_reason;

  bool declined() const { return !decline_reason.empty(); }
};

GoalAnalysis AnalyzeGoal(const Atom& goal, const std::vector<Rule>& rules,
                         const EvalOptions& options);

/// The strategy a goal runs and why, one line for EXPLAIN.
struct StrategyChoice {
  EvalStrategy strategy = EvalStrategy::kFixpoint;
  std::string reason;
};

/// `requested` resolved for one goal: kAuto by the rule above; a forced
/// strategy as asked, except that a declined goal runs the fixpoint and
/// QSQR hands a goal observing sys_* relations (`sys_goal`) to magic sets.
StrategyChoice ChooseStrategy(EvalStrategy requested,
                              const GoalAnalysis& goal, bool sys_goal);

}  // namespace vqldb

#endif  // VQLDB_ENGINE_GOAL_ANALYSIS_H_
