// QSQR (Query-Subquery Recursive) evaluation: top-down memoized backward
// chaining. Where the magic-set rewrite makes the *bottom-up* engine
// goal-directed by materializing demand relations (m#pred#adornment) and
// running a full semi-naive fixpoint over the rewritten program, QSQR walks
// the rules of the goal's dependency cone top-down, tuple at a time,
// pushing the goal's bound arguments into rule bodies directly — no demand
// relations, no rewritten program, no per-round delta bookkeeping.
//
// The engine keeps one memo Interpretation of every answer derived so far
// (seeded with the stored rows the cone can read) and a per-pass set of
// expanded call patterns (predicate, adornment, bound values). Solving a
// goal expands each defining rule once per pass: the head is unified
// against the call's bound arguments, the body is walked left-to-right
// with backtracking, IDB subgoals recurse (then probe the memo), EDB
// literals probe the memo directly. Each IDB subgoal is solved before its
// probe, so when no IDB predicate of the cone reaches itself one pass is
// complete: a call met twice was expanded to completion the first time. In
// a recursive cone a probe can meet a call still being expanded, whose
// later answers are not re-joined within the pass, so the outer loop
// repeats — clearing the call set, keeping the memo — until a full pass
// derives nothing new. Answers grow monotonically and are bounded by the
// finite ground-atom universe, so the loop terminates; on the final
// (quiescent) pass every probe saw the complete answer set, which gives
// completeness. Soundness is immediate: every emission instantiates a
// program rule over memo facts.
//
// Of the goal relation's stored rows, only those matching the goal's arity
// and constants load, unless a rule body names the goal predicate: without
// such a body nothing but the final answer extraction reads them. Stored
// relations read inside rule bodies load whole.
//
// Equivalence: for every goal QSQR answers, the answer set equals the
// magic-set evaluation's and the full fixpoint's restriction to the goal —
// property-tested across serial / parallel / deadlined / governed modes.
// The shared semantic kernel (eval_common.h) keeps constraint checking,
// concrete-domain literals and builtin-class domains identical by
// construction.
//
// QSQR runs on a goal whose analysis (goal_analysis.h) did not decline;
// the cases that make goal-directed pruning unsound are the magic
// rewrite's too, and such goals run the full fixpoint. Under
// EvalStrategy::kAuto QSQR answers every goal with a non-recursive cone
// that observes no sys_* relation: one pass, no demand relations.

#ifndef VQLDB_ENGINE_QSQR_H_
#define VQLDB_ENGINE_QSQR_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/engine/evaluator.h"
#include "src/engine/goal_analysis.h"
#include "src/engine/interpretation.h"
#include "src/lang/ast.h"
#include "src/model/database.h"

namespace vqldb {

/// Result of one QSQR evaluation.
struct QsqrResult {
  /// The goal's adornment string ('b' = bound argument, 'f' = free).
  std::string adornment;

  /// Everything derived, plus the stored rows the cone can read (of the
  /// goal relation, only those matching the goal unless a rule body names
  /// it): the goal's answers are the memo's goal-predicate facts that match
  /// the goal. Budget-governed when the options carry a budget.
  Interpretation memo;

  /// `iterations` counts outer passes: 1 for a non-recursive cone; a
  /// recursive one repeats until a pass derives nothing new. Join counters
  /// count memo probes.
  EvalStats stats;
};

class QsqrEvaluator {
 public:
  /// Answers `query` top-down over its goal's dependency cone (`analysis`,
  /// of `query.goal`; an error when it declined). `db` supplies the EDB and
  /// resolves goal constants; it is never mutated (constructive rules make
  /// the analysis decline). Honors options.deadline / cancel / budget at the
  /// same granularity as the bottom-up engine, and options.max_iterations /
  /// max_facts as caps on outer passes / memo size.
  static Result<QsqrResult> Run(const Query& query,
                                const GoalAnalysis& analysis,
                                const VideoDatabase& db,
                                const EvalOptions& options);
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_QSQR_H_
