// Magic-set rewriting: the demand transformation that makes bottom-up
// evaluation goal-directed. Given a query goal with some arguments bound to
// constants, the rewriter derives an adorned program in which every rule of
// the goal's dependency cone is guarded by a "magic" demand predicate
// (m#<pred>#<adornment>) recording which bindings the computation actually
// needs. Seeded with the goal's own bound values, the semi-naive fixpoint of
// the rewritten program derives only tuples relevant to the goal — typically
// a small fraction of the full least model — while producing exactly the
// same answer set for the goal (the equivalence is property-tested against
// the full fixpoint, serially and in parallel).
//
// Dialect notes. The rewrite targets the paper's positive rule language
// (Defs. 10-13): relational literals, builtin class literals (Interval /
// Object / Anyobject), concrete-domain checks, and constraint atoms.
//   * Adornments are bound-position bitmaps (bit i = argument i bound),
//     capped at 64 positions like the engine's join indexes; positions >= 64
//     are treated as free, which is sound (a looser guard admits more
//     tuples, never fewer).
//   * Guarded copies emit into the *original* head predicate rather than a
//     renamed adorned one. Soundness: a guarded body implies the original
//     body, so every derived fact is in the full least model. Completeness:
//     each demanded adornment contributes copies that derive every matching
//     fact, and demand propagation follows the written literal order (the
//     sideways-information-passing strategy), so prefix joins always find
//     the sub-facts they need.
//   * The '#' character cannot appear in a parsed predicate name, so magic
//     predicates can never collide with user predicates.
//
// The rewrite runs on a goal whose analysis (goal_analysis.h) did not
// decline: constructive (++) rules in the goal's cone, builtin class
// literals whose object domain constructive rules elsewhere could extend,
// the extended active domain and builtin-class goals all make pruning
// change answers, and such goals run the full fixpoint instead. Under
// EvalStrategy::kAuto the rewrite answers goals with a recursive cone and
// goals observing sys_* relations.

#ifndef VQLDB_ENGINE_MAGIC_H_
#define VQLDB_ENGINE_MAGIC_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/engine/evaluator.h"
#include "src/engine/goal_analysis.h"
#include "src/lang/ast.h"
#include "src/model/database.h"

namespace vqldb {

/// Result of the demand transformation.
struct MagicRewrite {
  /// The goal's adornment string ('b' = bound argument, 'f' = free), e.g.
  /// "bf" for ?- path(a, Y).
  std::string adornment;

  /// The rewritten program: demand rules plus guarded copies of the cone.
  std::vector<Rule> rules;
  /// Demand seed facts (the goal's bound values) for Evaluator::AddSeedFacts.
  std::vector<Fact> seed_facts;

  size_t magic_rule_count = 0;    // demand (m#...) rules generated
  size_t guarded_rule_count = 0;  // cone copies carrying a demand guard
};

class MagicSetRewriter {
 public:
  /// Rewrites the goal's dependency cone (`analysis`, of `query.goal`) for
  /// goal-directed evaluation of `query`. `db` resolves the goal's constant
  /// symbols into seed values; `options` supplies the concrete domain (whose
  /// predicates are checks, not demands). Errors on unresolvable goal
  /// constants — the same error the un-rewritten query would report — and
  /// on a declined analysis.
  static Result<MagicRewrite> Rewrite(const Query& query,
                                      const GoalAnalysis& analysis,
                                      const VideoDatabase& db,
                                      const EvalOptions& options);
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_MAGIC_H_
