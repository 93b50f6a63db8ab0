// Evaluation machinery shared by the bottom-up Evaluator and the top-down
// QSQR engine: constraint operand resolution, constraint checking,
// concrete-domain literal evaluation, and builtin class literals (membership
// checks and candidate enumeration).
// Both engines must agree on these semantics exactly — the strategy
// equivalence property (QSQR ≡ magic ≡ full fixpoint) rests on it — so the
// logic lives here once, counters and interrupt polling stay with the
// callers.

#ifndef VQLDB_ENGINE_EVAL_COMMON_H_
#define VQLDB_ENGINE_EVAL_COMMON_H_

#include <algorithm>
#include <vector>

#include "src/common/result.h"
#include "src/constraint/concrete_domain.h"
#include "src/engine/binding.h"
#include "src/engine/rule_compiler.h"
#include "src/model/database.h"

namespace vqldb {
namespace eval_common {

/// Resolves one compiled constraint operand against the bindings. Attribute
/// access on a non-object or a missing attribute sets `*defined = false`
/// (the constraint then simply fails) unless `strict_types` upgrades the
/// former to TypeError.
Status ResolveOperand(const VideoDatabase& db, bool strict_types,
                      const CompiledOperand& operand, const BindingEnv& env,
                      Value* out, bool* defined);

/// Checks one compiled constraint; `*ok` receives the verdict. Status is
/// non-OK only for hard errors (strict_types type mismatches).
Status CheckConstraint(const VideoDatabase& db, bool strict_types,
                       const CompiledConstraint& constraint,
                       const BindingEnv& env, bool* ok);

/// Evaluates a concrete-domain (computable) literal over fully bound
/// arguments; `*holds` receives the verdict. EvaluationError when an
/// argument is unbound, TypeError (strict) or a false verdict (lenient)
/// when an argument is not atomic.
Status EvalConcreteLiteral(const ConcreteDomain& domain, bool strict_types,
                           const CompiledLiteral& lit, const BindingEnv& env,
                           bool* holds);

/// Class membership of a builtin literal (Interval/Object/Anyobject).
bool InClass(const VideoDatabase& db, ObjectId id, BuiltinClass builtin);

/// The values the unbound variable of a builtin class literal ranges over,
/// as an ordered subsequence of the full object domain (entities, then base
/// intervals, then derived intervals, each in creation order). Unless
/// `strict_types`, the first of the step's class sources whose input is
/// bound in `env` narrows them to a superset of the values that satisfy
/// that source's constraint; with no applicable source, the whole domain.
std::vector<ObjectId> ClassCandidates(const VideoDatabase& db,
                                      bool strict_types,
                                      const CompiledStep& step,
                                      const BindingEnv& env);

/// Runs a builtin class literal step: checks a bound argument's class, or
/// binds an unbound one to each of its ClassCandidates in turn, calling
/// `proceed()` for every match. `restrict_to` (a semi-naive round's newly
/// materialized intervals, or nullptr) replaces the candidates and filters
/// the check. The step's constraints are still checked where they are
/// scheduled, so narrowing only prunes valuations that would fail them.
/// Narrowing is off under `strict_types`: a pruned candidate could hide a
/// TypeError that checking it would raise.
template <typename Proceed>
Status MatchClassLiteral(const VideoDatabase& db, bool strict_types,
                         const CompiledStep& step,
                         const std::vector<ObjectId>* restrict_to,
                         BindingEnv* env, Proceed&& proceed) {
  const CompiledLiteral& lit = step.literal;
  const CompiledTerm& arg = lit.args[0];
  if (!arg.is_var || env->IsBound(arg.var)) {
    const Value& v = arg.is_var ? env->Get(arg.var) : arg.value;
    if (!v.is_oid() || !InClass(db, v.oid_value(), lit.builtin)) {
      return Status::OK();
    }
    if (restrict_to != nullptr &&
        std::find(restrict_to->begin(), restrict_to->end(), v.oid_value()) ==
            restrict_to->end()) {
      return Status::OK();
    }
    return proceed();
  }
  std::vector<ObjectId> candidates;
  if (restrict_to == nullptr) {
    candidates = ClassCandidates(db, strict_types, step, *env);
  }
  for (ObjectId id : restrict_to != nullptr ? *restrict_to : candidates) {
    env->Bind(arg.var, Value::Oid(id));
    Status st = proceed();
    env->Unbind(arg.var);
    VQLDB_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

}  // namespace eval_common
}  // namespace vqldb

#endif  // VQLDB_ENGINE_EVAL_COMMON_H_
