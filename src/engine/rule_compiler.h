// Compiles parsed rules into an executable plan:
//   * variables are numbered densely (BindingEnv slots);
//   * parse-time constants are resolved to Values (symbols to oids);
//   * body literals keep their written order (the classic Datalog
//     convention: the author controls the join order), and each constraint
//     is scheduled immediately after the earliest literal prefix that binds
//     all of its variables;
//   * each unbound builtin class literal records the constraints that can
//     narrow its enumeration (ClassSource);
//   * the head is compiled to an emission template, including constructive
//     (++) concatenation terms.

#ifndef VQLDB_ENGINE_RULE_COMPILER_H_
#define VQLDB_ENGINE_RULE_COMPILER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/constraint/interval_set.h"
#include "src/lang/ast.h"
#include "src/model/database.h"
#include "src/model/term_dict.h"

namespace vqldb {

/// A compiled term: a resolved constant or a variable slot. Constants are
/// interned at compile time, so the evaluator's merge-join path compares and
/// composes probe keys on raw symbol ids.
struct CompiledTerm {
  bool is_var = false;
  Value value;  // when !is_var
  int var = -1;  // when is_var
  uint32_t value_id = kNoTermId;  // set when !is_var

  static CompiledTerm Const(Value v);
  static CompiledTerm Var(int slot) {
    return CompiledTerm{true, Value(), slot, kNoTermId};
  }
};

/// Builtin class predicates are dispatched specially (they range over the
/// database's object domain rather than stored facts).
enum class BuiltinClass { kNone, kInterval, kObject, kAnyobject };

/// A compiled body literal.
struct CompiledLiteral {
  std::string predicate;
  BuiltinClass builtin = BuiltinClass::kNone;
  std::vector<CompiledTerm> args;
};

/// A compiled constraint operand.
struct CompiledOperand {
  enum class Kind { kValue, kVar, kAccess, kTemporal };
  Kind kind = Kind::kValue;
  Value value;            // kValue; also the temporal Value for kTemporal
  int var = -1;           // kVar; base slot for kAccess when base_is_var
  bool base_is_var = false;   // kAccess
  Value base_value;       // kAccess with constant (symbol) base
  std::string attribute;  // kAccess
  std::vector<int> vars;  // all variable slots this operand needs bound
};

/// A compiled constraint atom.
struct CompiledConstraint {
  ConstraintExpr::Kind kind = ConstraintExpr::Kind::kCompare;
  CompareOp op = CompareOp::kEq;
  CompiledOperand lhs;
  CompiledOperand rhs;
  std::string source;  // original text, for error messages
};

/// A narrower candidate source for the variable V of an unbound builtin
/// class literal, read off a constraint of the same rule. Each kind yields a
/// superset of the values that can satisfy its constraint:
///   kEntityIndex   `X in V.entities` (Interval(V) only): the intervals
///                  VideoDatabase::IntervalsWithEntity(X) lists;
///   kSetMembers    `V in S`: the oid members of S in V's class;
///   kTemporalIndex `V.duration => W` (Interval(V) only): the intervals
///                  whose duration overlaps W, plus those whose duration is
///                  empty.
/// `input` is the constraint's other side (X, S or W); the source applies
/// once every variable in `input.vars` is bound.
struct ClassSource {
  enum class Kind { kEntityIndex, kSetMembers, kTemporalIndex };
  Kind kind = Kind::kEntityIndex;
  CompiledOperand input;
  std::string input_text;  // the input as written, for EXPLAIN
};

/// One execution step: match a literal, then check any constraints that have
/// just become fully bound.
struct CompiledStep {
  CompiledLiteral literal;
  std::vector<CompiledConstraint> post_constraints;
  /// Bit i set iff argument position i of the literal is statically bound
  /// when this step runs: a constant, or a variable first bound by an
  /// earlier step. (Earlier steps always bind all their variables before
  /// control reaches this step, so the mask is exact, not approximate.)
  /// Positions >= 64 are never marked. The bottom-up evaluator probes by
  /// this mask (QSQR derives its own at run time, head bindings included).
  uint64_t bound_mask = 0;
  /// True iff this is a relational literal whose bound positions form a
  /// non-empty contiguous prefix of its arguments (bound_mask =
  /// 0b0...01...1) — the shape the sorted columnar segments answer by
  /// binary search. The bottom-up evaluator merge-joins such steps and
  /// probes the hash index (LookupMulti) for every other bound step.
  bool merge_eligible = false;
  /// For a builtin class literal whose variable no earlier step binds: the
  /// sources that can narrow its enumeration, index lookups before temporal
  /// ranges and otherwise in constraint order.
  std::vector<ClassSource> class_sources;

  /// The source the engines narrow through (eval_common::ClassCandidates)
  /// and EXPLAIN names: the first whose input variables all satisfy
  /// `is_bound`, or nullptr.
  template <typename IsBound>
  const ClassSource* FirstBoundSource(IsBound&& is_bound) const {
    for (const ClassSource& source : class_sources) {
      if (std::all_of(source.input.vars.begin(), source.input.vars.end(),
                      is_bound)) {
        return &source;
      }
    }
    return nullptr;
  }
};

/// A compiled head term: constant, variable, or concatenation of slots.
struct CompiledHeadTerm {
  enum class Kind { kValue, kVar, kConcat };
  Kind kind = Kind::kValue;
  Value value;
  int var = -1;
  std::vector<CompiledTerm> concat_operands;  // each a var or an oid constant
};

/// The executable rule.
struct CompiledRule {
  std::string name;
  std::string head_predicate;
  std::vector<CompiledHeadTerm> head;
  std::vector<CompiledStep> steps;
  /// Constraints with no variables at all (checked once, before stepping).
  std::vector<CompiledConstraint> ground_constraints;
  size_t num_vars = 0;
  std::vector<std::string> var_names;  // slot -> surface name
  bool is_constructive = false;
};

class ConcreteDomain;

/// A pluggable body-literal ordering policy (the planner implements this
/// with selectivity estimates). `computable[i]` marks literals evaluated as
/// concrete-domain checks — they cannot bind variables, so any returned
/// order must place them after a literal prefix that binds all their
/// variables. OrderBody returns a permutation of [0, literals.size()); an
/// invalid permutation (or an order that strands a computable literal) makes
/// the compiler fall back to the written order.
class LiteralOrderer {
 public:
  virtual ~LiteralOrderer() = default;
  virtual std::vector<size_t> OrderBody(
      const std::vector<CompiledLiteral>& literals,
      const std::vector<bool>& computable) const = 0;
};

/// Knobs of one compilation.
struct CompileOptions {
  /// Greedy bound-first reordering of body literals (the classic join
  /// heuristic), used when no `orderer` is supplied.
  bool reorder_body = false;
  /// Identifies concrete-domain (computable) literals so any reordering
  /// keeps them after the literals that bind their variables. Not owned.
  const ConcreteDomain* concrete_domain = nullptr;
  /// Stats-driven ordering policy; overrides the greedy heuristic. Not
  /// owned; must outlive the Compile call only.
  const LiteralOrderer* orderer = nullptr;
};

class RuleCompiler {
 public:
  /// Compiles `rule` against `db` (for symbol resolution). The rule must
  /// already have passed Analyzer::CheckRule. When reordering is requested
  /// (options.reorder_body or options.orderer), body literals are permuted —
  /// greedily bound-first, or by the supplied policy — under the legality
  /// constraint that concrete-domain literals never precede the literals
  /// binding their variables. Constraint scheduling is unaffected (still as
  /// early as possible).
  static Result<CompiledRule> Compile(const Rule& rule,
                                      const VideoDatabase& db,
                                      const CompileOptions& options);

  /// Legacy entry point: equivalent to CompileOptions{reorder_body}.
  static Result<CompiledRule> Compile(const Rule& rule,
                                      const VideoDatabase& db,
                                      bool reorder_body = false);
};

/// Renders the executable plan of a compiled rule — step order, the access
/// path each literal will use (merge join vs. hash index probe vs. scan vs.
/// class-literal source vs. domain enumeration), and where each constraint
/// is checked. The EXPLAIN facility behind the shell's `.explain` command.
/// `strict_types` mirrors the EvalOptions field. Without `qsqr_call` the
/// plan is the bottom-up engines'. With it, the plan is QSQR's for a call
/// binding the head positions set in the mask: head unification binds
/// those variables before the first step, and every bound literal probes
/// the hash index, since QSQR's memo grows between probes and has no
/// sealed segments to merge-join on.
std::string ExplainRule(const CompiledRule& rule, bool strict_types = false,
                        std::optional<uint64_t> qsqr_call = std::nullopt);

}  // namespace vqldb

#endif  // VQLDB_ENGINE_RULE_COMPILER_H_
