#include "src/engine/rule_compiler.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "src/constraint/concrete_domain.h"
#include "src/engine/binding.h"

namespace vqldb {

CompiledTerm CompiledTerm::Const(Value v) {
  // Intern at compile time: the id is stable for the process lifetime, so
  // it stays valid even if the constant only enters a relation later, and
  // the evaluator's merge path never touches the dictionary for constants.
  uint32_t id = TermDict::Global().Intern(v).id;
  return CompiledTerm{false, std::move(v), -1, id};
}

namespace {

BuiltinClass ClassOf(const std::string& predicate) {
  if (predicate == kPredInterval) return BuiltinClass::kInterval;
  if (predicate == kPredObject) return BuiltinClass::kObject;
  if (predicate == kPredAnyobject) return BuiltinClass::kAnyobject;
  return BuiltinClass::kNone;
}

class CompileContext {
 public:
  explicit CompileContext(const VideoDatabase& db) : db_(db) {}

  int SlotOf(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) return it->second;
    int slot = static_cast<int>(names_.size());
    slots_.emplace(name, slot);
    names_.push_back(name);
    return slot;
  }

  Result<CompiledTerm> CompileTerm(const Term& term) {
    switch (term.kind) {
      case Term::Kind::kVariable:
        return CompiledTerm::Var(SlotOf(term.variable));
      case Term::Kind::kConstant: {
        VQLDB_ASSIGN_OR_RETURN(Value v, ResolveConst(term.constant, db_));
        return CompiledTerm::Const(std::move(v));
      }
      case Term::Kind::kConcat:
        return Status::InvalidArgument(
            "constructive term " + term.ToString() +
            " cannot appear in this position");
    }
    return Status::Internal("unhandled term kind");
  }

  Result<CompiledOperand> CompileOperand(const Operand& operand) {
    CompiledOperand out;
    switch (operand.kind) {
      case Operand::Kind::kTerm:
        if (operand.term.kind == Term::Kind::kVariable) {
          out.kind = CompiledOperand::Kind::kVar;
          out.var = SlotOf(operand.term.variable);
          out.vars.push_back(out.var);
        } else {
          VQLDB_ASSIGN_OR_RETURN(Value v,
                                 ResolveConst(operand.term.constant, db_));
          out.kind = CompiledOperand::Kind::kValue;
          out.value = std::move(v);
        }
        return out;
      case Operand::Kind::kAccess:
        out.kind = CompiledOperand::Kind::kAccess;
        out.attribute = operand.attribute;
        if (operand.term.kind == Term::Kind::kVariable) {
          out.base_is_var = true;
          out.var = SlotOf(operand.term.variable);
          out.vars.push_back(out.var);
        } else {
          VQLDB_ASSIGN_OR_RETURN(Value v,
                                 ResolveConst(operand.term.constant, db_));
          out.base_is_var = false;
          out.base_value = std::move(v);
        }
        return out;
      case Operand::Kind::kTemporal:
        out.kind = CompiledOperand::Kind::kTemporal;
        out.value = Value::Temporal(operand.temporal.ToIntervalSet());
        return out;
    }
    return Status::Internal("unhandled operand kind");
  }

  Result<CompiledHeadTerm> CompileHeadTerm(const Term& term) {
    CompiledHeadTerm out;
    switch (term.kind) {
      case Term::Kind::kVariable:
        out.kind = CompiledHeadTerm::Kind::kVar;
        out.var = SlotOf(term.variable);
        return out;
      case Term::Kind::kConstant: {
        VQLDB_ASSIGN_OR_RETURN(Value v, ResolveConst(term.constant, db_));
        out.kind = CompiledHeadTerm::Kind::kValue;
        out.value = std::move(v);
        return out;
      }
      case Term::Kind::kConcat: {
        out.kind = CompiledHeadTerm::Kind::kConcat;
        for (const Term& op : term.operands) {
          VQLDB_ASSIGN_OR_RETURN(CompiledTerm ct, CompileTerm(op));
          if (!ct.is_var && !ct.value.is_oid()) {
            return Status::TypeError(
                "concatenation operand " + op.ToString() +
                " must denote an interval object");
          }
          out.concat_operands.push_back(std::move(ct));
        }
        return out;
      }
    }
    return Status::Internal("unhandled head term kind");
  }

  const std::vector<std::string>& names() const { return names_; }

 private:
  const VideoDatabase& db_;
  std::map<std::string, int> slots_;
  std::vector<std::string> names_;
};

}  // namespace

namespace {

// Greedy bound-first ordering over compiled literals: repeatedly pick the
// literal maximizing (bound argument positions, then fewest free variables),
// treating builtin class literals as maximally unselective when unbound.
// A computable (concrete-domain) literal cannot bind variables — the
// evaluator raises EvaluationError if one runs with an unbound argument —
// so it is only eligible once every variable it mentions is already bound.
// (The old greedy scored a literal like lt(Y, 5) as highly bound, hoisting
// it ahead of the literal producing Y and turning a valid written order
// into a runtime error.)
std::vector<CompiledLiteral> ReorderLiterals(
    std::vector<CompiledLiteral> literals,
    const std::vector<bool>& computable) {
  std::vector<CompiledLiteral> ordered;
  std::set<int> bound;
  std::vector<bool> used(literals.size(), false);
  for (size_t step = 0; step < literals.size(); ++step) {
    int best = -1;
    int best_score = std::numeric_limits<int>::min();
    for (size_t i = 0; i < literals.size(); ++i) {
      if (used[i]) continue;
      const CompiledLiteral& lit = literals[i];
      int bound_args = 0;
      int free_vars = 0;
      for (const CompiledTerm& t : lit.args) {
        if (!t.is_var || bound.count(t.var)) {
          ++bound_args;
        } else {
          ++free_vars;
        }
      }
      if (computable[i] && free_vars != 0) continue;  // illegal yet
      int score = 100 * bound_args - free_vars;
      // An unbound builtin enumerates the whole object domain: deprioritize.
      if (lit.builtin != BuiltinClass::kNone && bound_args == 0) score -= 1000;
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {
      // Only computable literals with unbound variables remain — the program
      // is not range-restricted under any order. Fall back to written order
      // for the rest so the evaluator reports the same error it always has.
      for (size_t i = 0; i < literals.size(); ++i) {
        if (used[i]) continue;
        best = static_cast<int>(i);
        break;
      }
    }
    used[static_cast<size_t>(best)] = true;
    for (const CompiledTerm& t : literals[static_cast<size_t>(best)].args) {
      if (t.is_var) bound.insert(t.var);
    }
    ordered.push_back(std::move(literals[static_cast<size_t>(best)]));
  }
  return ordered;
}

// Applies a policy-supplied permutation, enforcing the same legality rule.
// Returns false (leaving `literals` untouched) when the permutation is
// malformed or strands a computable literal before its producers.
bool ApplyOrderer(const LiteralOrderer& orderer,
                  std::vector<CompiledLiteral>* literals,
                  const std::vector<bool>& computable) {
  const size_t n = literals->size();
  std::vector<size_t> perm = orderer.OrderBody(*literals, computable);
  if (perm.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (size_t i : perm) {
    if (i >= n || seen[i]) return false;
    seen[i] = true;
  }
  std::set<int> bound;
  for (size_t i : perm) {
    const CompiledLiteral& lit = (*literals)[i];
    if (computable[i]) {
      for (const CompiledTerm& t : lit.args) {
        if (t.is_var && !bound.count(t.var)) return false;
      }
    }
    for (const CompiledTerm& t : lit.args) {
      if (t.is_var) bound.insert(t.var);
    }
  }
  std::vector<CompiledLiteral> ordered;
  ordered.reserve(n);
  for (size_t i : perm) ordered.push_back(std::move((*literals)[i]));
  *literals = std::move(ordered);
  return true;
}

// The class sources of an unbound class literal over variable slot `v`:
// every constraint shaped like one of ClassSource's kinds whose other side
// does not mention `v`. `written` and `compiled` are the rule's constraints
// in source order, before and after compilation.
std::vector<ClassSource> ClassSourcesFor(
    BuiltinClass builtin, int v, const std::vector<ConstraintExpr>& written,
    const std::vector<CompiledConstraint>& compiled) {
  auto mentions_v = [v](const CompiledOperand& op) {
    return std::find(op.vars.begin(), op.vars.end(), v) != op.vars.end();
  };
  auto is_v_attribute = [v](const CompiledOperand& op, const char* attribute) {
    return op.kind == CompiledOperand::Kind::kAccess && op.base_is_var &&
           op.var == v && op.attribute == attribute;
  };
  std::vector<ClassSource> lookups;
  std::vector<ClassSource> ranges;
  for (size_t i = 0; i < compiled.size(); ++i) {
    const CompiledConstraint& c = compiled[i];
    if (c.kind == ConstraintExpr::Kind::kMembership &&
        builtin == BuiltinClass::kInterval &&
        is_v_attribute(c.rhs, kAttrEntities) && !mentions_v(c.lhs)) {
      lookups.push_back({ClassSource::Kind::kEntityIndex, c.lhs,
                         written[i].lhs.ToString()});
    } else if (c.kind == ConstraintExpr::Kind::kMembership &&
               c.lhs.kind == CompiledOperand::Kind::kVar && c.lhs.var == v &&
               !mentions_v(c.rhs)) {
      lookups.push_back({ClassSource::Kind::kSetMembers, c.rhs,
                         written[i].rhs.ToString()});
    } else if (c.kind == ConstraintExpr::Kind::kEntails &&
               builtin == BuiltinClass::kInterval &&
               is_v_attribute(c.lhs, kAttrDuration) && !mentions_v(c.rhs)) {
      ranges.push_back({ClassSource::Kind::kTemporalIndex, c.rhs,
                        written[i].rhs.ToString()});
    }
  }
  lookups.insert(lookups.end(), ranges.begin(), ranges.end());
  return lookups;
}

}  // namespace

Result<CompiledRule> RuleCompiler::Compile(const Rule& rule,
                                           const VideoDatabase& db,
                                           bool reorder_body) {
  CompileOptions options;
  options.reorder_body = reorder_body;
  return Compile(rule, db, options);
}

Result<CompiledRule> RuleCompiler::Compile(const Rule& rule,
                                           const VideoDatabase& db,
                                           const CompileOptions& options) {
  CompileContext ctx(db);
  CompiledRule out;
  out.name = rule.name;
  out.head_predicate = rule.head.predicate;
  out.is_constructive = rule.IsConstructive();

  // Compile body literals first so that variable slots are numbered in
  // binding order (heads reuse body slots; the analyzer guarantees range
  // restriction).
  std::vector<CompiledLiteral> literals;
  for (const Atom& atom : rule.body) {
    CompiledLiteral lit;
    lit.predicate = atom.predicate;
    lit.builtin = ClassOf(atom.predicate);
    for (const Term& t : atom.args) {
      VQLDB_ASSIGN_OR_RETURN(CompiledTerm ct, ctx.CompileTerm(t));
      lit.args.push_back(std::move(ct));
    }
    literals.push_back(std::move(lit));
  }
  if (options.reorder_body || options.orderer != nullptr) {
    // Concrete-domain literals are computable checks: they must not be
    // scheduled before the literals that bind their variables.
    std::vector<bool> computable(literals.size(), false);
    for (size_t i = 0; i < literals.size(); ++i) {
      computable[i] =
          options.concrete_domain != nullptr &&
          literals[i].builtin == BuiltinClass::kNone &&
          options.concrete_domain->HasPredicate(
              literals[i].predicate, static_cast<int>(literals[i].args.size()));
    }
    bool ordered = false;
    if (options.orderer != nullptr) {
      ordered = ApplyOrderer(*options.orderer, &literals, computable);
    }
    if (!ordered && options.reorder_body) {
      literals = ReorderLiterals(std::move(literals), computable);
    }
  }

  // Compile constraints and record their variable requirements.
  struct PendingConstraint {
    CompiledConstraint compiled;
    std::set<int> needed;
  };
  std::vector<PendingConstraint> pending;
  std::vector<CompiledConstraint> constraints;
  for (const ConstraintExpr& c : rule.constraints) {
    PendingConstraint pc;
    pc.compiled.kind = c.kind;
    pc.compiled.op = c.op;
    pc.compiled.source = c.ToString();
    VQLDB_ASSIGN_OR_RETURN(pc.compiled.lhs, ctx.CompileOperand(c.lhs));
    VQLDB_ASSIGN_OR_RETURN(pc.compiled.rhs, ctx.CompileOperand(c.rhs));
    for (int v : pc.compiled.lhs.vars) pc.needed.insert(v);
    for (int v : pc.compiled.rhs.vars) pc.needed.insert(v);
    constraints.push_back(pc.compiled);
    pending.push_back(std::move(pc));
  }

  // Schedule: after each literal, attach every not-yet-scheduled constraint
  // whose variables are all bound by the literals so far.
  std::set<int> bound;
  std::vector<bool> scheduled(pending.size(), false);
  for (size_t i = 0; i < pending.size(); ++i) {
    if (pending[i].needed.empty()) {
      out.ground_constraints.push_back(pending[i].compiled);
      scheduled[i] = true;
    }
  }
  for (CompiledLiteral& lit : literals) {
    CompiledStep step;
    // The bound-position bitmap must be computed against the variables bound
    // by *earlier* literals only, before this literal's own variables join
    // the bound set.
    for (size_t i = 0; i < lit.args.size() && i < 64; ++i) {
      const CompiledTerm& t = lit.args[i];
      if (!t.is_var || bound.count(t.var)) step.bound_mask |= uint64_t{1} << i;
    }
    // A non-empty contiguous prefix of bound positions is exactly the key
    // shape the sorted segments answer by binary search.
    step.merge_eligible = lit.builtin == BuiltinClass::kNone &&
                          step.bound_mask != 0 &&
                          (step.bound_mask & (step.bound_mask + 1)) == 0;
    if (lit.builtin != BuiltinClass::kNone && lit.args[0].is_var &&
        !bound.count(lit.args[0].var)) {
      step.class_sources = ClassSourcesFor(lit.builtin, lit.args[0].var,
                                           rule.constraints, constraints);
    }
    for (const CompiledTerm& t : lit.args) {
      if (t.is_var) bound.insert(t.var);
    }
    step.literal = std::move(lit);
    for (size_t i = 0; i < pending.size(); ++i) {
      if (scheduled[i]) continue;
      bool ready = std::all_of(
          pending[i].needed.begin(), pending[i].needed.end(),
          [&](int v) { return bound.count(v) > 0; });
      if (ready) {
        step.post_constraints.push_back(pending[i].compiled);
        scheduled[i] = true;
      }
    }
    out.steps.push_back(std::move(step));
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    if (!scheduled[i]) {
      return Status::InvalidArgument(
          "constraint " + pending[i].compiled.source +
          " uses variables never bound by a body literal (range restriction)");
    }
  }

  // Head template.
  for (const Term& t : rule.head.args) {
    VQLDB_ASSIGN_OR_RETURN(CompiledHeadTerm ht, ctx.CompileHeadTerm(t));
    if (ht.kind == CompiledHeadTerm::Kind::kVar &&
        !bound.count(ht.var) && !rule.IsFact()) {
      return Status::InvalidArgument(
          "head variable " + ctx.names()[static_cast<size_t>(ht.var)] +
          " is not bound by any body literal (range restriction)");
    }
    if (ht.kind == CompiledHeadTerm::Kind::kConcat) {
      for (const CompiledTerm& op : ht.concat_operands) {
        if (op.is_var && !bound.count(op.var)) {
          return Status::InvalidArgument(
              "concatenation operand variable " +
              ctx.names()[static_cast<size_t>(op.var)] +
              " is not bound by any body literal (range restriction)");
        }
      }
    }
    out.head.push_back(std::move(ht));
  }

  out.var_names = ctx.names();
  out.num_vars = out.var_names.size();
  return out;
}

std::string ExplainRule(const CompiledRule& rule, bool strict_types,
                        std::optional<uint64_t> qsqr_call) {
  std::ostringstream os;
  os << "rule " << (rule.name.empty() ? rule.head_predicate : rule.name)
     << " (" << rule.num_vars << " variable"
     << (rule.num_vars == 1 ? "" : "s") << ")\n";
  auto term_name = [&](const CompiledTerm& t) {
    return t.is_var ? rule.var_names[static_cast<size_t>(t.var)]
                    : t.value.ToString();
  };

  for (const CompiledConstraint& c : rule.ground_constraints) {
    os << "  pre-check " << c.source << "\n";
  }

  std::set<int> bound;
  if (qsqr_call.has_value()) {
    for (size_t i = 0; i < rule.head.size() && i < 64; ++i) {
      const CompiledHeadTerm& ht = rule.head[i];
      if ((*qsqr_call >> i & 1) && ht.kind == CompiledHeadTerm::Kind::kVar) {
        bound.insert(ht.var);
      }
    }
  }
  for (size_t i = 0; i < rule.steps.size(); ++i) {
    const CompiledStep& step = rule.steps[i];
    const CompiledLiteral& lit = step.literal;
    os << "  " << (i + 1) << ". ";
    if (lit.builtin != BuiltinClass::kNone) {
      const CompiledTerm& arg = lit.args[0];
      bool arg_bound = !arg.is_var || bound.count(arg.var);
      os << (arg_bound ? "check " : "enumerate ") << lit.predicate << "("
         << term_name(arg) << ")";
      if (!arg_bound) {
        // The engines' choice when the source's input is a constant or
        // bound by an earlier step; none under strict types.
        const ClassSource* source =
            strict_types ? nullptr : step.FirstBoundSource([&](int v) {
              return bound.count(v) > 0;
            });
        if (source == nullptr) {
          os << "  [scan object domain]";
        } else if (source->kind == ClassSource::Kind::kEntityIndex) {
          os << "  [entity index on " << source->input_text << "]";
        } else if (source->kind == ClassSource::Kind::kSetMembers) {
          os << "  [members of " << source->input_text << "]";
        } else {
          os << "  [temporal index on " << source->input_text << "]";
        }
      }
    } else {
      os << "match " << lit.predicate << "(";
      for (size_t a = 0; a < lit.args.size(); ++a) {
        if (a) os << ", ";
        os << term_name(lit.args[a]);
      }
      os << ")";
      // Mirror the engine's access path: bottom-up, a merge join when the
      // bound positions form a contiguous prefix (binary search over sorted
      // segments), else a multi-column hash index probe on every bound
      // position; under QSQR always the hash index; with nothing bound, a
      // full scan.
      std::vector<size_t> probe_positions;
      for (size_t a = 0; a < lit.args.size() && a < 64; ++a) {
        const CompiledTerm& t = lit.args[a];
        if (!t.is_var || bound.count(t.var)) probe_positions.push_back(a);
      }
      const char* strategy = step.merge_eligible && !qsqr_call.has_value()
                                 ? "merge join"
                                 : "index probe";
      if (probe_positions.size() == 1) {
        os << "  [" << strategy << " on argument " << (probe_positions[0] + 1)
           << "]";
      } else if (!probe_positions.empty()) {
        os << "  [" << strategy << " on arguments ";
        for (size_t k = 0; k < probe_positions.size(); ++k) {
          if (k) os << ",";
          os << (probe_positions[k] + 1);
        }
        os << "]";
      } else {
        os << "  [full scan]";
      }
    }
    os << "\n";
    for (const CompiledTerm& t : lit.args) {
      if (t.is_var) bound.insert(t.var);
    }
    for (const CompiledConstraint& c : step.post_constraints) {
      os << "     check " << c.source << "\n";
    }
  }

  os << "  emit " << rule.head_predicate << "(";
  for (size_t i = 0; i < rule.head.size(); ++i) {
    if (i) os << ", ";
    const CompiledHeadTerm& ht = rule.head[i];
    switch (ht.kind) {
      case CompiledHeadTerm::Kind::kValue:
        os << ht.value.ToString();
        break;
      case CompiledHeadTerm::Kind::kVar:
        os << rule.var_names[static_cast<size_t>(ht.var)];
        break;
      case CompiledHeadTerm::Kind::kConcat: {
        for (size_t k = 0; k < ht.concat_operands.size(); ++k) {
          if (k) os << " ++ ";
          os << term_name(ht.concat_operands[k]);
        }
        os << "  [materialize derived interval]";
        break;
      }
    }
  }
  os << ")\n";
  return os.str();
}

}  // namespace vqldb
