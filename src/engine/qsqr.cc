#include "src/engine/qsqr.h"

#include <chrono>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "src/constraint/concrete_domain.h"
#include "src/engine/binding.h"
#include "src/engine/eval_common.h"
#include "src/model/term_dict.h"
#include "src/obs/stats.h"

namespace vqldb {
namespace {

using Clock = std::chrono::steady_clock;

// Backtracking through rule bodies recurses once per call-chain link; each
// level costs a small constant number of frames, so this bounds the stack
// at a few megabytes while admitting chains far longer than any workload.
constexpr size_t kMaxDepth = 2000;

// One call pattern: which arguments of `pred` are bound, and to what.
// Bound values are identified by their term-dictionary ids (patterns intern
// their values, so ids are always valid and id equality is value equality).
struct CallKey {
  std::string pred;
  uint64_t mask = 0;
  std::vector<uint32_t> ids;  // bound positions, ascending

  bool operator<(const CallKey& o) const {
    return std::tie(pred, mask, ids) < std::tie(o.pred, o.mask, o.ids);
  }
};

// A call's bound arguments, positionally. values/ids are sized to the call
// arity; only positions with the mask bit set are meaningful.
struct Pattern {
  uint64_t mask = 0;
  std::vector<Value> values;
  std::vector<uint32_t> ids;
};

// Whether `args` can be a row of the goal `pattern`: the same arity and
// equal (by Value `!=`, as QuerySession::AnswerFrom compares) at every bound
// position.
bool MatchesPattern(const Pattern& pattern, const std::vector<Value>& args) {
  if (args.size() != pattern.values.size()) return false;
  for (size_t i = 0; i < args.size() && i < 64; ++i) {
    if ((pattern.mask >> i & 1) && args[i] != pattern.values[i]) return false;
  }
  return true;
}

class Engine {
 public:
  Engine(const VideoDatabase& db, const EvalOptions& options)
      : db_(db), options_(options) {}

  Status Init(const Query& query, const GoalAnalysis& goal, QsqrResult* out);
  Status Run(QsqrResult* out);

 private:
  Status Solve(const std::string& pred, const Pattern& pattern, size_t depth);
  Status SolveRule(const CompiledRule& rule, const Pattern& pattern,
                   size_t depth);
  Status SolveSteps(const CompiledRule& rule, size_t step_idx, BindingEnv* env,
                    size_t depth);
  Status Emit(const CompiledRule& rule, const BindingEnv& env);
  Status CheckConstraint(const CompiledConstraint& constraint,
                         const BindingEnv& env, bool* ok);
  Status CheckInterrupt() const;
  // Polls the interrupt surface every 1024 solve steps (same granularity as
  // the bottom-up engine's emission poll).
  Status MaybePoll() {
    if ((++steps_ & 1023u) == 1023u) return CheckInterrupt();
    return Status::OK();
  }

  const VideoDatabase& db_;
  const EvalOptions& options_;
  Interpretation memo_;
  std::vector<CompiledRule> rules_;
  std::map<std::string, std::vector<size_t>> rules_by_head_;
  std::set<CallKey> calls_;  // expanded this pass
  std::string goal_pred_;
  Pattern goal_pattern_;
  bool recursive_ = false;  // some IDB predicate of the cone reaches itself
  bool changed_ = false;
  size_t passes_ = 0;
  uint64_t steps_ = 0;
  EvalStats stats_;
};

Status Engine::Init(const Query& query, const GoalAnalysis& analysis,
                    QsqrResult* out) {
  const Atom& goal = query.goal;
  const std::vector<Rule>& cone = analysis.cone;
  goal_pred_ = goal.predicate;
  recursive_ = analysis.recursive;

  // Compile the cone with the same options the bottom-up engines use, so
  // reordering (greedy or planner-driven) behaves identically.
  CompileOptions copts;
  copts.reorder_body = options_.reorder_body;
  copts.concrete_domain = options_.concrete_domain;
  copts.orderer = options_.reorder_body ? options_.body_orderer : nullptr;
  for (const Rule& rule : cone) {
    VQLDB_ASSIGN_OR_RETURN(CompiledRule compiled,
                           RuleCompiler::Compile(rule, db_, copts));
    rules_by_head_[compiled.head_predicate].push_back(rules_.size());
    rules_.push_back(std::move(compiled));
  }

  // The goal's call pattern: bound where the argument is a constant.
  TermDict& dict = TermDict::Global();
  goal_pattern_.values.resize(goal.args.size());
  goal_pattern_.ids.assign(goal.args.size(), kNoTermId);
  for (size_t i = 0; i < goal.args.size(); ++i) {
    if (goal.args[i].kind != Term::Kind::kConstant) continue;
    VQLDB_ASSIGN_OR_RETURN(Value v, ResolveConst(goal.args[i].constant, db_));
    goal_pattern_.ids[i] = dict.Intern(v).id;
    goal_pattern_.values[i] = std::move(v);
    if (i < 64) goal_pattern_.mask |= uint64_t{1} << i;
  }
  out->adornment = obs::AdornmentString(goal_pattern_.mask, goal.args.size());

  // Whether any body names the goal predicate. Only such a body, which
  // makes the goal recursive, probes the goal relation under another
  // pattern; without one its stored rows are read by nothing but
  // AnswerFrom, which drops every row that differs from a goal constant, so
  // only the matching rows load.
  bool body_names_goal = false;
  for (const CompiledRule& rule : rules_) {
    for (const CompiledStep& step : rule.steps) {
      body_names_goal |= step.literal.predicate == goal_pred_;
    }
  }
  const bool filter_goal_rows = !body_names_goal && goal_pattern_.mask != 0;

  // Load the EDB slice the cone can read: the goal relation (filtered as
  // decided above) plus every relational, non-computable body literal's
  // relation. (Head predicates may hold stored facts too — e.g. a derived
  // relation also asserted as data — so they load as well.) Governed and
  // observed like the bottom-up engine's interpretations: stored rows
  // charge the budget, and derived rows feed the statistics sketches.
  // Observation starts after the load: VideoDatabase::AssertFact already
  // recorded every stored row.
  memo_.set_budget(options_.budget);
  std::set<std::string> edb_preds = {goal_pred_};
  for (const Rule& rule : cone) {
    edb_preds.insert(rule.head.predicate);
    for (const Atom& atom : rule.body) {
      if (atom.IsBuiltinClass()) continue;
      if (options_.concrete_domain != nullptr &&
          options_.concrete_domain->HasPredicate(
              atom.predicate, static_cast<int>(atom.args.size()))) {
        continue;
      }
      edb_preds.insert(atom.predicate);
    }
  }
  for (const std::string& pred : edb_preds) {
    const bool filter = filter_goal_rows && pred == goal_pred_;
    for (const Fact& fact : db_.FactsFor(pred)) {
      if (filter && !MatchesPattern(goal_pattern_, fact.args)) continue;
      memo_.Add(fact);
    }
  }
  memo_.set_observed(true);
  return CheckInterrupt();
}

// One pass over a non-recursive cone is complete: every IDB subgoal is
// Solved before the memo is probed for it, and without a cycle a call found
// in calls_ finished its expansion earlier in the pass. A recursive cone
// repeats the pass, clearing the call set and keeping the memo, until a
// pass derives nothing new.
Status Engine::Run(QsqrResult* out) {
  do {
    ++passes_;
    if (passes_ > options_.max_iterations) {
      return Status::EvaluationError(
          "qsqr evaluation exceeds max_iterations = " +
          std::to_string(options_.max_iterations));
    }
    calls_.clear();
    changed_ = false;
    VQLDB_RETURN_NOT_OK(CheckInterrupt());
    VQLDB_RETURN_NOT_OK(Solve(goal_pred_, goal_pattern_, 0));
  } while (recursive_ && changed_);
  stats_.iterations = passes_;
  out->stats = stats_;
  out->memo = std::move(memo_);
  return Status::OK();
}

Status Engine::Solve(const std::string& pred, const Pattern& pattern,
                     size_t depth) {
  auto it = rules_by_head_.find(pred);
  if (it == rules_by_head_.end()) return Status::OK();  // pure EDB
  if (depth > kMaxDepth) {
    return Status::EvaluationError(
        "qsqr recursion depth exceeded (" + std::to_string(kMaxDepth) +
        " nested calls) solving " + pred);
  }
  CallKey key;
  key.pred = pred;
  key.mask = pattern.mask;
  for (size_t i = 0; i < pattern.ids.size() && i < 64; ++i) {
    if (pattern.mask >> i & 1) key.ids.push_back(pattern.ids[i]);
  }
  // Already expanded this pass: its answers-so-far are in the memo. In a
  // non-recursive cone that expansion has finished, so they are all there;
  // in a recursive one, any still missing surface next pass (the expansion
  // in flight sets changed_).
  if (!calls_.insert(std::move(key)).second) return Status::OK();
  for (size_t ri : it->second) {
    VQLDB_RETURN_NOT_OK(SolveRule(rules_[ri], pattern, depth));
  }
  return Status::OK();
}

Status Engine::SolveRule(const CompiledRule& rule, const Pattern& pattern,
                         size_t depth) {
  // A rule of a different head arity cannot produce facts this call's
  // probes would match.
  if (rule.head.size() != pattern.values.size()) return Status::OK();
  BindingEnv env(rule.num_vars);

  // Unify the head against the call's bound arguments — this is where the
  // goal's constants flow into the body (sideways information passing).
  for (size_t i = 0; i < rule.head.size(); ++i) {
    if (i >= 64 || !(pattern.mask >> i & 1)) continue;
    const CompiledHeadTerm& ht = rule.head[i];
    switch (ht.kind) {
      case CompiledHeadTerm::Kind::kValue:
        if (!(ht.value == pattern.values[i])) return Status::OK();
        break;
      case CompiledHeadTerm::Kind::kVar:
        if (env.IsBound(ht.var)) {
          if (!(env.Get(ht.var) == pattern.values[i])) return Status::OK();
        } else {
          env.Bind(ht.var, pattern.values[i], pattern.ids[i]);
        }
        break;
      case CompiledHeadTerm::Kind::kConcat:
        // Constructive rules are declined before evaluation starts.
        return Status::Internal("constructive head reached QSQR evaluation");
    }
  }

  for (const CompiledConstraint& c : rule.ground_constraints) {
    bool ok = false;
    VQLDB_RETURN_NOT_OK(CheckConstraint(c, env, &ok));
    if (!ok) return Status::OK();
  }
  return SolveSteps(rule, 0, &env, depth);
}

Status Engine::SolveSteps(const CompiledRule& rule, size_t step_idx,
                          BindingEnv* env, size_t depth) {
  VQLDB_RETURN_NOT_OK(MaybePoll());
  if (step_idx == rule.steps.size()) return Emit(rule, *env);
  const CompiledStep& step = rule.steps[step_idx];
  const CompiledLiteral& lit = step.literal;

  auto proceed = [&]() -> Status {
    for (const CompiledConstraint& c : step.post_constraints) {
      bool ok = false;
      VQLDB_RETURN_NOT_OK(CheckConstraint(c, *env, &ok));
      if (!ok) return Status::OK();
    }
    return SolveSteps(rule, step_idx + 1, env, depth);
  };

  if (lit.builtin != BuiltinClass::kNone) {
    return eval_common::MatchClassLiteral(db_, options_.strict_types, step,
                                          /*restrict_to=*/nullptr, env,
                                          proceed);
  }

  if (options_.concrete_domain != nullptr &&
      options_.concrete_domain->HasPredicate(
          lit.predicate, static_cast<int>(lit.args.size()))) {
    bool holds = false;
    VQLDB_RETURN_NOT_OK(eval_common::EvalConcreteLiteral(
        *options_.concrete_domain, options_.strict_types, lit, *env, &holds));
    return holds ? proceed() : Status::OK();
  }

  // Relational literal. Derive the subgoal's call pattern from the bound
  // arguments, recurse if it names an IDB predicate (filling the memo), then
  // probe the memo's hash index for matching rows, or scan it when nothing
  // is bound.
  const size_t arity = lit.args.size();
  uint64_t mask = 0;
  for (size_t i = 0; i < arity && i < 64; ++i) {
    const CompiledTerm& arg = lit.args[i];
    if (!arg.is_var || env->IsBound(arg.var)) mask |= uint64_t{1} << i;
  }
  if (rules_by_head_.count(lit.predicate)) {
    Pattern sub;
    sub.mask = mask;
    sub.values.resize(arity);
    sub.ids.assign(arity, kNoTermId);
    for (size_t i = 0; i < arity && i < 64; ++i) {
      if (!(mask >> i & 1)) continue;
      const CompiledTerm& arg = lit.args[i];
      if (arg.is_var) {
        sub.values[i] = env->Get(arg.var);
        sub.ids[i] = env->GetId(arg.var);
        if (sub.ids[i] == kNoTermId) {
          // A class-literal candidate no relation holds yet. Intern it so
          // distinct values make distinct call keys, and rebind it with its
          // id so the probe below matches the rows this call derives.
          TermDict& dict = TermDict::Global();
          sub.ids[i] = dict.Intern(sub.values[i]).id;
          env->Bind(arg.var, dict.Get(sub.ids[i]), sub.ids[i]);
        }
      } else {
        sub.values[i] = arg.value;
        sub.ids[i] = arg.value_id;
      }
    }
    VQLDB_RETURN_NOT_OK(Solve(lit.predicate, sub, depth + 1));
  }

  // Match a memo row on raw symbol ids (id equality is value equality),
  // recording bindings made here for backtracking. A binding carrying
  // kNoTermId matches nothing, correctly: its value is stored in no
  // relation. The RowRef is re-fetched per row because emissions during the
  // recursion below may regrow the id columns; positions stay valid (row
  // storage is append-only in insertion order).
  Interpretation::RelationView rel = memo_.Relation(lit.predicate);
  TermDict& dict = TermDict::Global();
  auto try_row = [&](size_t pos) -> Status {
    Interpretation::RowRef row = rel.row(pos);
    if (row.arity != arity) return Status::OK();
    int bound_here[16];
    size_t num_bound = 0;
    std::vector<int> overflow;
    bool matched = true;
    for (size_t i = 0; i < arity; ++i) {
      const CompiledTerm& arg = lit.args[i];
      uint32_t rid = row.ids[i];
      if (!arg.is_var) {
        if (arg.value_id != rid) {
          matched = false;
          break;
        }
      } else if (env->IsBound(arg.var)) {
        if (env->GetId(arg.var) != rid) {
          matched = false;
          break;
        }
      } else {
        env->Bind(arg.var, dict.Get(rid), rid);
        if (num_bound < 16) {
          bound_here[num_bound++] = arg.var;
        } else {
          overflow.push_back(arg.var);
        }
      }
    }
    Status st = matched ? proceed() : Status::OK();
    for (size_t i = 0; i < num_bound; ++i) env->Unbind(bound_here[i]);
    for (int v : overflow) env->Unbind(v);
    return st;
  };

  if (mask == 0) {
    // Nothing bound: scan the rows present when the scan starts. Like the
    // bottom-up evaluator's scans, this counts no probe.
    for (size_t pos = 0, n = rel.rows(); pos < n; ++pos) {
      VQLDB_RETURN_NOT_OK(try_row(pos));
    }
    return Status::OK();
  }
  std::vector<Value> probe_key;
  for (size_t i = 0; i < arity && i < 64; ++i) {
    if (!(mask >> i & 1)) continue;
    const CompiledTerm& arg = lit.args[i];
    probe_key.push_back(arg.is_var ? env->Get(arg.var) : arg.value);
  }
  ++stats_.join_probes;
  ++stats_.hash_join_probes;
  // Copy the candidate positions: emissions during recursion below may
  // extend the lazily built index the reference designates. Non-empty
  // candidates mean the store existed when `rel` was taken.
  std::vector<size_t> candidates =
      memo_.LookupMulti(lit.predicate, mask, probe_key);
  if (!candidates.empty()) ++stats_.join_probe_hits;
  for (size_t pos : candidates) VQLDB_RETURN_NOT_OK(try_row(pos));
  return Status::OK();
}

Status Engine::Emit(const CompiledRule& rule, const BindingEnv& env) {
  if ((stats_.rule_firings & 1023u) == 1023u) {
    VQLDB_RETURN_NOT_OK(CheckInterrupt());
  }
  Fact fact;
  fact.relation = rule.head_predicate;
  fact.args.reserve(rule.head.size());
  for (const CompiledHeadTerm& ht : rule.head) {
    switch (ht.kind) {
      case CompiledHeadTerm::Kind::kValue:
        fact.args.push_back(ht.value);
        break;
      case CompiledHeadTerm::Kind::kVar:
        fact.args.push_back(env.Get(ht.var));
        break;
      case CompiledHeadTerm::Kind::kConcat:
        return Status::Internal("constructive head reached QSQR evaluation");
    }
  }
  ++stats_.rule_firings;
  if (memo_.Add(std::move(fact))) {
    ++stats_.derived_facts;
    changed_ = true;
    if (memo_.size() > options_.max_facts) {
      return Status::EvaluationError(
          "qsqr memo exceeds max_facts = " +
          std::to_string(options_.max_facts));
    }
  }
  return Status::OK();
}

Status Engine::CheckConstraint(const CompiledConstraint& constraint,
                               const BindingEnv& env, bool* ok) {
  ++stats_.constraint_checks;
  if ((stats_.constraint_checks & 1023u) == 1023u) {
    VQLDB_RETURN_NOT_OK(CheckInterrupt());
  }
  return eval_common::CheckConstraint(db_, options_.strict_types, constraint,
                                      env, ok);
}

Status Engine::CheckInterrupt() const {
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    return Status::Cancelled("qsqr evaluation cancelled after " +
                             std::to_string(passes_) + " passes");
  }
  if (options_.deadline.has_value() && Clock::now() > *options_.deadline) {
    return Status::DeadlineExceeded(
        "qsqr deadline exceeded after " + std::to_string(passes_) +
        " passes and " + std::to_string(stats_.derived_facts) +
        " derived facts");
  }
  if (options_.budget != nullptr) {
    Status st = options_.budget->Check();
    if (!st.ok()) {
      return Status::ResourceExhausted(
          st.message() + " (after " + std::to_string(passes_) +
          " passes and " + std::to_string(stats_.derived_facts) +
          " derived facts)");
    }
  }
  return Status::OK();
}

}  // namespace

Result<QsqrResult> QsqrEvaluator::Run(const Query& query,
                                      const GoalAnalysis& analysis,
                                      const VideoDatabase& db,
                                      const EvalOptions& options) {
  const Atom& goal = query.goal;
  if (analysis.declined()) {
    return Status::InvalidArgument("qsqr declines " + goal.ToString() + ": " +
                                   analysis.decline_reason);
  }
  for (size_t i = 0; i < goal.args.size(); ++i) {
    if (goal.args[i].kind == Term::Kind::kConcat) {
      return Status::InvalidArgument(
          "constructive terms are not allowed in query goals");
    }
  }
  QsqrResult out;
  Engine engine(db, options);
  VQLDB_RETURN_NOT_OK(engine.Init(query, analysis, &out));
  VQLDB_RETURN_NOT_OK(engine.Run(&out));
  return out;
}

}  // namespace vqldb
