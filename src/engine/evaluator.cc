#include "src/engine/evaluator.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <sstream>
#include <thread>

#include "src/common/thread_pool.h"
#include "src/engine/binding.h"
#include "src/engine/eval_common.h"
#include "src/lang/analyzer.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

namespace vqldb {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Evaluator counters/histograms in the process-wide registry, resolved once.
struct EvalMetrics {
  obs::Counter* fixpoints;
  obs::Counter* rounds;
  obs::Counter* rule_firings;
  obs::Counter* derived_facts;
  obs::Counter* delta_tuples;
  obs::Counter* constraint_checks;
  obs::Counter* intervals_created;
  obs::Counter* parallel_tasks;
  obs::Counter* join_probes;
  obs::Counter* join_probe_hits;
  obs::Counter* merge_join_probes;
  obs::Counter* hash_join_probes;
  obs::Counter* deadline_exceeded;
  obs::Counter* cancelled;
  obs::Counter* resource_exhausted;
  obs::Histogram* fixpoint_ms;
  obs::Histogram* round_ms;
};

EvalMetrics& GetEvalMetrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static EvalMetrics m{
      registry.GetCounter("vqldb_eval_fixpoints_total",
                          "Fixpoint computations completed"),
      registry.GetCounter("vqldb_eval_rounds_total",
                          "Fixpoint rounds (iterations) run"),
      registry.GetCounter("vqldb_eval_rule_firings_total",
                          "Successful rule head emissions"),
      registry.GetCounter("vqldb_eval_derived_facts_total",
                          "Facts derived beyond the EDB"),
      registry.GetCounter("vqldb_eval_delta_tuples_total",
                          "Facts entering semi-naive round deltas"),
      registry.GetCounter("vqldb_eval_constraint_checks_total",
                          "Constraint checks performed by rule bodies"),
      registry.GetCounter("vqldb_eval_intervals_created_total",
                          "Derived intervals materialized by constructive rules"),
      registry.GetCounter("vqldb_eval_parallel_tasks_total",
                          "(rule, delta_pos) tasks fanned out on the pool"),
      registry.GetCounter("vqldb_eval_join_probes_total",
                          "Multi-column join-index probes issued"),
      registry.GetCounter("vqldb_eval_join_probe_hits_total",
                          "Join-index probes that found candidate facts"),
      registry.GetCounter("vqldb_eval_merge_join_probes_total",
                          "Join probes answered by sorted-segment merge join"),
      registry.GetCounter("vqldb_eval_hash_join_probes_total",
                          "Join probes answered by multi-column hash indexes"),
      registry.GetCounter("vqldb_queries_deadline_exceeded_total",
                          "Evaluations abandoned at their wall-clock deadline"),
      registry.GetCounter("vqldb_queries_cancelled_total",
                          "Evaluations abandoned via a CancelToken"),
      registry.GetCounter("vqldb_queries_resource_exhausted_total",
                          "Evaluations aborted by a resource budget trip"),
      registry.GetHistogram("vqldb_eval_fixpoint_ms",
                            "Wall time of whole fixpoint computations (ms)",
                            obs::DefaultLatencyBucketsMs()),
      registry.GetHistogram("vqldb_eval_round_ms",
                            "Wall time of individual fixpoint rounds (ms)",
                            obs::DefaultLatencyBucketsMs()),
  };
  return m;
}

void PublishEvalMetrics(const EvalStats& stats, double total_ms) {
  if (!obs::MetricsEnabled()) return;
  EvalMetrics& m = GetEvalMetrics();
  m.fixpoints->Increment();
  m.rounds->Increment(stats.iterations);
  m.rule_firings->Increment(stats.rule_firings);
  m.derived_facts->Increment(stats.derived_facts);
  m.delta_tuples->Increment(stats.delta_tuples);
  m.constraint_checks->Increment(stats.constraint_checks);
  m.intervals_created->Increment(stats.intervals_created);
  m.parallel_tasks->Increment(stats.parallel_tasks);
  m.join_probes->Increment(stats.join_probes);
  m.join_probe_hits->Increment(stats.join_probe_hits);
  m.merge_join_probes->Increment(stats.merge_join_probes);
  m.hash_join_probes->Increment(stats.hash_join_probes);
  m.fixpoint_ms->Observe(total_ms);
}

}  // namespace

const char* EvalStrategyName(EvalStrategy strategy) {
  switch (strategy) {
    case EvalStrategy::kAuto: return "auto";
    case EvalStrategy::kQsqr: return "qsqr";
    case EvalStrategy::kMagic: return "magic";
    case EvalStrategy::kFixpoint: return "fixpoint";
  }
  return "auto";
}

std::string EvalProfile::ToString() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "per rule:\n";
  os << "  " << std::left << std::setw(28) << "rule" << std::right
     << std::setw(7) << "tasks" << std::setw(10) << "firings" << std::setw(11)
     << "new facts" << std::setw(11) << "wall ms" << "\n";
  for (const RuleProfile& r : rules) {
    os << "  " << std::left << std::setw(28) << r.label << std::right
       << std::setw(7) << r.tasks << std::setw(10) << r.firings
       << std::setw(11) << r.derived << std::setw(11) << r.wall_ms << "\n";
  }
  os << "per round:\n";
  os << "  " << std::right << std::setw(7) << "round" << std::setw(7)
     << "tasks" << std::setw(11) << "new facts" << std::setw(11) << "wall ms"
     << "\n";
  for (const RoundProfile& r : rounds) {
    os << "  " << std::right << std::setw(7) << r.round << std::setw(7)
       << r.tasks << std::setw(11) << r.new_facts << std::setw(11) << r.wall_ms
       << "\n";
  }
  os << "total: " << rounds.size() << " round" << (rounds.size() == 1 ? "" : "s")
     << ", " << total_ms << " ms\n";
  return os.str();
}

Evaluator::Evaluator(VideoDatabase* db, EvalOptions options)
    : db_(db), options_(options), ctx_(std::make_unique<ExecContext>()) {
  ctx_->set_cancel(options_.cancel.get());
  ctx_->set_deadline(options_.deadline);
  ctx_->set_budget(options_.budget.get());
}

void Evaluator::Govern(Interpretation* interp) const {
  if (options_.budget != nullptr) interp->set_budget(options_.budget);
}
Evaluator::Evaluator(Evaluator&&) noexcept = default;
Evaluator& Evaluator::operator=(Evaluator&&) noexcept = default;
Evaluator::~Evaluator() = default;

size_t Evaluator::effective_threads() const {
  if (options_.num_threads != 0) return options_.num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Result<Evaluator> Evaluator::Make(VideoDatabase* db, std::vector<Rule> rules,
                                  EvalOptions options) {
  if (db == nullptr) {
    return Status::InvalidArgument("database must not be null");
  }
  Evaluator eval(db, options);
  std::map<std::string, size_t> arities;
  for (Rule& rule : rules) {
    VQLDB_RETURN_NOT_OK(Analyzer::CheckRule(rule, &arities));
    CompileOptions copts;
    copts.reorder_body = options.reorder_body;
    copts.concrete_domain = options.concrete_domain;
    copts.orderer = options.reorder_body ? options.body_orderer : nullptr;
    VQLDB_ASSIGN_OR_RETURN(CompiledRule compiled,
                           RuleCompiler::Compile(rule, *db, copts));
    eval.rules_.push_back(std::move(compiled));
    eval.source_rules_.push_back(std::move(rule));
  }
  return eval;
}

Result<Interpretation> Evaluator::Edb() const {
  Interpretation edb;
  for (const std::string& relation : db_->RelationNames()) {
    for (const Fact& fact : db_->FactsFor(relation)) {
      edb.Add(fact);
    }
  }
  for (const Fact& fact : seed_facts_) edb.Add(fact);
  return edb;
}

void Evaluator::AddSeedFacts(std::vector<Fact> facts) {
  for (Fact& f : facts) seed_facts_.push_back(std::move(f));
}

Status Evaluator::MaterializeExtendedDomain() {
  // Def. 19: extend the current interval domain with all pairwise
  // concatenations. Materializing registers each new object, so repeated
  // calls converge to the closure under (+).
  std::vector<ObjectId> snapshot = db_->AllIntervals();
  for (size_t i = 0; i < snapshot.size(); ++i) {
    VQLDB_RETURN_NOT_OK(CheckInterrupt());
    for (size_t j = i + 1; j < snapshot.size(); ++j) {
      Result<ObjectId> r = db_->Concatenate(snapshot[i], snapshot[j]);
      if (!r.ok()) return r.status();
      if (db_->derived_interval_count() > options_.max_facts) {
        return Status::ResourceExhausted(
            "extended active domain exceeds max_facts");
      }
    }
  }
  return Status::OK();
}

Status Evaluator::ResolveOperand(const CompiledOperand& operand,
                                 const BindingEnv& env, Value* out,
                                 bool* defined) {
  return eval_common::ResolveOperand(*db_, options_.strict_types, operand, env,
                                     out, defined);
}

Status Evaluator::CheckConstraint(const CompiledConstraint& constraint,
                                  const BindingEnv& env, bool* ok,
                                  EvalStats* stats) {
  ++stats->constraint_checks;
  // Constraint-heavy bodies may never emit a head; poll here too so a
  // filter-everything scan still observes deadline/cancel/budget trips.
  if ((stats->constraint_checks & 1023u) == 0u) {
    VQLDB_RETURN_NOT_OK(CheckInterrupt());
  }
  return eval_common::CheckConstraint(*db_, options_.strict_types, constraint,
                                      env, ok);
}

Status Evaluator::EmitHead(const CompiledRule& rule, const BindingEnv& env,
                           Interpretation* out, EvalStats* stats) {
  // Intra-rule interrupt granularity: one rule evaluation can emit millions
  // of heads between round boundaries, so poll every 1024 firings (counters
  // are per-task blocks — the mask works per thread).
  if ((stats->rule_firings & 1023u) == 1023u) {
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
      case CompiledHeadTerm::Kind::kConcat: {
        ObjectId acc;
        bool first = true;
        for (const CompiledTerm& op : ht.concat_operands) {
          const Value& v = op.is_var ? env.Get(op.var) : op.value;
          if (!v.is_oid() || !db_->IsInterval(v.oid_value())) {
            if (options_.strict_types) {
              return Status::TypeError(
                  "concatenation operand " + v.ToString() +
                  " is not an interval object in rule " + rule.head_predicate);
            }
            return Status::OK();  // silently skip this valuation
          }
          if (first) {
            acc = v.oid_value();
            first = false;
          } else {
            size_t before = db_->derived_interval_count();
            VQLDB_ASSIGN_OR_RETURN(acc, db_->Concatenate(acc, v.oid_value()));
            size_t created = db_->derived_interval_count() - before;
            stats->intervals_created += created;
            if (created != 0 && options_.budget != nullptr) {
              // Meter materialized derived intervals: object + attributes
              // (duration fragments, entity set) live in the database until
              // the governed caller's rollback anchor reclaims them.
              VQLDB_ASSIGN_OR_RETURN(const VideoObject* obj,
                                     db_->GetObject(acc));
              size_t bytes = sizeof(VideoObject);
              for (const auto& [name, value] : obj->attributes()) {
                bytes += name.capacity() + value.ApproxBytes();
              }
              options_.budget->ChargeBytes(bytes);
              options_.budget->ChargeTuples(created);
            }
          }
        }
        fact.args.push_back(Value::Oid(acc));
        break;
      }
    }
  }
  ++stats->rule_firings;
  if (out->Add(std::move(fact))) ++stats->derived_facts;
  return Status::OK();
}

Status Evaluator::EvalSteps(const CompiledRule& rule, size_t step_idx,
                            const Interpretation& full,
                            const Interpretation* delta, int delta_pos,
                            const std::vector<ObjectId>* interval_delta,
                            BindingEnv* env, Interpretation* out,
                            EvalStats* stats, EvalScratch* scratch) {
  if (step_idx == rule.steps.size()) {
    return EmitHead(rule, *env, out, stats);
  }
  const CompiledStep& step = rule.steps[step_idx];
  const CompiledLiteral& lit = step.literal;
  bool restricted = delta_pos == static_cast<int>(step_idx);

  // Checks the step's post-constraints and recurses on success.
  auto proceed = [&]() -> Status {
    for (const CompiledConstraint& c : step.post_constraints) {
      bool ok = false;
      VQLDB_RETURN_NOT_OK(CheckConstraint(c, *env, &ok, stats));
      if (!ok) return Status::OK();
    }
    return EvalSteps(rule, step_idx + 1, full, delta, delta_pos,
                     interval_delta, env, out, stats, scratch);
  };

  if (lit.builtin != BuiltinClass::kNone) {
    // Semi-naive rounds restrict interval-bearing classes at the delta
    // position to the previous round's newly materialized intervals.
    const std::vector<ObjectId>* domain_delta =
        (restricted && lit.builtin != BuiltinClass::kObject) ? interval_delta
                                                             : nullptr;
    return eval_common::MatchClassLiteral(*db_, options_.strict_types, step,
                                          domain_delta, env, proceed);
  }

  // Concrete-domain predicate (Def. 1): evaluate as a computable check over
  // the bound arguments.
  if (options_.concrete_domain != nullptr &&
      options_.concrete_domain->HasPredicate(
          lit.predicate, static_cast<int>(lit.args.size()))) {
    bool holds = false;
    VQLDB_RETURN_NOT_OK(eval_common::EvalConcreteLiteral(
        *options_.concrete_domain, options_.strict_types, lit, *env, &holds));
    return holds ? proceed() : Status::OK();
  }

  // Relational literal: the probe's shape picks the access path. When the
  // statically bound argument positions form a contiguous prefix,
  // binary-search the sorted segments on the raw symbol-id key; otherwise
  // probe the multi-column hash index on every bound position; with nothing
  // bound, scan the relation. All three yield candidates in ascending
  // insertion order, so the derived fact stream does not depend on the path.
  const Interpretation& source = restricted ? *delta : full;
  Interpretation::RelationView& rel = scratch->rels[step_idx];
  if (!scratch->rel_ready[step_idx]) {
    rel = source.Relation(lit.predicate);
    scratch->rel_ready[step_idx] = 1;
  }
  if (!rel.valid()) return Status::OK();
  TermDict& dict = TermDict::Global();

  auto try_row = [&](Interpretation::RowRef row) -> Status {
    if (row.arity != lit.args.size()) return Status::OK();
    // Match arguments on raw symbol ids (id equality is exactly Value
    // equality — terms are interned by Compare-equivalence class), recording
    // bindings made here for backtracking. A binding carrying kNoTermId
    // matches nothing, correctly: its value is stored in no relation.
    int bound_here[16];
    size_t num_bound = 0;
    std::vector<int> overflow;
    bool matched = true;
    for (size_t i = 0; i < lit.args.size(); ++i) {
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

  uint64_t probe_mask = step.bound_mask;
  if (step.merge_eligible) {
    // Merge join: compose the prefix key from compile-time constant ids and
    // the ids carried by earlier bindings, then binary-search the sealed
    // sorted runs (RunRound seals right after freezing).
    uint32_t key_ids[64];
    uint32_t key_len = static_cast<uint32_t>(__builtin_popcountll(probe_mask));
    bool dead = false;
    for (uint32_t i = 0; i < key_len; ++i) {
      const CompiledTerm& arg = lit.args[i];
      uint32_t id = arg.is_var ? env->GetId(arg.var) : arg.value_id;
      if (id == kNoTermId) {
        dead = true;  // a key value stored in no relation: zero candidates
        break;
      }
      key_ids[i] = id;
    }
    ++stats->join_probes;
    ++stats->merge_join_probes;
    ++scratch->probe_aggs[step_idx].probes;
    if (!dead) {
      std::vector<size_t>& candidates = scratch->candidates[step_idx];
      rel.ProbeSorted(key_ids, key_len,
                      static_cast<uint32_t>(lit.args.size()), &candidates);
      if (!candidates.empty()) ++stats->join_probe_hits;
      scratch->probe_aggs[step_idx].candidates += candidates.size();
      for (size_t fi : candidates) {
        VQLDB_RETURN_NOT_OK(try_row(rel.row(fi)));
      }
    }
    return Status::OK();
  }
  if (probe_mask != 0) {
    std::vector<Value>& probe_key = scratch->probe_keys[step_idx];
    probe_key.clear();
    // i < 64: shifting a uint64_t by >= 64 is UB, and the compiler never
    // marks positions beyond 63 in bound_mask (arity > 64 literals probe on
    // their first 64 positions and filter the rest in try_row).
    for (size_t i = 0; i < lit.args.size() && i < 64 && (probe_mask >> i) != 0;
         ++i) {
      if (!(probe_mask >> i & 1)) continue;
      const CompiledTerm& arg = lit.args[i];
      probe_key.push_back(arg.is_var ? env->Get(arg.var) : arg.value);
    }
    const std::vector<size_t>& candidates =
        source.LookupMulti(lit.predicate, probe_mask, probe_key);
    ++stats->join_probes;
    ++stats->hash_join_probes;
    ++scratch->probe_aggs[step_idx].probes;
    scratch->probe_aggs[step_idx].candidates += candidates.size();
    if (!candidates.empty()) ++stats->join_probe_hits;
    for (size_t fi : candidates) {
      VQLDB_RETURN_NOT_OK(try_row(rel.row(fi)));
    }
    return Status::OK();
  }
  for (size_t r = 0, n = rel.rows(); r < n; ++r) {
    VQLDB_RETURN_NOT_OK(try_row(rel.row(r)));
  }
  return Status::OK();
}

Status Evaluator::EvalRule(const CompiledRule& rule, const Interpretation& full,
                           const Interpretation* delta, int delta_pos,
                           const std::vector<ObjectId>* interval_delta,
                           Interpretation* out, EvalStats* stats) {
  BindingEnv env(rule.num_vars);
  for (const CompiledConstraint& c : rule.ground_constraints) {
    bool ok = false;
    VQLDB_RETURN_NOT_OK(CheckConstraint(c, env, &ok, stats));
    if (!ok) return Status::OK();
  }
  EvalScratch scratch;
  scratch.candidates.resize(rule.steps.size());
  scratch.probe_keys.resize(rule.steps.size());
  scratch.rels.resize(rule.steps.size());
  scratch.rel_ready.assign(rule.steps.size(), 0);
  scratch.probe_aggs.assign(rule.steps.size(), {});
  Status st = EvalSteps(rule, 0, full, delta, delta_pos, interval_delta, &env,
                        out, stats, &scratch);
  if (obs::StatsEnabled()) {
    // Fold this task's probe counters into the per-(predicate, adornment)
    // selectivity EWMAs: one collector call per probed step, not per probe.
    for (size_t i = 0; i < rule.steps.size(); ++i) {
      const EvalScratch::ProbeAgg& agg = scratch.probe_aggs[i];
      if (agg.probes == 0) continue;
      const CompiledStep& step = rule.steps[i];
      obs::StatsCollector::Global().RecordProbes(
          step.literal.predicate,
          obs::AdornmentString(step.bound_mask, step.literal.args.size()),
          agg.probes, agg.candidates,
          scratch.rel_ready[i] ? scratch.rels[i].rows() : 0);
    }
  }
  return st;
}

void Evaluator::PrepareJoinIndexes(const Interpretation& full,
                                   const Interpretation* delta) const {
  for (const CompiledRule& rule : rules_) {
    for (const CompiledStep& step : rule.steps) {
      const CompiledLiteral& lit = step.literal;
      if (lit.builtin != BuiltinClass::kNone || step.bound_mask == 0) continue;
      if (step.merge_eligible) {
        continue;  // answered by sorted-segment search, no hash index needed
      }
      if (options_.concrete_domain != nullptr &&
          options_.concrete_domain->HasPredicate(
              lit.predicate, static_cast<int>(lit.args.size()))) {
        continue;  // computable predicate, never probed as a relation
      }
      full.PrepareIndex(lit.predicate, step.bound_mask);
      if (delta != nullptr) delta->PrepareIndex(lit.predicate, step.bound_mask);
    }
  }
}

bool Evaluator::ReadsTemporalIndex() const {
  if (options_.strict_types) return false;  // class literals never narrow
  for (const CompiledRule& rule : rules_) {
    for (const CompiledStep& step : rule.steps) {
      for (const ClassSource& source : step.class_sources) {
        if (source.kind == ClassSource::Kind::kTemporalIndex) return true;
      }
    }
  }
  return false;
}

void Evaluator::EnsureProfileRules() {
  if (profile_.rules.size() == rules_.size()) return;
  profile_.rules.assign(rules_.size(), RuleProfile{});
  std::map<std::string, size_t> seen;
  for (size_t i = 0; i < rules_.size(); ++i) {
    std::string label = rules_[i].name.empty() ? rules_[i].head_predicate
                                               : rules_[i].name;
    size_t n = ++seen[label];
    if (n > 1) label += "#" + std::to_string(n);
    profile_.rules[i].label = std::move(label);
  }
}

Status Evaluator::CheckInterrupt() const {
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    return Status::Cancelled("evaluation cancelled after " +
                             std::to_string(stats_.iterations) + " rounds");
  }
  if (options_.deadline.has_value() && Clock::now() > *options_.deadline) {
    return Status::DeadlineExceeded(
        "evaluation deadline exceeded after " +
        std::to_string(stats_.iterations) + " rounds and " +
        std::to_string(stats_.derived_facts) + " derived facts");
  }
  if (options_.budget != nullptr) {
    Status st = options_.budget->Check();
    if (!st.ok()) {
      return Status::ResourceExhausted(
          st.message() + " (after " + std::to_string(stats_.iterations) +
          " rounds and " + std::to_string(stats_.derived_facts) +
          " derived facts)");
    }
  }
  // Solver code bails out through the thread-local context (e.g. an order
  // closure abandoned mid-loop): surface the recorded status here so the
  // conservative solver answer never reaches a caller.
  if (ctx_ != nullptr && ctx_->interrupted()) return ctx_->status();
  return Status::OK();
}

namespace {
// Freezes the round's shared interpretations for the duration of a scope:
// task bodies hold LookupMulti references into them, so any Add
// (insert-while-iterating) must die loudly instead of invalidating live
// iterations. Derived facts go to per-task private outputs, never here.
class FreezeScope {
 public:
  FreezeScope(const Interpretation& full, const Interpretation* delta)
      : full_(full), delta_(delta) {
    full_.Freeze();
    if (delta_ != nullptr) delta_->Freeze();
  }
  ~FreezeScope() {
    full_.Thaw();
    if (delta_ != nullptr) delta_->Thaw();
  }

 private:
  const Interpretation& full_;
  const Interpretation* delta_;
};
}  // namespace

Status Evaluator::RunRound(const std::vector<RuleTask>& tasks,
                           const Interpretation& full,
                           const Interpretation* delta,
                           const std::vector<ObjectId>* interval_delta,
                           Interpretation* out) {
  FreezeScope freeze(full, delta);
  // Seal the round's inputs so merge-eligible steps binary-search immutable
  // sorted runs instead of scanning an unsealed tail. Skipped entirely when
  // no compiled step can take the merge path.
  bool any_merge = false;
  for (const CompiledRule& rule : rules_) {
    for (const CompiledStep& step : rule.steps) {
      any_merge |= step.merge_eligible;
    }
  }
  if (any_merge) {
    full.SealSegments();
    if (delta != nullptr) delta->SealSegments();
  }
  const bool prof = options_.collect_profile;
  if (prof) EnsureProfileRules();
  size_t threads = effective_threads();
  size_t parallelizable = 0;
  for (const RuleTask& t : tasks) {
    if (!rules_[t.rule_idx].is_constructive) ++parallelizable;
  }
  if (threads <= 1 || parallelizable <= 1) {
    // The exact legacy path: every task in order, on this thread.
    for (const RuleTask& t : tasks) {
      VQLDB_RETURN_NOT_OK(CheckInterrupt());
      const CompiledRule& rule = rules_[t.rule_idx];
      EvalStats before;
      Clock::time_point start;
      if (prof) {
        before = stats_;
        start = Clock::now();
      }
      Status st;
      {
        obs::TraceSpan span("rule", rule.head_predicate);
        st = EvalRule(rule, full, delta, t.delta_pos, interval_delta, out,
                      &stats_);
      }
      VQLDB_RETURN_NOT_OK(st);
      if (prof) {
        RuleProfile& rp = profile_.rules[t.rule_idx];
        ++rp.tasks;
        rp.wall_ms += MsSince(start);
        rp.firings += stats_.rule_firings - before.rule_firings;
        rp.derived += stats_.derived_facts - before.derived_facts;
      }
    }
    return Status::OK();
  }

  // Deadline/cancel poll per task batch: once before the fan-out, once
  // before the serial constructive pass. Tasks already on the pool run to
  // completion — cancellation is cooperative, never a torn round.
  VQLDB_RETURN_NOT_OK(CheckInterrupt());

  // Pre-build every join index the plans can probe so that worker threads
  // only ever read the shared interpretations — and the database's temporal
  // index, which class-literal steps read and which otherwise rebuilds
  // lazily inside the first reader after a mutation.
  PrepareJoinIndexes(full, delta);
  if (ReadsTemporalIndex()) db_->PrepareTemporalIndex();

  struct TaskResult {
    Interpretation out;
    EvalStats stats;
    Status status;
    double wall_ms = 0;
  };
  std::vector<TaskResult> results(tasks.size());
  for (TaskResult& result : results) Govern(&result.out);
  if (pool_ == nullptr || pool_->num_threads() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  // One task body shared by the pooled fan-out and the serial constructive
  // pass: evaluate, timed and traced, into the task's private block.
  auto run_task = [this, &tasks, &full, delta, interval_delta, prof,
                   &results](size_t i) {
    // Bind the shared interrupt context on whichever thread runs the task
    // (pool worker or the coordinator's serial constructive pass).
    ExecContextScope ctx_scope(ctx_.get());
    const CompiledRule& rule = rules_[tasks[i].rule_idx];
    TaskResult& result = results[i];
    Clock::time_point start;
    if (prof) start = Clock::now();
    {
      obs::TraceSpan span("rule", rule.head_predicate);
      result.status = EvalRule(rule, full, delta, tasks[i].delta_pos,
                               interval_delta, &result.out, &result.stats);
    }
    if (prof) result.wall_ms = MsSince(start);
  };
  for (size_t i = 0; i < tasks.size(); ++i) {
    const CompiledRule& rule = rules_[tasks[i].rule_idx];
    if (rule.is_constructive) continue;  // mutates the database: serial below
    ++stats_.parallel_tasks;
    pool_->Submit([&run_task, i] { run_task(i); });
  }
  pool_->WaitAll();

  // Constructive rules materialize derived intervals (Concatenate mutates
  // the database): run them serially, in stable task order, after the
  // read-only tasks have drained.
  VQLDB_RETURN_NOT_OK(CheckInterrupt());
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!rules_[tasks[i].rule_idx].is_constructive) continue;
    run_task(i);
  }

  // Deterministic merge: fold per-task deltas in task (= rule, delta_pos)
  // order, so per-predicate fact insertion order matches the serial engine.
  for (size_t i = 0; i < results.size(); ++i) {
    TaskResult& result = results[i];
    VQLDB_RETURN_NOT_OK(result.status);
    // Tasks count a fact as derived when it is new to their *private* out;
    // the serial engine counts it once per round. Recount against the shared
    // round interpretation so the statistic is thread-count invariant.
    result.stats.derived_facts = 0;
    stats_.MergeFrom(result.stats);
    size_t new_here = 0;
    // Id-level merge: task outputs and the round output share the global
    // dictionary, so rows move as raw symbol ids without decoding.
    result.out.ForEachRow(
        [&](const std::string& name, Interpretation::RowRef row) {
          if (out->AddRow(name, row)) {
            ++stats_.derived_facts;
            ++new_here;
          }
        });
    if (prof) {
      RuleProfile& rp = profile_.rules[tasks[i].rule_idx];
      ++rp.tasks;
      rp.wall_ms += result.wall_ms;
      rp.firings += result.stats.rule_firings;
      rp.derived += new_here;
    }
  }
  return Status::OK();
}

Result<Interpretation> Evaluator::ApplyOnce(
    const Interpretation& interpretation) {
  ExecContextScope ctx_scope(ctx_.get());
  Interpretation out;
  Govern(&out);
  interpretation.ForEachRow(
      [&](const std::string& name, Interpretation::RowRef row) {
        out.AddRow(name, row);
      });
  // The database extract's ground facts are facts of the program, hence
  // immediate consequences of any interpretation.
  VQLDB_ASSIGN_OR_RETURN(Interpretation edb, Edb());
  edb.ForEachRow([&](const std::string& name, Interpretation::RowRef row) {
    out.AddRow(name, row);
  });
  if (options_.extended_active_domain) {
    VQLDB_RETURN_NOT_OK(MaterializeExtendedDomain());
  }
  std::vector<RuleTask> tasks;
  tasks.reserve(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) tasks.push_back({i, -1});
  VQLDB_RETURN_NOT_OK(RunRound(tasks, interpretation, nullptr, nullptr, &out));
  return out;
}

Result<Interpretation> Evaluator::Fixpoint() {
  // Bind the interrupt context on the coordinator for the whole run: rounds,
  // merges, and the serial legacy path all execute under it, so solver and
  // canonicalization inner loops observe deadline/cancel/budget throughout.
  ExecContextScope ctx_scope(ctx_.get());
  stats_ = EvalStats{};
  profile_ = EvalProfile{};
  const bool prof = options_.collect_profile;
  // Round wall times feed both the profile and the metrics histograms;
  // skip the clock reads when neither consumer is active.
  const bool timed = prof || obs::MetricsEnabled();
  obs::TraceSpan fixpoint_span("fixpoint");
  Clock::time_point fixpoint_start;
  if (timed) fixpoint_start = Clock::now();

  // Deadline/cancel unwinds are structured returns, never aborts; the work
  // done so far still folds into the metrics registry.
  auto finish_error = [&](Status st) -> Status {
    if (st.IsDeadlineExceeded()) GetEvalMetrics().deadline_exceeded->Increment();
    if (st.IsCancelled()) GetEvalMetrics().cancelled->Increment();
    if (st.IsResourceExhausted()) {
      GetEvalMetrics().resource_exhausted->Increment();
    }
    if ((st.IsDeadlineExceeded() || st.IsCancelled() ||
         st.IsResourceExhausted()) &&
        timed) {
      double total_ms = MsSince(fixpoint_start);
      if (prof) profile_.total_ms = total_ms;
      PublishEvalMetrics(stats_, total_ms);
    }
    return st;
  };

  VQLDB_ASSIGN_OR_RETURN(Interpretation interp, Edb());
  Govern(&interp);
  // The fixpoint target feeds the per-column distinct-value sketches: every
  // merge of a newly derived row happens on this (single) coordinator
  // thread, so recording here never contends with worker tasks. EDB rows
  // were already recorded by VideoDatabase::AssertFact.
  if (obs::StatsEnabled()) interp.set_observed(true);

  // Round 1: every rule, unrestricted.
  Interpretation delta;
  Govern(&delta);
  std::vector<ObjectId> interval_delta;
  {
    obs::TraceSpan round_span("round", "1");
    Clock::time_point round_start;
    if (timed) round_start = Clock::now();
    if (options_.extended_active_domain) {
      Status ed = MaterializeExtendedDomain();
      if (!ed.ok()) return finish_error(std::move(ed));
    }
    size_t derived_before = db_->derived_interval_count();
    Interpretation out;
    Govern(&out);
    std::vector<RuleTask> tasks;
    tasks.reserve(rules_.size());
    for (size_t i = 0; i < rules_.size(); ++i) tasks.push_back({i, -1});
    Status round_st = RunRound(tasks, interp, nullptr, nullptr, &out);
    if (!round_st.ok()) return finish_error(round_st);
    out.ForEachRow([&](const std::string& name, Interpretation::RowRef row) {
      if (interp.AddRow(name, row)) delta.AddRow(name, row);
    });
    const std::vector<ObjectId>& derived = db_->DerivedIntervals();
    interval_delta.assign(derived.begin() + derived_before, derived.end());
    ++stats_.iterations;
    stats_.delta_tuples += delta.size();
    if (timed) {
      double ms = MsSince(round_start);
      GetEvalMetrics().round_ms->Observe(ms);
      if (prof) {
        profile_.rounds.push_back({1, tasks.size(), delta.size(), ms});
      }
    }
  }

  while (!delta.empty() || !interval_delta.empty()) {
    if (stats_.iterations >= options_.max_iterations) {
      return Status::EvaluationError(
          "fixpoint did not converge within " +
          std::to_string(options_.max_iterations) + " iterations");
    }
    if (interp.size() > options_.max_facts) {
      return finish_error(Status::ResourceExhausted(
          "fixpoint exceeds max_facts = " +
          std::to_string(options_.max_facts)));
    }
    obs::TraceSpan round_span("round", std::to_string(stats_.iterations + 1));
    Clock::time_point round_start;
    if (timed) round_start = Clock::now();
    if (options_.extended_active_domain) {
      // Materialization itself grows the domain; deltas cannot track it
      // faithfully, so extended-domain evaluation always runs naive rounds.
      Status ed = MaterializeExtendedDomain();
      if (!ed.ok()) return finish_error(std::move(ed));
    }

    size_t derived_before = db_->derived_interval_count();
    Interpretation out;
    Govern(&out);
    // Stratify the round into independent (rule, delta_pos) tasks; each
    // re-derives only valuations that touch the previous round's delta.
    // Naive rounds run every rule unrestricted.
    const bool naive = options_.extended_active_domain;
    std::vector<RuleTask> tasks;
    for (size_t r = 0; r < rules_.size(); ++r) {
      if (naive) {
        tasks.push_back({r, -1});
        continue;
      }
      const CompiledRule& rule = rules_[r];
      for (size_t pos = 0; pos < rule.steps.size(); ++pos) {
        const CompiledLiteral& lit = rule.steps[pos].literal;
        bool applicable;
        if (lit.builtin == BuiltinClass::kNone) {
          applicable = delta.CountFor(lit.predicate) != 0;
        } else {
          applicable = lit.builtin != BuiltinClass::kObject &&
                       !interval_delta.empty();
        }
        if (applicable) tasks.push_back({r, static_cast<int>(pos)});
      }
    }
    const size_t round_tasks = tasks.size();
    Status round_st = RunRound(tasks, interp, naive ? nullptr : &delta,
                               naive ? nullptr : &interval_delta, &out);
    if (!round_st.ok()) return finish_error(round_st);

    Interpretation next_delta;
    Govern(&next_delta);
    out.ForEachRow([&](const std::string& name, Interpretation::RowRef row) {
      if (interp.AddRow(name, row)) next_delta.AddRow(name, row);
    });
    const std::vector<ObjectId>& derived = db_->DerivedIntervals();
    interval_delta.assign(derived.begin() + derived_before, derived.end());
    delta = std::move(next_delta);
    ++stats_.iterations;
    stats_.delta_tuples += delta.size();
    if (timed) {
      double ms = MsSince(round_start);
      GetEvalMetrics().round_ms->Observe(ms);
      if (prof) {
        profile_.rounds.push_back(
            {stats_.iterations, round_tasks, delta.size(), ms});
      }
    }
  }
  if (timed) {
    double total_ms = MsSince(fixpoint_start);
    if (prof) profile_.total_ms = total_ms;
    PublishEvalMetrics(stats_, total_ms);
  }
  return interp;
}

}  // namespace vqldb
