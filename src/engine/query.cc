#include "src/engine/query.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "src/common/hash.h"
#include "src/engine/binding.h"
#include "src/engine/goal_analysis.h"
#include "src/engine/magic.h"
#include "src/engine/qsqr.h"
#include "src/engine/sysrel.h"
#include "src/model/term_dict.h"
#include "src/lang/analyzer.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"

namespace vqldb {

namespace {

obs::Counter* MagicRulesGenerated() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "vqldb_magic_rules_generated_total",
      "Demand (magic) rules generated by the goal-directed rewrite");
  return c;
}

// A failure mode covered by the "never mutates the database" guarantee:
// the evaluation was aborted by the governor, a deadline, or cancellation
// (as opposed to being rejected up front by a semantic error).
bool IsGovernedFailure(const Status& s) {
  return s.IsResourceExhausted() || s.IsDeadlineExceeded() || s.IsCancelled();
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// "Deadline exceeded" -> "deadline_exceeded": the status label the
// statistics collector keys sys_queries rows on.
std::string StatusLabel(StatusCode code) {
  std::string label = StatusCodeToString(code);
  for (char& c : label) {
    c = c == ' ' ? '_' : static_cast<char>(std::tolower(
                             static_cast<unsigned char>(c)));
  }
  return label;
}

}  // namespace

std::string QueryResult::ToString(const VideoDatabase* db) const {
  std::string out;
  out.reserve(32 + rows.size() * (3 + columns.size() * 10));
  AppendAnswerHeader(rows.size(), columns, &out);
  out.push_back('\n');
  AppendAnswerRows(rows, db, &out);
  return out;
}

QuerySession::QuerySession(VideoDatabase* db, EvalOptions options,
                           std::shared_ptr<QueryCache> cache)
    : db_(db),
      options_(options),
      cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<QueryCache>()) {}

Status QuerySession::ApplyDecl(const ObjectDecl& decl, VideoDatabase* db) {
  ObjectId id;
  if (decl.is_interval) {
    // Find the (required) duration attribute first.
    const ConstExpr* duration = nullptr;
    for (const auto& [name, value] : decl.attributes) {
      if (name == kAttrDuration) duration = &value;
    }
    if (duration == nullptr) {
      return Status::InvalidArgument("interval " + decl.symbol +
                                     " has no duration attribute");
    }
    if (duration->kind != ConstExpr::Kind::kTemporal) {
      return Status::InvalidArgument("duration of interval " + decl.symbol +
                                     " must be a temporal constraint");
    }
    VQLDB_ASSIGN_OR_RETURN(
        id, db->CreateInterval(decl.symbol,
                               duration->temporal.ToIntervalSet()));
  } else {
    VQLDB_ASSIGN_OR_RETURN(id, db->CreateEntity(decl.symbol));
  }
  for (const auto& [name, value] : decl.attributes) {
    if (decl.is_interval && name == kAttrDuration) continue;  // already set
    VQLDB_ASSIGN_OR_RETURN(Value v, ResolveConst(value, *db));
    VQLDB_RETURN_NOT_OK(
        db->SetAttribute(id, name, std::move(v))
            .WithContext("declaration of " + decl.symbol));
  }
  return Status::OK();
}

Status QuerySession::ApplyFact(const Rule& fact_rule, VideoDatabase* db) {
  if (!fact_rule.IsFact()) {
    return Status::InvalidArgument(fact_rule.ToString() + " is not a fact");
  }
  Fact fact;
  fact.relation = fact_rule.head.predicate;
  for (const Term& t : fact_rule.head.args) {
    if (t.kind != Term::Kind::kConstant) {
      return Status::InvalidArgument("fact " + fact_rule.head.ToString() +
                                     " must be ground");
    }
    VQLDB_ASSIGN_OR_RETURN(Value v, ResolveConst(t.constant, *db));
    fact.args.push_back(std::move(v));
  }
  return db->AssertFact(std::move(fact));
}

Status QuerySession::Load(std::string_view program_text) {
  VQLDB_ASSIGN_OR_RETURN(Program program,
                         Parser::ParseProgram(program_text));
  VQLDB_RETURN_NOT_OK(Analyzer::CheckProgram(program));
  const size_t rules_before = rules_.size();
  for (const Statement& s : program.statements) {
    switch (s.kind) {
      case Statement::Kind::kDecl:
        VQLDB_RETURN_NOT_OK(ApplyDecl(s.decl, db_));
        break;
      case Statement::Kind::kRule:
        if (IsSystemRelation(s.rule.head.predicate)) {
          return Status::InvalidArgument(
              "the sys_ relation prefix is reserved for system relations: " +
              s.rule.head.ToString());
        }
        if (s.rule.IsFact() && !s.rule.IsConstructive()) {
          VQLDB_RETURN_NOT_OK(ApplyFact(s.rule, db_));
        } else {
          rules_.push_back(s.rule);
          ++rules_epoch_;
        }
        break;
      case Statement::Kind::kQuery:
        break;  // checked; execution is explicit via Query()
    }
  }
  if (rules_.size() != rules_before) UpdateSystemHeads();
  fixpoint_cache_.reset();
  return Status::OK();
}

Status QuerySession::AddRule(std::string_view rule_text) {
  VQLDB_ASSIGN_OR_RETURN(Rule rule, Parser::ParseRule(rule_text));
  return AddRule(std::move(rule));
}

Status QuerySession::AddRule(Rule rule) {
  if (IsSystemRelation(rule.head.predicate)) {
    return Status::InvalidArgument(
        "the sys_ relation prefix is reserved for system relations: " +
        rule.head.ToString());
  }
  std::map<std::string, size_t> arities;
  VQLDB_RETURN_NOT_OK(Analyzer::CheckRule(rule, &arities));
  if (rule.IsFact() && !rule.IsConstructive()) {
    VQLDB_RETURN_NOT_OK(ApplyFact(rule, db_));
  } else {
    rules_.push_back(std::move(rule));
    ++rules_epoch_;
    // Only a rule that reaches sys_* itself can make other heads reach it.
    if (ReadsSystemRelations(rules_.back())) UpdateSystemHeads();
  }
  fixpoint_cache_.reset();
  return Status::OK();
}

Result<const Interpretation*> QuerySession::Materialize() {
  if (!fixpoint_cache_.has_value()) {
    RefreshPlanner();
    VQLDB_ASSIGN_OR_RETURN(Evaluator eval,
                           Evaluator::Make(db_, rules_, options_));
    Result<Interpretation> interp = eval.Fixpoint();
    last_stats_ = eval.stats();  // partial stats survive a governed abort
    if (!interp.ok()) return interp.status();
    fixpoint_cache_ = *std::move(interp);
  }
  return &*fixpoint_cache_;
}

Result<QueryResult> QuerySession::Query(std::string_view query_text) {
  const auto parse_start = std::chrono::steady_clock::now();
  Result<struct Query> q = Parser::ParseQuery(query_text);
  const uint64_t parse_us = ElapsedUs(parse_start);
  if (!q.ok()) return q.status();
  return Run(*q, parse_us);
}

Result<std::string> QuerySession::QueryRendered(std::string_view query_text) {
  const auto parse_start = std::chrono::steady_clock::now();
  Result<struct Query> q = Parser::ParseQuery(query_text);
  const uint64_t parse_us = ElapsedUs(parse_start);
  if (!q.ok()) return q.status();
  return QueryRendered(*q, parse_us);
}

Result<std::string> QuerySession::QueryRendered(const struct Query& query,
                                                uint64_t parse_us) {
  VQLDB_ASSIGN_OR_RETURN(Outcome out, Execute(query, parse_us, Render::kRows));
  return RenderedBody(out);
}

std::optional<std::string> QuerySession::CachedRendered(
    const struct Query& query, uint64_t parse_us) {
  Result<Outcome> out = Execute(query, parse_us, Render::kCachedRows);
  if (!out.ok() || out->rendered == nullptr) return std::nullopt;
  return RenderedBody(*out);
}

std::string QuerySession::RenderedBody(const Outcome& out) {
  const RenderedRows& rows = *out.rendered;
  std::string body;
  body.reserve(64 + rows.text().size());
  AppendAnswerHeader(rows.rows(), out.result.columns, &body);
  body.push_back('\n');
  body.append(rows.text());
  return body;
}

Result<std::shared_ptr<const RenderedRows>> QuerySession::RunRendered(
    const struct Query& query) {
  VQLDB_ASSIGN_OR_RETURN(Outcome out,
                         Execute(query, 0, Render::kMergeOrder));
  return std::move(out.rendered);
}

std::shared_ptr<const RenderedRows> QuerySession::CachedRunRendered(
    const struct Query& query) {
  Result<Outcome> out = Execute(query, 0, Render::kCachedMergeOrder);
  if (!out.ok()) return nullptr;
  return std::move(out->rendered);
}

bool QuerySession::TouchesSystemRelations(const Atom& goal) const {
  return IsSystemRelation(goal.predicate) ||
         sys_heads_.count(goal.predicate) != 0;
}

bool QuerySession::ReadsSystemRelations(const Rule& rule) const {
  for (const Atom& atom : rule.body) {
    if (!atom.IsBuiltinClass() && (IsSystemRelation(atom.predicate) ||
                                   sys_heads_.count(atom.predicate) != 0)) {
      return true;
    }
  }
  return false;
}

void QuerySession::UpdateSystemHeads() {
  // The dependency cones of AnalyzeGoal, walked backwards once per rule
  // change instead of forwards once per query.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : rules_) {
      if (sys_heads_.count(rule.head.predicate) == 0 &&
          ReadsSystemRelations(rule)) {
        sys_heads_.insert(rule.head.predicate);
        changed = true;
      }
    }
  }
}

void QuerySession::PrepareSystemFacts(const Atom& goal) {
  sys_query_ = TouchesSystemRelations(goal);
  sys_seed_facts_ =
      sys_query_ ? BuildSystemSeedFacts() : std::vector<Fact>{};
}

std::vector<Fact> QuerySession::BuildSystemSeedFacts() const {
  const obs::StatsSnapshot snapshot = obs::StatsCollector::Global().Snapshot();
  const std::vector<obs::MetricSample> samples =
      obs::MetricsRegistry::Global().Samples();
  SystemFactsInput input;
  input.db = db_;
  input.stats = &snapshot;
  input.metrics = &samples;
  input.cache_enabled = cache_enabled_;
  input.cache_entries = cache_->size();
  input.cache_bytes = cache_->bytes();
  input.cache_max_bytes = cache_->max_bytes();
  input.fixpoint_cached = fixpoint_cache_.has_value();
  input.fixpoint_bytes =
      fixpoint_cache_.has_value() ? fixpoint_cache_->ApproxRowsBytes() : 0;
  input.governor = governor_.get();
  input.per_query_limits = per_query_limits_;
  std::vector<ShardInfoRow> shard_rows;
  if (shard_info_provider_) {
    shard_rows = shard_info_provider_();
    input.shards = &shard_rows;
  }
  return BuildSystemFacts(input);
}

// ------------------------------------------------------------ query cache

uint64_t QuerySession::OptionsFingerprint() const {
  // The options an answer set actually depends on. Thread count, deadlines,
  // profiling, and body reordering never change answers and stay out.
  size_t seed = 0;
  HashCombine(&seed, options_.strict_types ? 1u : 2u);
  HashCombine(&seed, options_.extended_active_domain ? 1u : 2u);
  // Key the domain by its generation fingerprint, not its address: a domain
  // rebuilt at a recycled address must not revive cached answers computed
  // against the old predicate table.
  HashCombine(&seed, static_cast<size_t>(
                         options_.concrete_domain == nullptr
                             ? 0
                             : options_.concrete_domain->Fingerprint()));
  HashCombine(&seed, static_cast<size_t>(options_.max_iterations));
  HashCombine(&seed, static_cast<size_t>(options_.max_facts));
  return seed;
}

std::optional<QueryCache::Key> QuerySession::MakeCacheKey(
    const struct Query& query, RowOrder order) const {
  QueryCache::Key key;
  key.predicate = query.goal.predicate;
  key.order = order;
  std::map<std::string, size_t> var_ids;
  for (const Term& t : query.goal.args) {
    if (t.kind == Term::Kind::kConstant) {
      Result<Value> v = ResolveConst(t.constant, *db_);
      if (!v.ok()) return std::nullopt;  // evaluation reports the error
      key.pattern += "c,";
      key.bound_values.push_back(*std::move(v));
    } else if (t.kind == Term::Kind::kVariable) {
      auto [it, inserted] = var_ids.emplace(t.variable, var_ids.size());
      key.pattern += "v" + std::to_string(it->second) + ",";
    } else {
      return std::nullopt;  // constructive goal term: let Run() reject it
    }
  }
  key.db_epoch = db_->epoch();
  key.rules_epoch = rules_epoch_;
  key.options_fp = OptionsFingerprint();
  return key;
}

std::vector<std::string> GoalColumns(const struct Query& query) {
  std::vector<std::string> columns;
  std::set<std::string> seen;
  for (const Term& t : query.goal.args) {
    if (t.kind == Term::Kind::kVariable && seen.insert(t.variable).second) {
      columns.push_back(t.variable);
    }
  }
  return columns;
}

// ------------------------------------------------- resource governance

void QuerySession::set_governor(std::shared_ptr<ResourceBudget> governor) {
  // Release retained reservations against the old governor before swapping.
  fixpoint_cache_.reset();
  cache_->set_governor(governor);
  governor_ = std::move(governor);
}

void QuerySession::EnableMemoryGovernor(size_t max_bytes) {
  if (max_bytes == 0) {
    set_governor(nullptr);
    return;
  }
  auto& registry = obs::MetricsRegistry::Global();
  ResourceBudget::Limits limits;
  limits.max_bytes = max_bytes;
  auto governor = std::make_shared<ResourceBudget>(limits);
  governor->PublishBytesTo(
      registry.GetGauge("vqldb_governor_bytes_reserved",
                        "Bytes currently reserved against the governor"),
      registry.GetGauge("vqldb_governor_bytes_peak",
                        "High-water mark of governed byte reservations"));
  set_governor(std::move(governor));
}

size_t QuerySession::ShedCaches() {
  size_t freed = cache_->Shed();
  if (fixpoint_cache_.has_value()) {
    freed += fixpoint_cache_->accounted_bytes();
    fixpoint_cache_.reset();  // releases its budget reservation
  }
  return freed;
}

Result<QueryResult> QuerySession::RunGoverned(const struct Query& query) {
  const bool governed = governor_ != nullptr || per_query_limits_.any();
  std::shared_ptr<ResourceBudget> prev_budget = options_.budget;
  if (governed) {
    options_.budget =
        std::make_shared<ResourceBudget>(per_query_limits_, governor_);
  }
  size_t derived_anchor = db_->derived_interval_count();
  Result<QueryResult> result = RunUncached(query);
  if (governed) {
    // Capture this query's consumption for the statistics record before the
    // child budget is detached.
    budget_usage_.bytes_peak = options_.budget->bytes_peak();
    budget_usage_.tuples = options_.budget->tuples();
    budget_usage_.solver_steps = options_.budget->solver_steps();
    options_.budget = std::move(prev_budget);
  }
  if (!result.ok() && IsGovernedFailure(result.status())) {
    // A governed failure never mutates the database: unwind the derived
    // intervals this evaluation materialized before it was aborted.
    db_->RollbackDerivedIntervals(derived_anchor);
  }
  return result;
}

// -------------------------------------------------------------- execution

Result<std::string> QuerySession::Explain(std::string_view query_text,
                                          bool analyze) {
  VQLDB_ASSIGN_OR_RETURN(struct Query q, Parser::ParseQuery(query_text));
  RefreshPlanner();
  EvalOptions opts = options_;
  opts.collect_profile = analyze;

  // EXPLAIN ANALYZE evaluates under the same per-query budget Run() would
  // use, so the budget lines below reflect real governed execution.
  std::shared_ptr<ResourceBudget> explain_budget;
  if (governor_ != nullptr || per_query_limits_.any()) {
    explain_budget =
        std::make_shared<ResourceBudget>(per_query_limits_, governor_);
    opts.budget = explain_budget;
  }

  // The strategy Run() would execute, and the program it evaluates: the
  // goal's cone top-down for QSQR, the rewritten cone for magic sets, every
  // rule for the fixpoint.
  GoalAnalysis goal;
  const StrategyChoice choice = ChooseFor(q.goal, &goal);
  std::ostringstream header;
  header << "strategy: " << EvalStrategyName(choice.strategy) << " ("
         << choice.reason << ")\n";
  std::vector<Rule> program;
  std::vector<Fact> seeds;
  if (choice.strategy == EvalStrategy::kMagic) {
    VQLDB_ASSIGN_OR_RETURN(MagicRewrite rw,
                           MagicSetRewriter::Rewrite(q, goal, *db_, opts));
    program = std::move(rw.rules);
    seeds = std::move(rw.seed_facts);
    header << "magic: on (adornment "
           << (rw.adornment.empty() ? "<none>" : rw.adornment) << ", "
           << rw.magic_rule_count << " demand rules, "
           << rw.guarded_rule_count << " guarded rules, " << seeds.size()
           << " seed facts)\n";
  } else if (choice.strategy == EvalStrategy::kQsqr) {
    program = goal.cone;
  } else {
    program = rules_;
  }
  const bool sys = TouchesSystemRelations(q.goal);
  if (sys) {
    std::vector<Fact> sys_seeds = BuildSystemSeedFacts();
    header << "system relations: " << sys_seeds.size() << " seeded facts\n";
    seeds.insert(seeds.end(), std::make_move_iterator(sys_seeds.begin()),
                 std::make_move_iterator(sys_seeds.end()));
  }
  if (!cache_enabled_) {
    header << "query cache: off\n";
  } else if (sys) {
    header << "query cache: bypassed (system relations)\n";
  } else {
    std::optional<QueryCache::Key> key = MakeCacheKey(q, RowOrder::kValue);
    bool hit = key.has_value() && cache_->Contains(*key);
    header << "query cache: " << (hit ? "hit" : "miss") << " (db epoch "
           << db_->epoch() << ", " << cache_->size() << " entries)\n";
  }
  if (governor_ != nullptr) {
    header << "governor: on (limit "
           << (governor_->limits().max_bytes == 0
                   ? std::string("unlimited")
                   : std::to_string(governor_->limits().max_bytes) + " bytes")
           << ", " << governor_->bytes_reserved() << " bytes reserved)\n";
  } else {
    header << "governor: off\n";
  }

  VQLDB_ASSIGN_OR_RETURN(Evaluator eval, Evaluator::Make(db_, program, opts));
  eval.AddSeedFacts(std::move(seeds));

  std::ostringstream os;
  os << (analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ") << q.ToString() << "\n"
     << header.str();
  const std::vector<CompiledRule>& compiled = eval.compiled_rules();
  if (compiled.empty()) {
    os << "(no rules in the dependency cone of " << q.goal.predicate
       << "; the goal is answered from stored facts)\n";
  }
  // QSQR enters the goal predicate's rules with the goal's constant
  // positions bound by head unification; the cone's other rules render
  // from an empty call.
  uint64_t goal_constants = 0;
  for (size_t i = 0; i < q.goal.args.size() && i < 64; ++i) {
    if (q.goal.args[i].kind == Term::Kind::kConstant) {
      goal_constants |= uint64_t{1} << i;
    }
  }
  for (const CompiledRule& rule : compiled) {
    std::optional<uint64_t> qsqr_call;
    if (choice.strategy == EvalStrategy::kQsqr) {
      qsqr_call = rule.head_predicate == q.goal.predicate ? goal_constants : 0;
    }
    os << ExplainRule(rule, opts.strict_types, qsqr_call);
  }
  if (!analyze) return os.str();

  Interpretation interp;
  if (choice.strategy == EvalStrategy::kQsqr) {
    // Top-down: no rounds to profile. QSQR never mutates the database.
    Result<QsqrResult> run = QsqrEvaluator::Run(q, goal, *db_, opts);
    VQLDB_RETURN_NOT_OK(run.status());
    last_stats_ = run->stats;
    interp = std::move(run->memo);
    os << "\n";
  } else {
    size_t derived_anchor = db_->derived_interval_count();
    Result<Interpretation> fp = eval.Fixpoint();
    last_stats_ = eval.stats();  // partial stats survive a governed abort
    if (!fp.ok()) {
      if (IsGovernedFailure(fp.status())) {
        db_->RollbackDerivedIntervals(derived_anchor);
      }
      return fp.status();
    }
    interp = *std::move(fp);
    os << "\n" << eval.profile().ToString();
  }
  const EvalStats& s = last_stats_;
  os << "stats: " << s.iterations
     << (choice.strategy == EvalStrategy::kQsqr ? " passes, " : " rounds, ")
     << s.derived_facts << " derived facts, " << s.rule_firings
     << " firings, " << s.delta_tuples << " delta tuples, " << s.join_probes
     << " join probes (" << s.join_probe_hits << " hits), "
     << s.constraint_checks << " constraint checks, " << s.parallel_tasks
     << " parallel tasks\n";
  os << "join strategy: " << s.merge_join_probes << " merge-join probes, "
     << s.hash_join_probes << " hash probes\n";
  {
    Interpretation::StorageStats st = interp.ComputeStorageStats();
    const TermDict& dict = TermDict::Global();
    char buf[64];
    os << "storage: " << st.rows << " tuples (" << st.sealed_rows
       << " sealed in " << st.segments << " segments), " << st.columnar_bytes
       << " columnar bytes";
    if (st.rows > 0) {
      snprintf(buf, sizeof(buf), "%.1f",
               static_cast<double>(st.columnar_bytes) /
                   static_cast<double>(st.rows));
      os << " (" << buf << " b/tuple; row-store estimate "
         << st.row_store_bytes << " bytes";
      if (st.columnar_bytes > 0) {
        snprintf(buf, sizeof(buf), "%.1f",
                 static_cast<double>(st.row_store_bytes) /
                     static_cast<double>(st.columnar_bytes));
        os << ", " << buf << "x reduction";
      }
      os << ")";
    }
    os << ", dictionary " << dict.size() << " terms / " << dict.ApproxBytes()
       << " bytes\n";
    // Per-relation breakdown from the same snapshot sys_relations reports,
    // so the two views of storage can be cross-checked tuple for tuple.
    for (const Interpretation::RelationStats& rs : interp.PerRelationStats()) {
      os << "  " << rs.predicate << ": " << rs.rows << " rows ("
         << rs.sealed_rows << " sealed in " << rs.segments << " segments, "
         << (rs.rows - rs.sealed_rows) << " delta rows), " << rs.bytes
         << " bytes\n";
    }
  }
  if (explain_budget != nullptr) {
    const ResourceBudget::Limits& lim = explain_budget->limits();
    os << "budget: " << explain_budget->bytes_reserved()
       << " bytes reserved (peak " << explain_budget->bytes_peak();
    if (lim.max_bytes != 0) os << ", query limit " << lim.max_bytes;
    if (governor_ != nullptr && governor_->limits().max_bytes != 0) {
      os << ", governor limit " << governor_->limits().max_bytes;
    }
    os << "), " << explain_budget->tuples() << " tuples, "
       << explain_budget->solver_steps() << " solver steps\n";
  }
  VQLDB_ASSIGN_OR_RETURN(QueryResult result, AnswerFrom(interp, q));
  os << result.ToString(db_);
  return os.str();
}

StrategyChoice QuerySession::ChooseFor(const Atom& goal,
                                       GoalAnalysis* analysis) const {
  *analysis = AnalyzeGoal(goal, rules_, options_);
  return ChooseStrategy(options_.strategy, *analysis,
                        TouchesSystemRelations(goal));
}

Result<QueryResult> QuerySession::RunMagic(const struct Query& query,
                                           const GoalAnalysis& analysis) {
  const auto rewrite_start = std::chrono::steady_clock::now();
  Result<MagicRewrite> rewrite =
      MagicSetRewriter::Rewrite(query, analysis, *db_, options_);
  phases_.rewrite_us += ElapsedUs(rewrite_start);
  VQLDB_RETURN_NOT_OK(rewrite.status());
  MagicRewrite rw = *std::move(rewrite);
  exec_info_.adornment = rw.adornment;
  exec_info_.magic_rule_count = rw.magic_rule_count;
  exec_info_.guarded_rule_count = rw.guarded_rule_count;
  MagicRulesGenerated()->Increment(rw.magic_rule_count);
  VQLDB_ASSIGN_OR_RETURN(Evaluator eval,
                         Evaluator::Make(db_, std::move(rw.rules), options_));
  eval.AddSeedFacts(std::move(rw.seed_facts));
  if (sys_query_) eval.AddSeedFacts(sys_seed_facts_);
  const auto eval_start = std::chrono::steady_clock::now();
  Result<Interpretation> interp = eval.Fixpoint();
  phases_.eval_us += ElapsedUs(eval_start);
  last_stats_ = eval.stats();  // partial stats survive a governed abort
  if (!interp.ok()) return interp.status();
  return TimedAnswerFrom(*interp, query);
}

Result<QueryResult> QuerySession::RunQsqr(const struct Query& query,
                                          const GoalAnalysis& analysis) {
  const auto eval_start = std::chrono::steady_clock::now();
  Result<QsqrResult> run =
      QsqrEvaluator::Run(query, analysis, *db_, options_);
  phases_.eval_us += ElapsedUs(eval_start);
  VQLDB_RETURN_NOT_OK(run.status());
  exec_info_.adornment = run->adornment;
  last_stats_ = run->stats;
  return TimedAnswerFrom(run->memo, query);
}

Result<QueryResult> QuerySession::RunMaterialized(const struct Query& query) {
  if (sys_query_) {
    // System state changes without bumping the database epoch, so a query
    // observing it never reads or populates the fixpoint cache: evaluate a
    // fresh fixpoint seeded with the current system-fact batch.
    VQLDB_ASSIGN_OR_RETURN(Evaluator eval,
                           Evaluator::Make(db_, rules_, options_));
    eval.AddSeedFacts(sys_seed_facts_);
    const auto eval_start = std::chrono::steady_clock::now();
    Result<Interpretation> interp = eval.Fixpoint();
    phases_.eval_us += ElapsedUs(eval_start);
    last_stats_ = eval.stats();  // partial stats survive a governed abort
    if (!interp.ok()) return interp.status();
    return TimedAnswerFrom(*interp, query);
  }
  const auto eval_start = std::chrono::steady_clock::now();
  Result<const Interpretation*> interp = Materialize();
  phases_.eval_us += ElapsedUs(eval_start);
  VQLDB_RETURN_NOT_OK(interp.status());
  return TimedAnswerFrom(**interp, query);
}

Result<QueryResult> QuerySession::RunUncached(const struct Query& query) {
  const auto plan_start = std::chrono::steady_clock::now();
  GoalAnalysis analysis;
  const StrategyChoice choice = ChooseFor(query.goal, &analysis);
  phases_.rewrite_us += ElapsedUs(plan_start);
  exec_info_.strategy = EvalStrategyName(choice.strategy);
  exec_info_.plan_reason = choice.reason;
  if (options_.strategy == EvalStrategy::kAuto) {
    obs::StatsCollector::Global().RecordPlanChoice(
        QueryFingerprint(query.goal), exec_info_.strategy);
  }
  PrepareSystemFacts(query.goal);
  switch (choice.strategy) {
    case EvalStrategy::kQsqr:
      return RunQsqr(query, analysis);
    case EvalStrategy::kMagic:
      return RunMagic(query, analysis);
    default:
      return RunMaterialized(query);
  }
}

void QuerySession::RefreshPlanner() {
  if (!options_.reorder_body) return;
  if (options_.body_orderer != nullptr &&
      options_.body_orderer != planner_.get()) {
    return;  // the caller supplied its own policy; leave it in charge
  }
  planner_ =
      std::make_unique<Planner>(db_, obs::StatsCollector::Global().Snapshot());
  options_.body_orderer = planner_.get();
}

Result<QueryResult> QuerySession::Run(const struct Query& query,
                                      uint64_t parse_us) {
  VQLDB_ASSIGN_OR_RETURN(Outcome out, Execute(query, parse_us, Render::kNone));
  return std::move(out.result);
}

Result<QuerySession::Outcome> QuerySession::Execute(const struct Query& query,
                                                    uint64_t parse_us,
                                                    Render render) {
  const bool record = obs::StatsEnabled();
  const auto run_start = std::chrono::steady_clock::now();
  // Admission control happens before any member access: concurrent callers
  // share this session through the gate, so member state (phase timings,
  // exec info, caches) is only touched while holding a ticket.
  QueryGate::Ticket ticket;
  if (gate_ != nullptr) {
    Result<QueryGate::Ticket> slot = gate_->Acquire();
    if (!slot.ok()) {
      // A cache-only call leaves the shed to the caller's full attempt.
      if (CacheOnly(render)) return Outcome{};
      if (record) {
        obs::QueryRecord rec;
        rec.fingerprint = QueryFingerprint(query.goal);
        rec.parse_us = parse_us;
        rec.total_us = parse_us + ElapsedUs(run_start);
        rec.status = StatusLabel(slot.status().code());
        rec.reason = slot.status().message();
        rec.access_path = slot.status().IsOverloaded() ? "shed" : "fixpoint";
        obs::StatsCollector::Global().RecordQuery(std::move(rec));
      }
      return slot.status();
    }
    ticket = std::move(*slot);
  }
  phases_ = {};
  budget_usage_ = {};
  Result<Outcome> result = RunImpl(query, render);
  // A cache-only miss did nothing: the caller's full attempt records it.
  if (CacheOnly(render) && result.ok() && result->rendered == nullptr) {
    return result;
  }
  if (record) {
    obs::QueryRecord rec;
    rec.fingerprint = QueryFingerprint(query.goal);
    rec.parse_us = parse_us;
    rec.rewrite_us = phases_.rewrite_us;
    rec.eval_us = phases_.eval_us;
    rec.decode_us = phases_.decode_us;
    rec.total_us = parse_us + ElapsedUs(run_start);
    rec.bytes_peak = budget_usage_.bytes_peak;
    rec.tuples = budget_usage_.tuples;
    rec.solver_steps = budget_usage_.solver_steps;
    if (result.ok()) {
      rec.status = "ok";
      rec.rows = result->rendered != nullptr ? result->rendered->rows()
                                             : result->result.rows.size();
    } else {
      rec.status = StatusLabel(result.status().code());
      rec.reason = result.status().message();
    }
    if (!result.ok() && result.status().IsOverloaded()) {
      rec.access_path = "shed";
    } else if (exec_info_.cache_hit) {
      rec.access_path = "cache";
    } else if (exec_info_.strategy == "qsqr" ||
               exec_info_.strategy == "magic") {
      rec.access_path = exec_info_.strategy + "(" + exec_info_.adornment + ")";
    } else {
      rec.access_path = "fixpoint";
    }
    obs::StatsCollector::Global().RecordQuery(std::move(rec));
  }
  return result;
}

Result<QuerySession::Outcome> QuerySession::RunImpl(const struct Query& query,
                                                    Render render) {
  exec_info_ = {};
  std::optional<QueryCache::Key> key;
  // System-observing queries bypass the cache in both directions: system
  // state (statistics, metrics, cache occupancy) changes without bumping
  // the epochs the cache keys on, so a hit could serve stale system facts.
  const bool cacheable = cache_enabled_ && !TouchesSystemRelations(query.goal);
  const RowOrder order = render == Render::kMergeOrder ||
                                 render == Render::kCachedMergeOrder
                             ? RowOrder::kCells
                             : RowOrder::kValue;
  const bool cache_only = CacheOnly(render);
  if (cacheable) {
    key = MakeCacheKey(query, order);
    if (key.has_value()) {
      // Columns come from *this* query's variable names: canonical pattern
      // equality guarantees the row shape matches even when the goal
      // renamed its variables. Run() decodes rows from their symbol ids;
      // the rendered calls take the entry's rendering as it is. A
      // cache-only miss is left for the caller's full attempt to count.
      const auto decode_start = std::chrono::steady_clock::now();
      Outcome out;
      const bool hit =
          render == Render::kNone
              ? cache_->Lookup(*key, &out.result.rows)
              : (out.rendered = cache_->LookupRendered(
                     *key, /*count_miss=*/!cache_only)) != nullptr;
      if (hit) {
        exec_info_.cache_hit = true;
        out.result.columns = GoalColumns(query);
        phases_.decode_us += ElapsedUs(decode_start);
        return out;
      }
    }
  }
  if (cache_only) return Outcome{};
  RefreshPlanner();
  Result<QueryResult> attempt = RunGoverned(query);
  if (!attempt.ok() && attempt.status().IsResourceExhausted()) {
    // Degradation order: shed retained caches, clear the governor's sticky
    // trip, retry once; fail outright only when the query cannot fit even
    // in a cold engine. The trip is cleared in every case — the aborted
    // query released its reservations on unwind, so the governor again
    // reflects only retained state and must not poison later queries.
    size_t freed = ShedCaches();
    if (governor_ != nullptr) governor_->ClearTrip();
    if (freed > 0) attempt = RunGoverned(query);
    if (!attempt.ok() && attempt.status().IsResourceExhausted() &&
        governor_ != nullptr) {
      governor_->ClearTrip();
    }
  }
  if (!attempt.ok()) return attempt.status();
  if (governor_ != nullptr) {
    // A charge can trip after the evaluation's last cooperative poll (the
    // final round's inserts are metered but only re-checked at the next
    // poll). The query still succeeded and released its transient
    // reservations on unwind, so that latch is stale — clear it. Genuine
    // retained-state pressure re-trips on the next charge.
    governor_->ClearTrip();
  }
  Outcome out;
  out.result = std::move(*attempt);
  const size_t columns = out.result.columns.size();
  if (key.has_value()) {
    // Stamp the entry with the post-evaluation epoch: answering the query
    // may itself have materialized derived intervals (constructive rules),
    // and the answer is the one valid against that resulting state. The
    // store renders the rows once, with this database.
    key->db_epoch = db_->epoch();
    out.rendered =
        cache_->Store(std::move(*key), out.result.rows, columns, db_);
  } else if (render != Render::kNone) {
    // Uncached (sys_* goal, cache off): rendered for this caller alone.
    out.rendered = std::make_shared<const RenderedRows>(out.result.rows,
                                                        columns, db_, order);
  }
  return out;
}

Result<QueryResult> QuerySession::TimedAnswerFrom(const Interpretation& interp,
                                                  const struct Query& query) {
  const auto decode_start = std::chrono::steady_clock::now();
  Result<QueryResult> out = AnswerFrom(interp, query);
  phases_.decode_us += ElapsedUs(decode_start);
  return out;
}

Result<QueryResult> QuerySession::AnswerFrom(const Interpretation& interp_ref,
                                             const struct Query& query) {
  const Interpretation* interp = &interp_ref;

  QueryResult result;
  result.columns = GoalColumns(query);
  // A map from goal argument position to output column (or a constant to
  // filter by).
  struct ArgSpec {
    bool is_var = false;
    int column = -1;   // first column this variable maps to
    Value constant;
  };
  std::vector<ArgSpec> specs;
  for (const Term& t : query.goal.args) {
    ArgSpec spec;
    if (t.kind == Term::Kind::kVariable) {
      spec.is_var = true;
      spec.column = static_cast<int>(
          std::find(result.columns.begin(), result.columns.end(),
                    t.variable) -
          result.columns.begin());
    } else if (t.kind == Term::Kind::kConstant) {
      VQLDB_ASSIGN_OR_RETURN(spec.constant, ResolveConst(t.constant, *db_));
    } else {
      return Status::InvalidArgument(
          "constructive terms are not allowed in query goals");
    }
    specs.push_back(std::move(spec));
  }

  auto match_args = [&](const std::vector<Value>& args) -> bool {
    if (args.size() != specs.size()) return false;
    std::vector<const Value*> bound(result.columns.size(), nullptr);
    for (size_t i = 0; i < specs.size(); ++i) {
      const ArgSpec& spec = specs[i];
      if (spec.is_var) {
        const Value*& slot = bound[static_cast<size_t>(spec.column)];
        if (slot == nullptr) {
          slot = &args[i];
        } else if (*slot != args[i]) {
          return false;  // repeated variable must match itself
        }
      } else if (spec.constant != args[i]) {
        return false;
      }
    }
    std::vector<Value> row;
    row.reserve(bound.size());
    for (const Value* v : bound) row.push_back(*v);
    result.rows.push_back(std::move(row));
    return true;
  };

  if (IsBuiltinClassPredicate(query.goal.predicate)) {
    // ?- Interval(G). style goals enumerate the object domain.
    std::vector<ObjectId> domain;
    if (query.goal.predicate == kPredInterval) {
      domain = db_->AllIntervals();
    } else if (query.goal.predicate == kPredObject) {
      domain = db_->Entities();
    } else {
      domain = db_->Entities();
      std::vector<ObjectId> intervals = db_->AllIntervals();
      domain.insert(domain.end(), intervals.begin(), intervals.end());
    }
    for (ObjectId id : domain) {
      match_args({Value::Oid(id)});
    }
  } else {
    // Walk the columnar relation directly, decoding each row's symbol ids
    // once into a reused scratch vector (no per-row Fact materialization).
    Interpretation::RelationView rel = interp->Relation(query.goal.predicate);
    if (rel.valid()) {
      TermDict& dict = TermDict::Global();
      std::vector<Value> args;
      for (size_t r = 0; r < rel.rows(); ++r) {
        Interpretation::RowRef row = rel.row(r);
        args.clear();
        args.reserve(row.arity);
        for (uint32_t i = 0; i < row.arity; ++i) {
          args.push_back(dict.Get(row.ids[i]));
        }
        match_args(args);
      }
    }
  }

  std::sort(result.rows.begin(), result.rows.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                int c = a[i].Compare(b[i]);
                if (c != 0) return c < 0;
              }
              return a.size() < b.size();
            });
  result.rows.erase(
      std::unique(result.rows.begin(), result.rows.end(),
                  [](const std::vector<Value>& a, const std::vector<Value>& b) {
                    if (a.size() != b.size()) return false;
                    for (size_t i = 0; i < a.size(); ++i) {
                      if (a[i] != b[i]) return false;
                    }
                    return true;
                  }),
      result.rows.end());
  return result;
}

}  // namespace vqldb
