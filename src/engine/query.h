// QuerySession: the user-facing entry point tying everything together.
// Load a program (declarations populate the database, facts assert into it,
// rules accumulate), then ask queries (Def. 13) against the least fixpoint
// of the rules over the database.
//
// Query execution is goal-directed by default: Run() first consults a
// memoizing cache (src/engine/query_cache.h: keyed on the goal's shape, its
// bound values, and the database/rule epochs and options, so entries can
// never outlive the state they were computed against; sessions over one
// database may share one), then analyzes the goal once (goal_analysis.h)
// and runs the strategy EvalOptions::strategy names, under kAuto the one
// the goal's cone shape picks: QSQR (src/engine/qsqr.h) for a
// non-recursive cone, the magic-set rewrite (src/engine/magic.h) for a
// recursive one or a goal observing sys_* relations, and the full fixpoint
// when goal direction declines. All three produce identical answer sets.
// The full fixpoint is cached there too, under a key with no goal.
//
// Answers come back two ways. Run() and Query() return values, decoded from
// the cache on a hit. QueryRendered() (the server) and RunRendered() (the
// sharded archive, in merge order) return text: every cache entry carries
// its rows rendered once, in its key's order, when stored, so a hit decodes
// nothing, and a miss renders once, into the cache.

#ifndef VQLDB_ENGINE_QUERY_H_
#define VQLDB_ENGINE_QUERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/budget.h"
#include "src/common/result.h"
#include "src/engine/evaluator.h"
#include "src/engine/goal_analysis.h"
#include "src/engine/interpretation.h"
#include "src/engine/planner.h"
#include "src/engine/query_cache.h"
#include "src/engine/query_gate.h"
#include "src/engine/sysrel.h"
#include "src/lang/ast.h"
#include "src/model/database.h"

namespace vqldb {

/// Columns of `query`'s distinct variables in first-occurrence order: the
/// layout of every answer to it, on every execution path and shard.
std::vector<std::string> GoalColumns(const struct Query& query);

/// The answer set of a query: one column per distinct variable of the goal
/// (in first-occurrence order), rows deduplicated and sorted.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  bool empty() const { return rows.empty(); }
  size_t size() const { return rows.size(); }

  /// Tabular rendering into one buffer: the AppendAnswerHeader line, then
  /// one AppendAnswerRows line per row. When `db` is given, oids print as
  /// their symbols.
  std::string ToString(const VideoDatabase* db = nullptr) const;
};

/// How the last Run() actually answered its query (introspection for tests,
/// the shell, and EXPLAIN).
struct QueryExecInfo {
  bool cache_hit = false;  // served from the query cache, no evaluation
  std::string adornment;   // goal adornment when magic/qsqr applied, "bf"
  /// The strategy that executed ("qsqr" | "magic" | "fixpoint"; empty on a
  /// cache hit) and why (ChooseStrategy's reason, the one EXPLAIN prints; a
  /// declined goal's reads "declined: ...").
  std::string strategy;
  std::string plan_reason;
  size_t magic_rule_count = 0;
  size_t guarded_rule_count = 0;
  /// Always false: one session answers completely. A sharded archive's
  /// scatter reports its completeness in its own result
  /// (ShardedArchive::ArchiveQueryResult).
  bool partial = false;
};

/// A stateful session over one database.
///
/// Answers and the materialized fixpoint are cached between queries under
/// the database's mutation epoch, the rules epoch and the options they
/// depend on: a write through any path, an added rule or a changed option
/// retires them, with no call from the caller.
class QuerySession {
 public:
  /// `cache` is the answer cache to consult and fill; null gives the session
  /// a private one. Sessions sharing a cache must serve the same database
  /// with the same rules (see QueryCache).
  explicit QuerySession(VideoDatabase* db, EvalOptions options = {},
                        std::shared_ptr<QueryCache> cache = nullptr);

  /// Parses and applies a whole program: declarations create objects, fact
  /// rules assert database facts, proper rules accumulate in the session.
  /// Embedded queries (?- ...) are checked but not executed — use Query().
  Status Load(std::string_view program_text);

  /// Parses and adds a single rule.
  Status AddRule(std::string_view rule_text);
  Status AddRule(Rule rule);

  /// Runs "?- goal." and returns its answer set: from the query cache when
  /// enabled and holding it, else by the strategy ChooseStrategy picks.
  Result<QueryResult> Query(std::string_view query_text);
  Result<QueryResult> Run(const struct Query& query, uint64_t parse_us = 0);

  /// Query() rendered: exactly the text Query(query_text)->ToString(
  /// database()) prints. A cache hit appends the entry's rendering to a
  /// header carrying this query's column names ("?- p(a, X)." and
  /// "?- p(a, Y)." share one entry), with no decode; a miss runs as Run()
  /// does and renders once, into the cache when the goal is cacheable.
  Result<std::string> QueryRendered(std::string_view query_text);
  /// QueryRendered() of a parsed query; `parse_us` is what its parse took.
  Result<std::string> QueryRendered(const struct Query& query,
                                    uint64_t parse_us = 0);
  /// QueryRendered() answered from the cache alone: the same body on a hit,
  /// counted and recorded as QueryRendered() counts and records one; nullopt
  /// when the answer is not cached or the goal is not cacheable, in which
  /// case nothing was evaluated, counted or recorded. For callers that must
  /// not evaluate (the server's IO thread).
  std::optional<std::string> CachedRendered(const struct Query& query,
                                            uint64_t parse_us = 0);
  /// Run() whose answer comes back rendered in merge order
  /// (RowOrder::kCells): what the archive scatter merges. A hit returns the
  /// merge-ordered cache entry's rows themselves; a miss renders the
  /// computed rows once, in merge order, into the cache when the goal is
  /// cacheable.
  Result<std::shared_ptr<const RenderedRows>> RunRendered(
      const struct Query& query);
  /// RunRendered() answered from the cache alone, as CachedRendered() is
  /// QueryRendered(): the same rows on a hit, counted and recorded as
  /// RunRendered() counts and records one; null when the answer is not
  /// cached or the goal is not cacheable, having evaluated, counted and
  /// recorded nothing. For the archive's lookup on the server's IO thread.
  std::shared_ptr<const RenderedRows> CachedRunRendered(
      const struct Query& query);

  /// EXPLAIN: names the strategy Run() would execute and why, then renders
  /// the program it evaluates — the goal's dependency cone for QSQR, the
  /// magic-rewritten rules for magic sets, every rule for the fixpoint —
  /// with each rule's executable plan (access paths, constraint placement),
  /// plus the query-cache status. With `analyze` set, additionally runs
  /// that strategy and appends its evaluation stats (for the bottom-up
  /// strategies also per-rule / per-round wall times and tuple counts), its
  /// storage, and the answer set — EXPLAIN ANALYZE. Diagnostic: never
  /// serves from or stores into the query cache.
  Result<std::string> Explain(std::string_view query_text, bool analyze);

  /// The least fixpoint over the current database: the cache's entry, else
  /// evaluated and stored there. Shared: another session sharing the cache
  /// may evict the entry meanwhile.
  Result<std::shared_ptr<const Interpretation>> Materialize();

  // ----------------------------------------------------------------- cache

  /// Whether Run() and Materialize() read and fill the cache.
  bool cache_enabled() const { return cache_enabled_; }
  void set_cache_enabled(bool on) { cache_enabled_ = on; }
  /// Drops every entry, for every session sharing the cache.
  void ClearQueryCache() { cache_->Clear(); }
  /// Entries and the bytes they occupy, the fixpoint's included.
  size_t query_cache_size() const { return cache_->size(); }
  size_t query_cache_bytes() const { return cache_->bytes(); }
  /// Byte budget for the cache: storing past it evicts LRU entries first
  /// (the entry cap stays as a secondary bound), and an answer or fixpoint
  /// larger than the whole budget is simply not cached.
  size_t cache_max_bytes() const { return cache_->max_bytes(); }
  void set_cache_max_bytes(size_t bytes) { cache_->set_max_bytes(bytes); }

  // ------------------------------------------------- resource governance

  /// Installs a session-wide resource governor. Each Run() creates a
  /// per-query child budget parented to it, so concurrent queries share the
  /// global headroom; cache entries (answers and the fixpoint) keep their
  /// byte reservations until evicted. A shared cache charges the governor
  /// installed last by any of its sessions. When a query trips the
  /// governor, Run() degrades gracefully: shed the cache, clear the trip,
  /// retry once, and only then fail with ResourceExhausted. A governed
  /// failure never mutates the database (derived intervals materialized by
  /// the failed evaluation are rolled back). Drops existing entries.
  void set_governor(std::shared_ptr<ResourceBudget> governor);
  const std::shared_ptr<ResourceBudget>& governor() const {
    return governor_;
  }
  /// Convenience: installs a governor limited to `max_bytes` (0 uninstalls)
  /// wired to the vqldb_governor_bytes_{reserved,peak} gauges.
  void EnableMemoryGovernor(size_t max_bytes);

  /// Additional limits applied to every per-query child budget (0 = none).
  void set_per_query_limits(ResourceBudget::Limits limits) {
    per_query_limits_ = limits;
  }
  const ResourceBudget::Limits& per_query_limits() const {
    return per_query_limits_;
  }

  /// Admission control: when set, every Run() holds a gate ticket for the
  /// duration of the query and fails with Status::Overloaded when the gate
  /// sheds it. A gate with one slot serializes this (non-thread-safe)
  /// session across threads.
  void set_gate(std::shared_ptr<QueryGate> gate) { gate_ = std::move(gate); }
  const std::shared_ptr<QueryGate>& gate() const { return gate_; }

  // -------------------------------------------------------- sharded archive

  /// When this session serves one shard of a sharded archive, the archive
  /// installs a provider so sys_shards queries see live per-shard health.
  /// Invoked once per system-fact batch; every shard's session gets the
  /// same provider, so sys_shards answers are identical regardless of which
  /// shard evaluates them.
  using ShardInfoProvider = std::function<std::vector<ShardInfoRow>()>;
  void set_shard_info_provider(ShardInfoProvider provider) {
    shard_info_provider_ = std::move(provider);
  }

  /// How the most recent Run() answered (reset at the start of each Run).
  const QueryExecInfo& last_exec_info() const { return exec_info_; }

  const std::vector<Rule>& rules() const { return rules_; }
  VideoDatabase* database() { return db_; }
  const EvalStats& last_stats() const { return last_stats_; }

  /// Evaluation options for subsequent queries. The ones answers depend on
  /// are part of every cache key, so a change takes effect at once.
  const EvalOptions& options() const { return options_; }
  EvalOptions* mutable_options() { return &options_; }

  /// Applies one declaration to a database (exposed for the storage layer).
  static Status ApplyDecl(const ObjectDecl& decl, VideoDatabase* db);

  /// Asserts a ground fact rule into a database.
  static Status ApplyFact(const Rule& fact_rule, VideoDatabase* db);

 private:
  /// The strategy ChooseStrategy picks for `goal` under this session's
  /// options, with the goal's analysis (what Run() executes and EXPLAIN
  /// names).
  StrategyChoice ChooseFor(const Atom& goal, GoalAnalysis* analysis) const;
  /// The magic-set rewrite of `query`: demand rules plus guarded cone
  /// copies, evaluated bottom-up from the goal's seed facts.
  Result<QueryResult> RunMagic(const struct Query& query,
                               const GoalAnalysis& analysis);
  /// Top-down QSQR over the goal's dependency cone.
  Result<QueryResult> RunQsqr(const struct Query& query,
                              const GoalAnalysis& analysis);

  /// Installs the planner as the body-literal orderer when reorder_body is
  /// on and the caller did not supply one, refreshing its statistics
  /// snapshot. Called at the top of every execution entry point.
  void RefreshPlanner();

  Result<QueryResult> AnswerFrom(const Interpretation& interp,
                                 const struct Query& query);
  /// AnswerFrom with the decode phase timed into phases_.decode_us.
  Result<QueryResult> TimedAnswerFrom(const Interpretation& interp,
                                      const struct Query& query);
  Result<QueryResult> RunUncached(const struct Query& query);
  Result<QueryResult> RunMaterialized(const struct Query& query);
  /// Materialize(); with `system_facts`, a fresh fixpoint seeded with them.
  Result<std::shared_ptr<const Interpretation>> Materialize(
      const std::vector<Fact>* system_facts);

  /// Which form of the answer an execution hands back.
  enum class Render {
    kNone,        // decoded rows only (Run)
    kRows,        // the value-ordered rendering too; a hit decodes nothing
    kMergeOrder,  // the merge-ordered rendering only
    kCachedRows,  // kRows from the cache alone: a miss returns no rendering
    kCachedMergeOrder,  // kMergeOrder from the cache alone
  };
  static bool CacheOnly(Render render) {
    return render == Render::kCachedRows ||
           render == Render::kCachedMergeOrder;
  }
  /// One execution's answer: the columns always, decoded rows unless a
  /// rendered call hit the cache, and the rendering when asked for.
  struct Outcome {
    QueryResult result;
    std::shared_ptr<const RenderedRows> rendered;
  };

  /// The shared body of Run(), RunRendered() and QueryRendered(): holds the
  /// gate ticket (member state is only touched under it), times the whole
  /// call, fingerprints the goal and hands one QueryRecord (including shed
  /// and failed outcomes) to the statistics collector around RunImpl().
  Result<Outcome> Execute(const struct Query& query, uint64_t parse_us,
                          Render render);
  Result<Outcome> RunImpl(const struct Query& query, Render render);
  /// The QueryRendered() body of a rendered outcome: the header with this
  /// query's columns, then the rendering.
  static std::string RenderedBody(const Outcome& out);

  /// True iff evaluating `goal` can observe a system relation: the goal
  /// predicate itself is sys_*, or some rule in the goal's dependency cone
  /// reads one in its body. Such queries are answered from a fresh
  /// system-fact batch and bypass the cache (system state changes without
  /// bumping the database epoch).
  bool TouchesSystemRelations(const Atom& goal) const;
  /// Whether `rule`'s body reads a sys_* relation or a head in sys_heads_.
  bool ReadsSystemRelations(const Rule& rule) const;
  /// Grows sys_heads_ to every rule head whose dependency cone reads a sys_*
  /// relation; called when added rules may have changed that set.
  void UpdateSystemHeads();

  /// Decides whether `goal` touches the sys_* namespace and, if so,
  /// materializes one consistent batch of system facts into
  /// sys_seed_facts_. Every evaluation strategy seeds the same batch,
  /// keeping answers byte-identical across strategies.
  void PrepareSystemFacts(const Atom& goal);
  std::vector<Fact> BuildSystemSeedFacts() const;

  /// RunUncached under a per-query child budget with the database-rollback
  /// anchor: a governed failure (resource/deadline/cancel) unwinds any
  /// derived intervals the evaluation materialized.
  Result<QueryResult> RunGoverned(const struct Query& query);

  /// The key of `query`'s entry in `order`; nullopt when the goal cannot
  /// be keyed (unresolvable symbol or a constructive term) — evaluation
  /// then reports the actual error.
  std::optional<QueryCache::Key> MakeCacheKey(const struct Query& query,
                                              RowOrder order) const;
  /// The current state's fixpoint key, which every answer's key extends.
  QueryCache::Key FixpointKey() const;
  uint64_t OptionsFingerprint() const;

  VideoDatabase* db_;
  EvalOptions options_;
  std::vector<Rule> rules_;
  /// Session-owned planner standing in for options_.body_orderer when
  /// reorder_body is on (RefreshPlanner); rebuilt per query so its
  /// statistics snapshot stays current.
  std::unique_ptr<Planner> planner_;
  EvalStats last_stats_;
  QueryExecInfo exec_info_;

  bool cache_enabled_ = true;
  uint64_t rules_epoch_ = 0;  // bumped whenever rules_ changes
  /// Rule heads whose dependency cone reads a sys_* relation. Rules are
  /// only ever added, so the set only grows (UpdateSystemHeads).
  std::set<std::string> sys_heads_;

  std::shared_ptr<QueryCache> cache_;

  std::shared_ptr<ResourceBudget> governor_;
  std::shared_ptr<QueryGate> gate_;
  ResourceBudget::Limits per_query_limits_;
  ShardInfoProvider shard_info_provider_;

  // --- self-observation state (see src/engine/sysrel.h) -------------------
  // Per-query phase timings, accumulated by the execution paths and
  // consumed by Run()'s statistics record.
  struct PhaseTimes {
    uint64_t rewrite_us = 0;
    uint64_t eval_us = 0;
    uint64_t decode_us = 0;
  };
  PhaseTimes phases_;
  // Per-query budget consumption captured by RunGoverned before the child
  // budget is detached (zero when ungoverned).
  struct BudgetUsage {
    uint64_t bytes_peak = 0;
    uint64_t tuples = 0;
    uint64_t solver_steps = 0;
  };
  BudgetUsage budget_usage_;
  bool sys_query_ = false;  // current query touches sys_* relations
  std::vector<Fact> sys_seed_facts_;
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_QUERY_H_
