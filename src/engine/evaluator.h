// Bottom-up evaluation of programs: the immediate-consequence operator T_P
// (Defs. 21-22) and its least fixpoint, computed semi-naively (naive rounds
// only under the extended active domain, whose growth deltas cannot track).
//
// The extended active domain (Defs. 19-20) is handled as follows: the
// builtin Interval(G) literal ranges over the database's interval objects —
// base intervals plus every derived interval materialized so far; when
// options.extended_active_domain is set, it additionally ranges over the
// pairwise concatenations of those intervals (materializing them on demand),
// which is the literal Def. 21 semantics. The default leaves concatenation
// materialization to constructive rule heads, which is how programs actually
// create new sequences and keeps Interval() enumeration linear. Where a
// constraint of the rule allows, an unbound class literal enumerates only
// the candidates an index yields (eval_common::MatchClassLiteral).
//
// A relational literal finds its facts by the shape of its probe: bound
// positions forming a contiguous prefix binary-search the round's sealed
// segments (a merge join), other bound positions probe the multi-column
// hash index, and a literal with nothing bound scans. Every path yields
// candidates in insertion order, so the fixpoint does not depend on it.
//
// Constructive heads (G1 ++ G2) call VideoDatabase::Concatenate, whose
// constituent-set-canonical ids make (+) idempotent — the termination
// argument of Section 6.1 (I1 (+) I1 == I1) holds exactly, so fixpoints of
// constructive programs are finite.
//
// Parallelism: with EvalOptions::num_threads != 1, each fixpoint round's
// independent (rule, delta_pos) tasks fan out on a shared ThreadPool. Every
// task reads the round's immutable `full`/`delta` interpretations (their
// multi-column join indexes are pre-built, so probes are mutation-free) and
// accumulates facts plus counters into private per-task blocks, which the
// coordinator merges in stable rule order. Constructive rules — the only
// ones that mutate the database — always run serially after the fan-out.
// The computed least fixpoint is identical for every thread count.

#ifndef VQLDB_ENGINE_EVALUATOR_H_
#define VQLDB_ENGINE_EVALUATOR_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/budget.h"
#include "src/common/cancel.h"
#include "src/common/result.h"
#include "src/constraint/concrete_domain.h"
#include "src/engine/interpretation.h"
#include "src/engine/rule_compiler.h"
#include "src/lang/ast.h"
#include "src/model/database.h"

namespace vqldb {

class ThreadPool;

/// How a query session answers a goal. The answers are identical across
/// strategies (the strategy property suite proves it); only the work done to
/// produce them differs, so — like reorder_body — this never enters the
/// query-cache key.
enum class EvalStrategy {
  kAuto,      // picked per goal from its cone's shape (goal_analysis.h)
  kQsqr,      // top-down memoized backward chaining (falls back when declined)
  kMagic,     // magic-set rewrite + semi-naive fixpoint
  kFixpoint,  // full bottom-up fixpoint, no goal direction
};

const char* EvalStrategyName(EvalStrategy strategy);

struct EvalOptions {
  /// Optional concrete domain (Def. 1): body literals whose predicate is
  /// registered here with a matching arity evaluate as computable checks
  /// over atomic values (e.g. spatial predicates like near/2) instead of
  /// matching stored facts. Such literals do not bind variables — every
  /// argument must be bound by an earlier literal. Not owned.
  const ConcreteDomain* concrete_domain = nullptr;
  /// Fixpoint iteration cap (safety net; EvaluationError when exceeded).
  size_t max_iterations = 100000;
  /// Total derived-fact cap (safety net against runaway programs).
  size_t max_facts = 10000000;
  /// Reorder rule body literals; off by default — the written order is the
  /// author's plan. With `body_orderer` set, the supplied policy (the
  /// planner's selectivity ordering) decides; otherwise the greedy
  /// bound-first heuristic runs. Either way concrete-domain literals are
  /// never moved ahead of the literals binding their variables.
  bool reorder_body = false;
  /// Stats-driven body ordering policy, consulted only when reorder_body is
  /// set. Not owned; must outlive rule compilation (Evaluator::Make /
  /// QuerySession rule loading).
  const LiteralOrderer* body_orderer = nullptr;
  /// Execution strategy for QuerySession goals (ignored by a bare
  /// Evaluator, which always runs the fixpoint it is asked for).
  EvalStrategy strategy = EvalStrategy::kAuto;
  /// Full Def. 21 extended-active-domain semantics for Interval():
  /// enumerate pairwise concatenations of all current intervals too.
  bool extended_active_domain = false;
  /// When true, type mismatches inside constraints (e.g. `in` on a non-set)
  /// raise TypeError; when false they simply fail the constraint.
  bool strict_types = false;
  /// Worker threads for fixpoint rounds. 0 = hardware concurrency; 1 = the
  /// exact serial legacy path (no pool, no snapshot/merge). With N > 1,
  /// independent (rule, delta_pos) tasks of each semi-naive round evaluate
  /// concurrently against the round's immutable interpretations, and their
  /// per-task deltas merge in stable rule order — the final fixpoint is
  /// identical to the serial engine's for every thread count.
  size_t num_threads = 0;
  /// Collect a per-rule / per-round wall-time and tuple-count profile during
  /// Fixpoint() (the data behind EXPLAIN ANALYZE). Off by default: profiling
  /// adds two clock reads per task and per round.
  bool collect_profile = false;
  /// Wall-clock deadline for Fixpoint()/ApplyOnce(). Checked cooperatively
  /// at every round and task-batch boundary; when it passes, evaluation
  /// unwinds with Status::DeadlineExceeded (partial stats still publish to
  /// the metrics registry — the process never aborts).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Cooperative cancellation, checked at the same points as the deadline;
  /// a cancelled token unwinds with Status::Cancelled. Shared so a shell
  /// signal handler or server loop can flip it from another thread.
  std::shared_ptr<CancelToken> cancel;
  /// Resource budget for this evaluation: every derived fact is metered
  /// (ApproxBytes + one tuple) and constraint-solver work charges solver
  /// steps through the thread-local ExecContext. A trip unwinds with
  /// Status::ResourceExhausted at the same cooperative poll points as the
  /// deadline — partial stats still publish, and the database is left
  /// exactly as the caller's rollback anchor (QuerySession) restores it.
  /// The fixpoint interpretation keeps its reservation until it is dropped,
  /// or until the query cache stores it and charges it itself.
  std::shared_ptr<ResourceBudget> budget;
};

/// Statistics of one evaluation, for benchmarks and the EXPERIMENTS harness.
/// Per-task blocks are plain (non-atomic) counters; the coordinator folds
/// them with MergeFrom and publishes the totals into the process-wide
/// obs::MetricsRegistry when a fixpoint completes.
struct EvalStats {
  size_t iterations = 0;          // fixpoint rounds (coordinator only)
  size_t derived_facts = 0;       // facts beyond the EDB
  size_t rule_firings = 0;        // successful head emissions (incl. dups)
  size_t constraint_checks = 0;
  size_t intervals_created = 0;   // derived intervals materialized
  size_t parallel_tasks = 0;      // (rule, delta_pos) tasks run on the pool
  size_t join_probes = 0;         // multi-column join-index probes issued
  size_t join_probe_hits = 0;     // probes that found >= 1 candidate fact
  size_t merge_join_probes = 0;   // probes answered by sorted-segment search
  size_t hash_join_probes = 0;    // probes answered by the hash indexes
  size_t delta_tuples = 0;        // facts entering round deltas (coordinator)

  /// Folds a per-task counter block into this one — every field except
  /// `iterations` and `delta_tuples`, which only the coordinating thread
  /// advances (tasks cannot see round boundaries).
  void MergeFrom(const EvalStats& other) {
    derived_facts += other.derived_facts;
    rule_firings += other.rule_firings;
    constraint_checks += other.constraint_checks;
    intervals_created += other.intervals_created;
    parallel_tasks += other.parallel_tasks;
    join_probes += other.join_probes;
    join_probe_hits += other.join_probe_hits;
    merge_join_probes += other.merge_join_probes;
    hash_join_probes += other.hash_join_probes;
  }
};

/// Per-rule profile of one Fixpoint() run (EvalOptions::collect_profile):
/// one entry per compiled rule, in rule order.
struct RuleProfile {
  std::string label;     // rule name, else head predicate (unique-suffixed)
  size_t tasks = 0;      // (rule, delta_pos) evaluations of this rule
  size_t firings = 0;    // head emissions
  size_t derived = 0;    // new facts this rule contributed to the fixpoint
  double wall_ms = 0;    // summed task wall time (parallel tasks overlap)
};

/// Per-round profile: one entry per fixpoint iteration.
struct RoundProfile {
  size_t round = 0;      // 1-based
  size_t tasks = 0;      // scheduled (rule, delta_pos) tasks
  size_t new_facts = 0;  // delta tuples the round produced
  double wall_ms = 0;    // wall time of the round
};

/// The EXPLAIN ANALYZE payload: where each rule and round spent its time.
struct EvalProfile {
  std::vector<RuleProfile> rules;
  std::vector<RoundProfile> rounds;
  double total_ms = 0;

  /// Tabular rendering (per-rule and per-round sections).
  std::string ToString() const;
};

/// Evaluates a fixed set of rules over a database. The evaluator owns no
/// state between calls except the compiled rules; the database is mutated
/// only by constructive rules (derived interval materialization).
class Evaluator {
 public:
  /// Compiles `rules` against `db`. The rules must pass Analyzer checks.
  static Result<Evaluator> Make(VideoDatabase* db, std::vector<Rule> rules,
                                EvalOptions options = {});

  /// Least fixpoint containing the EDB: all database relation facts plus the
  /// program's own facts, closed under the rules.
  Result<Interpretation> Fixpoint();

  /// One application of T_P to an arbitrary interpretation (Def. 22):
  /// returns I plus all immediate consequences. Exposed for the semantics
  /// property tests (monotonicity, continuity, fixpoint-is-model).
  Result<Interpretation> ApplyOnce(const Interpretation& interpretation);

  /// The EDB: database facts plus program facts (what Fixpoint starts from).
  Result<Interpretation> Edb() const;

  /// Extra ground facts folded into the EDB of every Fixpoint()/ApplyOnce()
  /// — the seeding mechanism of the magic-set transformation (the demand
  /// facts m#goal(bound values) that start goal-directed derivation). The
  /// facts live in the evaluation's interpretation only; the database is
  /// never mutated.
  void AddSeedFacts(std::vector<Fact> facts);
  const std::vector<Fact>& seed_facts() const { return seed_facts_; }

  const EvalStats& stats() const { return stats_; }

  /// The last Fixpoint()'s profile; empty unless options.collect_profile.
  const EvalProfile& profile() const { return profile_; }

  const std::vector<CompiledRule>& compiled_rules() const { return rules_; }

  /// The worker count this evaluator resolves `options.num_threads` to
  /// (hardware concurrency when the option is 0).
  size_t effective_threads() const;

  Evaluator(Evaluator&&) noexcept;
  Evaluator& operator=(Evaluator&&) noexcept;
  ~Evaluator();

 private:
  Evaluator(VideoDatabase* db, EvalOptions options);

  /// One schedulable unit of a fixpoint round: a rule with literal
  /// `delta_pos` (-1 = unrestricted) restricted to the round's delta.
  struct RuleTask {
    size_t rule_idx;
    int delta_pos;
  };

  // Runs one round's task batch. Serial in rule order when the effective
  // thread count is 1 (the exact legacy path); otherwise non-constructive
  // tasks fan out on the pool against the immutable `full`/`delta`
  // snapshot, constructive tasks (which materialize derived intervals in
  // the database) run serially afterwards, and all per-task deltas merge
  // into `out` in stable task order.
  Status RunRound(const std::vector<RuleTask>& tasks,
                  const Interpretation& full, const Interpretation* delta,
                  const std::vector<ObjectId>* interval_delta,
                  Interpretation* out);

  // Builds every (predicate, bound-position bitmap) join index the compiled
  // plans can probe, so concurrent LookupMulti calls never mutate the
  // shared interpretations.
  void PrepareJoinIndexes(const Interpretation& full,
                          const Interpretation* delta) const;

  // True iff some compiled class-literal step can narrow through the
  // database's temporal index, which RunRound then rebuilds before a
  // parallel fan-out.
  bool ReadsTemporalIndex() const;

  // Evaluates one rule against `full`, with literal `delta_pos` (if >= 0)
  // restricted to `delta`; emits derived facts through EmitHead into `out`.
  // Counters go to `stats` (a per-task block under parallel evaluation).
  Status EvalRule(const CompiledRule& rule, const Interpretation& full,
                  const Interpretation* delta, int delta_pos,
                  const std::vector<ObjectId>* interval_delta,
                  Interpretation* out, EvalStats* stats);

  // Per-EvalRule scratch: one candidate buffer and one boxed probe key per
  // step, reused across every probe so the join inner loops allocate
  // nothing, plus the step's resolved RelationView — the source (full or
  // delta, fixed by delta_pos) and its stores are stable for the whole rule,
  // so the predicate-name hash lookup happens once per step instead of once
  // per probe. Stack-owned by EvalRule, so parallel tasks never share one.
  struct EvalScratch {
    std::vector<std::vector<size_t>> candidates;
    std::vector<std::vector<Value>> probe_keys;
    std::vector<Interpretation::RelationView> rels;
    std::vector<uint8_t> rel_ready;
    // Per-step probe/candidate totals, folded into the statistics
    // collector's selectivity EWMAs once per EvalRule (never per probe).
    struct ProbeAgg {
      uint64_t probes = 0;
      uint64_t candidates = 0;
    };
    std::vector<ProbeAgg> probe_aggs;
  };

  Status EvalSteps(const CompiledRule& rule, size_t step_idx,
                   const Interpretation& full, const Interpretation* delta,
                   int delta_pos, const std::vector<ObjectId>* interval_delta,
                   class BindingEnv* env, Interpretation* out,
                   EvalStats* stats, EvalScratch* scratch);

  Status EmitHead(const CompiledRule& rule, const class BindingEnv& env,
                  Interpretation* out, EvalStats* stats);

  // Deadline/cancel/budget poll (see EvalOptions::deadline, ::budget). OK
  // when none has tripped; DeadlineExceeded/Cancelled/ResourceExhausted
  // otherwise — including trips recorded by solver code through the
  // thread-local ExecContext.
  Status CheckInterrupt() const;

  // Attaches the evaluation budget (if any) to an interpretation the
  // evaluation materializes into.
  void Govern(Interpretation* interp) const;

  // Constraint checking; `ok` receives the verdict. Status is non-OK only
  // for hard errors (strict_types).
  Status CheckConstraint(const CompiledConstraint& constraint,
                         const class BindingEnv& env, bool* ok,
                         EvalStats* stats);
  Status ResolveOperand(const CompiledOperand& operand,
                        const class BindingEnv& env, Value* out, bool* defined);

  Status MaterializeExtendedDomain();

  // Sizes profile_.rules to the rule set (labels deduplicated); no-op when
  // already sized.
  void EnsureProfileRules();

  VideoDatabase* db_;
  EvalOptions options_;
  std::vector<CompiledRule> rules_;
  std::vector<Rule> source_rules_;
  std::vector<Fact> seed_facts_;
  EvalStats stats_;
  EvalProfile profile_;
  std::unique_ptr<ThreadPool> pool_;  // lazily created, reused across rounds
  // Interrupt surface shared by the coordinator and its pool workers; bound
  // per-thread with ExecContextScope so solver inner loops can poll it.
  std::unique_ptr<ExecContext> ctx_;
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_EVALUATOR_H_
