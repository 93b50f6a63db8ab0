// Virtual system relations: the engine's introspection surface expressed in
// the paper's own data model. Every sys_* predicate is a read-only EDB
// relation whose facts are materialized on demand — a QuerySession that sees
// a goal or rule touching a sys_* predicate builds one consistent batch of
// system facts (from the statistics collector, the metrics registry, the
// storage layer and the resource governor) and seeds them into the
// evaluation exactly like stored facts. Rules can therefore join engine
// internals with ordinary video annotations:
//
//   hot(P)      <- sys_relations(P, A, R, B, S), sys_columns(P, 0, D).
//   ?- sys_queries(F, C, P50, P99, Rows, Status).
//
// The relations and their columns:
//
//   sys_relations(pred, arity, rows, bytes, segments)  - per stored relation
//   sys_columns(pred, col, distinct_est)               - HyperLogLog sketches
//   sys_selectivity(pred, adornment, probes, ewma)     - per-adornment EWMAs
//   sys_metrics(name, kind, value)                     - metrics registry
//   sys_plan_choices(fingerprint, strategy, count)     - kAuto's dispatches
//   sys_queries(fingerprint, count, p50_us, p99_us, rows, status)
//   sys_cache(kind, enabled, entries, bytes, max_bytes)
//   sys_budget(scope, field, value)                    - governor + limits
//   sys_shards(shard, state, facts, replayed, dropped, recoveries, error)
//                            - per-shard health of a sharded archive; empty
//                              for sessions not attached to one
//
// Consistency contract: all facts of one batch come from a single collector
// snapshot and a single per-relation storage scan (Interpretation::
// PerRelationStats over the stored EDB), the same source EXPLAIN ANALYZE's
// per-relation storage lines read. Because the batch is fixed before
// evaluation starts, a query touching sys_* relations evaluates
// byte-identically under serial, parallel and magic-set strategies.
//
// The "sys_" name prefix is reserved: AssertFact and rule heads reject it.

#ifndef VQLDB_ENGINE_SYSREL_H_
#define VQLDB_ENGINE_SYSREL_H_

#include <string>
#include <vector>

#include "src/common/budget.h"
#include "src/lang/ast.h"
#include "src/model/database.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"

namespace vqldb {

/// True iff `name` is in the reserved system-relation namespace ("sys_").
bool IsSystemRelation(const std::string& name);

/// Normalized query fingerprint: constants collapse to `?`, variables are
/// renumbered `$0, $1, ...` in order of first occurrence (so α-equivalent
/// goals collapse to one fingerprint while repeated-variable patterns stay
/// distinct), constructive terms render as `++`. E.g.
///   ?- path(n3, Y).      ->  "path(?, $0)"
///   ?- path(X, X).       ->  "path($0, $0)"
std::string QueryFingerprint(const Atom& goal);

/// One shard's health summary, the row shape of the sys_shards relation.
/// Produced by the sharded archive layer (src/storage/shard_store.h) and
/// handed to sessions through QuerySession::set_shard_info_provider so
/// shard health is queryable from any shard's session.
struct ShardInfoRow {
  int64_t shard_id = 0;
  std::string state;  // "healthy" | "recovering" | "degraded" | "failed"
  int64_t facts = 0;
  int64_t records_replayed = 0;  // journal records applied by last recovery
  int64_t records_dropped = 0;   // torn-tail records truncated
  int64_t recoveries = 0;        // completed recovery passes
  std::string last_error;        // "" when none
};

/// Everything a system-fact batch is built from. Pointers are borrowed for
/// the duration of the BuildSystemFacts call.
struct SystemFactsInput {
  const VideoDatabase* db = nullptr;                     // sys_relations/...
  const obs::StatsSnapshot* stats = nullptr;             // collector snapshot
  const std::vector<obs::MetricSample>* metrics = nullptr;  // sys_metrics
  // Cache occupancy, every entry counted, the fixpoint's included
  // (sys_cache "query" row).
  bool cache_enabled = false;
  size_t cache_entries = 0;
  size_t cache_bytes = 0;
  size_t cache_max_bytes = 0;
  // The cache's entry for the current state's fixpoint: whether it is
  // present, and its bytes (sys_cache "fixpoint" row).
  bool fixpoint_cached = false;
  size_t fixpoint_bytes = 0;
  // Resource governance (sys_budget rows); either may be absent.
  const ResourceBudget* governor = nullptr;
  ResourceBudget::Limits per_query_limits;
  // Sharded-archive health (sys_shards rows); absent for single-db sessions.
  const std::vector<ShardInfoRow>* shards = nullptr;
};

/// Materializes one consistent batch of system facts. The per-relation rows
/// (sys_relations) are computed by loading the database's stored facts into
/// a sealed Interpretation and reading Interpretation::PerRelationStats —
/// byte-for-byte the numbers EXPLAIN ANALYZE prints. System relations never
/// describe themselves (no sys_relations("sys_relations", ...) rows).
std::vector<Fact> BuildSystemFacts(const SystemFactsInput& input);

}  // namespace vqldb

#endif  // VQLDB_ENGINE_SYSREL_H_
