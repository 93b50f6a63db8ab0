// Always-on statistics collector: the engine's self-observation substrate.
//
// Where src/obs/metrics.h holds unstructured counters, this collector keeps
// *query-model-shaped* statistics — the direct input contract for a
// cost-based planner and for the virtual sys_* relations (engine/sysrel.h):
//
//   * per-column distinct-value estimates: one HyperLogLog sketch per
//     (predicate, column), fed with dictionary ids at Interpretation insert
//     and VideoDatabase::AssertFact time (idempotent — re-deriving a row in
//     a later fixpoint never skews the estimate);
//   * per-(predicate, adornment) join selectivity EWMAs, folded once per
//     rule task from the evaluator's merge-join / hash probe counters;
//   * per-fingerprint query latency windows (ring of recent samples) with
//     exact p50/p99 extraction, plus per-phase (parse / rewrite / eval /
//     decode) latency windows;
//   * a slow-query log: ring buffer of the last N slow / failed / shed
//     queries with per-phase timings, budget consumption, access path and
//     failure reason, exported as JSON for tools/obs_check.
//
// Concurrency contract: one mutex guards all state. Snapshot() and Reset()
// take the same mutex as every Record* call, so a snapshot is never torn
// mid-update and a reset is atomic — a concurrent reader sees either the
// full pre-reset state or the empty post-reset state, never a mix.
// Recording sites are pre-aggregated (the evaluator folds per-task probe
// counts before calling RecordProbes; row recording happens only on the
// single-threaded fixpoint merge path), so the mutex is taken O(rows +
// tasks + queries) times, not O(probes).
//
// The process-wide collector is StatsCollector::Global(); tests may build
// private instances. StatsEnabled() gates all recording (default on).

#ifndef VQLDB_OBS_STATS_H_
#define VQLDB_OBS_STATS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vqldb {
namespace obs {

/// Process-wide switch for statistics recording. Defaults to on. Unlike
/// MetricsEnabled this also gates the HyperLogLog row sketches, so flipping
/// it off removes the collector from every hot path (one relaxed load).
bool StatsEnabled();
void SetStatsEnabled(bool enabled);

/// splitmix64 finalizer — the hash applied to dictionary ids before they
/// feed a sketch. Deterministic across runs (ids are deterministic per
/// intern order; the estimate only depends on the *set* of ids).
uint64_t MixHash(uint64_t x);

/// "bbf"-style adornment string for a bound-position bitmap (bit i set =>
/// argument i bound at probe time).
std::string AdornmentString(uint64_t bound_mask, size_t arity);

/// HyperLogLog distinct-value sketch, precision p=12 (4096 registers,
/// ~1.6% standard error), with the small-range linear-counting correction —
/// at 10k distinct values the estimate is well within the 5% contract the
/// property suite enforces.
class Hll {
 public:
  static constexpr uint32_t kPrecision = 12;
  static constexpr uint32_t kRegisters = 1u << kPrecision;

  /// Adds one *hashed* value (use MixHash). Idempotent: adding the same
  /// hash twice cannot change the estimate.
  void AddHash(uint64_t hash);
  /// Estimated number of distinct hashes added.
  double Estimate() const;
  void Reset();
  bool Empty() const { return nonzero_registers_ == 0; }

 private:
  std::array<uint8_t, kRegisters> registers_{};
  uint32_t nonzero_registers_ = 0;
};

/// One completed (or failed / shed) query as recorded by the session.
struct QueryRecord {
  std::string fingerprint;   // normalized goal, e.g. "path(?, $0)"
  std::string status;        // "ok" | lowercased status code name
  std::string access_path;   // "cache" | "qsqr(...)" | "magic(...)" |
                             // "fixpoint" | "shed"
  std::string reason;        // failure / trip / shed reason ("" when ok)
  uint64_t parse_us = 0;
  uint64_t rewrite_us = 0;
  uint64_t eval_us = 0;
  uint64_t decode_us = 0;
  uint64_t total_us = 0;
  uint64_t rows = 0;
  uint64_t bytes_peak = 0;    // per-query budget peak, when governed
  uint64_t tuples = 0;        // per-query budget tuple count, when governed
  uint64_t solver_steps = 0;  // per-query budget solver steps, when governed
  uint64_t seq = 0;           // assigned by the collector, monotone
};

/// Aggregated view of one query fingerprint (over the retained window).
struct QueryStatView {
  std::string fingerprint;
  uint64_t count = 0;    // total completions (all statuses)
  uint64_t rows = 0;     // total rows returned by successful runs
  uint64_t p50_us = 0;   // exact quantiles over the retained latency window
  uint64_t p99_us = 0;
  std::vector<std::pair<std::string, uint64_t>> statuses;  // sorted by name
};

struct ColumnStatView {
  std::string predicate;
  uint32_t column = 0;
  double distinct_estimate = 0;
};

struct SelectivityView {
  std::string predicate;
  std::string adornment;     // "bbf..."
  uint64_t probes = 0;       // lifetime probe count for this adornment
  uint64_t candidates = 0;   // lifetime candidate rows produced
  double ewma = 0;           // smoothed candidates-per-probe / relation-rows
};

/// How often EvalStrategy::kAuto dispatched one goal shape to one strategy
/// — the substrate of sys_plan_choices.
struct PlanChoiceView {
  std::string fingerprint;  // normalized goal the strategy was chosen for
  std::string strategy;     // "qsqr" | "magic" | "fixpoint"
  uint64_t count = 0;       // times this strategy was chosen
};

struct PhaseStatView {
  std::string phase;  // parse | rewrite | eval | decode | total
  uint64_t count = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
};

/// A consistent point-in-time copy of every statistic the collector holds.
struct StatsSnapshot {
  std::vector<ColumnStatView> columns;          // sorted (predicate, column)
  std::vector<SelectivityView> selectivity;     // sorted (predicate, adorn)
  std::vector<QueryStatView> queries;           // sorted by fingerprint
  std::vector<PhaseStatView> phases;            // fixed phase order
  std::vector<PlanChoiceView> plan_choices;     // sorted (fingerprint, strat)
  std::vector<QueryRecord> slow;                // oldest -> newest
  uint64_t slow_threshold_us = 0;
  uint64_t total_queries = 0;                   // since last Reset
};

class StatsCollector {
 public:
  /// Retained latency samples per fingerprint / phase (exact-quantile
  /// window) and default slow-log capacity / threshold.
  static constexpr size_t kLatencyWindow = 512;
  static constexpr size_t kDefaultSlowCapacity = 128;
  static constexpr uint64_t kDefaultSlowThresholdUs = 100 * 1000;

  static StatsCollector& Global();

  StatsCollector() = default;
  StatsCollector(const StatsCollector&) = delete;
  StatsCollector& operator=(const StatsCollector&) = delete;

  /// Feeds one inserted row's dictionary ids into the per-column sketches.
  /// Skips internal predicates (magic "m#..." demand predicates and sys_*
  /// virtual relations). No-op when StatsEnabled() is false.
  void RecordRow(const std::string& predicate, const uint32_t* ids,
                 uint32_t arity);

  /// Folds one rule task's probe counters for (predicate, adornment):
  /// `probes` probe operations produced `candidates` candidate rows against
  /// a relation of `relation_rows` rows. Updates the selectivity EWMA
  /// (alpha = kEwmaAlpha) with this batch's candidates-per-probe divided by
  /// the relation cardinality.
  void RecordProbes(const std::string& predicate, const std::string& adornment,
                    uint64_t probes, uint64_t candidates,
                    uint64_t relation_rows);

  /// Records one finished query. Appends to the slow ring when
  /// total_us >= slow threshold or status != "ok".
  void RecordQuery(QueryRecord record);

  /// Records one kAuto strategy decision for a query fingerprint. Feeds
  /// sys_plan_choices.
  void RecordPlanChoice(const std::string& fingerprint,
                        const std::string& strategy);

  void set_slow_threshold_us(uint64_t us);
  uint64_t slow_threshold_us() const;
  void set_slow_capacity(size_t n);

  /// Consistent snapshot of everything (one lock; never torn).
  StatsSnapshot Snapshot() const;
  /// Atomically clears sketches, EWMAs, latency windows, the slow ring and
  /// counters. Threshold / capacity settings survive.
  void Reset();
  /// Clears only the slow-query ring (".slowlog reset").
  void ResetSlowLog();

  /// JSON export of the slow ring + per-fingerprint aggregates; the schema
  /// tools/obs_check validates with ValidateSlowLogJson.
  std::string RenderSlowLogJson() const;
  /// Human-readable tail of the slow ring (newest first, at most
  /// `max_entries`) for the `.slowlog` shell command.
  std::string RenderSlowLogText(size_t max_entries) const;

  static constexpr double kEwmaAlpha = 0.25;

 private:
  struct LatencyWindow {
    std::vector<uint64_t> samples;  // ring, capacity kLatencyWindow
    size_t next = 0;
    uint64_t count = 0;
    void Add(uint64_t us);
    // Exact quantiles over the retained samples (nth_element on a copy).
    void Quantiles(uint64_t* p50, uint64_t* p99) const;
  };
  struct FingerprintStats {
    LatencyWindow latency;
    uint64_t rows = 0;
    std::map<std::string, uint64_t> status_counts;
  };
  struct SelectivityStats {
    uint64_t probes = 0;
    uint64_t candidates = 0;
    double ewma = 0;
    bool seeded = false;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::vector<Hll>> columns_;
  // Cache of the last predicate looked up in columns_ — fixpoint merges
  // deliver rows grouped by predicate, so this removes a map lookup per row.
  const std::string* last_predicate_ = nullptr;
  std::vector<Hll>* last_sketches_ = nullptr;
  std::map<std::pair<std::string, std::string>, SelectivityStats> selectivity_;
  std::map<std::string, FingerprintStats> queries_;
  std::map<std::pair<std::string, std::string>, uint64_t> plan_choices_;
  std::array<LatencyWindow, 5> phases_;  // parse/rewrite/eval/decode/total
  std::deque<QueryRecord> slow_;
  size_t slow_capacity_ = kDefaultSlowCapacity;
  uint64_t slow_threshold_us_ = kDefaultSlowThresholdUs;
  uint64_t total_queries_ = 0;
  uint64_t next_seq_ = 1;
};

/// Schema validator for RenderSlowLogJson output (used by tools/obs_check
/// and tests): required fields with the right types, per-fingerprint
/// quantile invariants (p50 <= p99), and status counts summing to `count`.
bool ValidateSlowLogJson(const std::string& json, std::string* error);

}  // namespace obs
}  // namespace vqldb

#endif  // VQLDB_OBS_STATS_H_
