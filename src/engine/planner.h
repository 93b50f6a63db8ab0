// Selectivity-driven body ordering over StatsCollector snapshots: the
// LiteralOrderer QuerySession installs when EvalOptions::reorder_body is
// on, replacing the stats-blind bound-first greedy. Which strategy answers
// a goal is not this class's business: goal_analysis.h picks it from the
// goal's cone shape.
//
// Estimates come from three sources, in preference order:
//   1. stored EDB cardinalities (VideoDatabase::FactsFor — exact);
//   2. per-column HyperLogLog distinct sketches and per-(predicate,
//      adornment) selectivity EWMAs from the statistics collector (derived
//      relations appear here once the fixpoint has observed them);
//   3. fixed defaults when nothing has been observed yet (cold start).

#ifndef VQLDB_ENGINE_PLANNER_H_
#define VQLDB_ENGINE_PLANNER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/rule_compiler.h"
#include "src/model/database.h"
#include "src/obs/stats.h"

namespace vqldb {

class Planner : public LiteralOrderer {
 public:
  /// Captures the statistics snapshot and the database's current
  /// cardinalities (entity/interval counts; EDB row counts are read live —
  /// FactsFor returns a reference, so the reads are cheap).
  Planner(const VideoDatabase* db, obs::StatsSnapshot snapshot);

  /// LiteralOrderer: greedy minimum-estimated-candidates body order under
  /// the legality constraint (computable literals only once fully bound).
  std::vector<size_t> OrderBody(
      const std::vector<CompiledLiteral>& literals,
      const std::vector<bool>& computable) const override;

  /// Estimated rows of a relation: exact EDB count when stored, else the
  /// largest per-column distinct estimate the collector has seen for the
  /// predicate (derived relations), else kDefaultRows.
  double EstimateRows(const std::string& predicate) const;

  /// Estimated candidate rows per probe of `predicate` with the given
  /// bound-position mask: a seeded selectivity EWMA when one exists for the
  /// adornment, else rows / product of bound-column distinct counts.
  double EstimateCandidates(const std::string& predicate, uint64_t bound_mask,
                            size_t arity) const;

  static constexpr double kDefaultRows = 64;
  static constexpr double kDefaultDistinct = 8;

 private:
  double DistinctOf(const std::string& predicate, size_t column) const;

  const VideoDatabase* db_;
  std::map<std::pair<std::string, size_t>, double> distinct_;
  std::map<std::pair<std::string, std::string>, double> ewma_;
  double num_entities_ = 0;
  double num_intervals_ = 0;
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_PLANNER_H_
