#include "src/engine/planner.h"

#include <algorithm>
#include <limits>
#include <set>

namespace vqldb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Planner::Planner(const VideoDatabase* db, obs::StatsSnapshot snapshot)
    : db_(db) {
  for (const obs::ColumnStatView& c : snapshot.columns) {
    distinct_[{c.predicate, c.column}] = c.distinct_estimate;
  }
  for (const obs::SelectivityView& s : snapshot.selectivity) {
    ewma_[{s.predicate, s.adornment}] = s.ewma;
  }
  num_entities_ = static_cast<double>(db->Entities().size());
  num_intervals_ = static_cast<double>(db->AllIntervals().size());
}

double Planner::DistinctOf(const std::string& predicate, size_t column) const {
  auto it = distinct_.find({predicate, column});
  if (it != distinct_.end() && it->second >= 1) return it->second;
  return kDefaultDistinct;
}

double Planner::EstimateRows(const std::string& predicate) const {
  size_t stored = db_->FactsFor(predicate).size();
  if (stored > 0) return static_cast<double>(stored);
  // Derived relations never live in the database; the column sketches have
  // seen their rows if any fixpoint materialized them while observed. The
  // widest column's distinct count lower-bounds the row count.
  double best = 0;
  for (auto it = distinct_.lower_bound({predicate, 0});
       it != distinct_.end() && it->first.first == predicate; ++it) {
    best = std::max(best, it->second);
  }
  return best >= 1 ? best : kDefaultRows;
}

double Planner::EstimateCandidates(const std::string& predicate,
                                   uint64_t bound_mask, size_t arity) const {
  double rows = EstimateRows(predicate);
  if (bound_mask == 0) return rows;
  auto it = ewma_.find({predicate, obs::AdornmentString(bound_mask, arity)});
  if (it != ewma_.end() && it->second > 0) {
    return std::max(it->second * rows, 1.0 / 64);
  }
  double reduced = rows;
  for (size_t i = 0; i < arity && i < 64; ++i) {
    if (bound_mask >> i & 1) reduced /= std::max(1.0, DistinctOf(predicate, i));
  }
  return std::max(reduced, 1.0 / 64);
}

std::vector<size_t> Planner::OrderBody(
    const std::vector<CompiledLiteral>& literals,
    const std::vector<bool>& computable) const {
  const size_t n = literals.size();
  std::vector<size_t> order;
  order.reserve(n);
  std::set<int> bound;
  std::vector<bool> used(n, false);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    double best_cost = kInf;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const CompiledLiteral& lit = literals[i];
      size_t free_vars = 0;
      uint64_t mask = 0;
      for (size_t a = 0; a < lit.args.size(); ++a) {
        const CompiledTerm& t = lit.args[a];
        if (!t.is_var || bound.count(t.var)) {
          if (a < 64) mask |= uint64_t{1} << a;
        } else {
          ++free_vars;
        }
      }
      double cost;
      if (computable[i]) {
        if (free_vars != 0) continue;  // illegal before its producers
        cost = 0.5;  // a pure filter: run as early as legality allows
      } else if (lit.builtin != BuiltinClass::kNone) {
        cost = free_vars == 0 ? 1
                              : std::max(1.0, num_entities_ + num_intervals_);
      } else {
        cost = EstimateCandidates(lit.predicate, mask, lit.args.size());
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    if (best == n) {
      // Only stranded computable literals remain; emit them in written
      // order — the evaluator reports the range-restriction error.
      for (size_t i = 0; i < n; ++i) {
        if (!used[i]) {
          best = i;
          break;
        }
      }
    }
    used[best] = true;
    order.push_back(best);
    for (const CompiledTerm& t : literals[best].args) {
      if (t.is_var) bound.insert(t.var);
    }
  }
  return order;
}

}  // namespace vqldb
