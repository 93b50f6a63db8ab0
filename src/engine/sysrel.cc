#include "src/engine/sysrel.h"

#include <cmath>
#include <map>

#include "src/engine/interpretation.h"

namespace vqldb {

bool IsSystemRelation(const std::string& name) {
  return name.compare(0, 4, "sys_") == 0;
}

std::string QueryFingerprint(const Atom& goal) {
  std::string out = goal.predicate;
  out.push_back('(');
  std::map<std::string, size_t> numbering;
  for (size_t i = 0; i < goal.args.size(); ++i) {
    if (i != 0) out.append(", ");
    const Term& term = goal.args[i];
    switch (term.kind) {
      case Term::Kind::kConstant:
        out.push_back('?');
        break;
      case Term::Kind::kVariable: {
        auto [it, inserted] =
            numbering.try_emplace(term.variable, numbering.size());
        out.push_back('$');
        out.append(std::to_string(it->second));
        (void)inserted;
        break;
      }
      case Term::Kind::kConcat:
        out.append("++");
        break;
    }
  }
  out.push_back(')');
  return out;
}

std::vector<Fact> BuildSystemFacts(const SystemFactsInput& input) {
  std::vector<Fact> facts;
  auto emit = [&facts](const std::string& relation,
                       std::vector<Value> args) {
    facts.push_back(Fact{relation, std::move(args)});
  };

  // sys_relations(pred, arity, rows, bytes, segments): load the stored EDB
  // into a sealed Interpretation so the numbers are exactly what the
  // evaluator's storage layer (and EXPLAIN ANALYZE) reports.
  if (input.db != nullptr) {
    Interpretation edb;
    for (const std::string& name : input.db->RelationNames()) {
      for (const Fact& fact : input.db->FactsFor(name)) edb.Add(fact);
    }
    edb.SealSegments();
    for (const Interpretation::RelationStats& rs : edb.PerRelationStats()) {
      if (IsSystemRelation(rs.predicate)) continue;
      emit("sys_relations",
           {Value::String(rs.predicate),
            Value::Int(static_cast<int64_t>(rs.arity)),
            Value::Int(static_cast<int64_t>(rs.rows)),
            Value::Int(static_cast<int64_t>(rs.bytes)),
            Value::Int(static_cast<int64_t>(rs.segments))});
    }
  }

  if (input.stats != nullptr) {
    const obs::StatsSnapshot& snap = *input.stats;
    // sys_columns(pred, col, distinct_est) — estimates round to the nearest
    // integer (a cardinality, joinable against row counts).
    for (const obs::ColumnStatView& col : snap.columns) {
      emit("sys_columns",
           {Value::String(col.predicate),
            Value::Int(static_cast<int64_t>(col.column)),
            Value::Int(static_cast<int64_t>(
                std::llround(col.distinct_estimate)))});
    }
    // sys_selectivity(pred, adornment, probes, ewma).
    for (const obs::SelectivityView& sel : snap.selectivity) {
      emit("sys_selectivity",
           {Value::String(sel.predicate), Value::String(sel.adornment),
            Value::Int(static_cast<int64_t>(sel.probes)),
            Value::Double(sel.ewma)});
    }
    // sys_plan_choices(fingerprint, strategy, count): how
    // EvalStrategy::kAuto dispatched each goal shape.
    for (const obs::PlanChoiceView& pc : snap.plan_choices) {
      emit("sys_plan_choices",
           {Value::String(pc.fingerprint), Value::String(pc.strategy),
            Value::Int(static_cast<int64_t>(pc.count))});
    }
    // sys_queries(fingerprint, count, p50_us, p99_us, rows, status): one row
    // per (fingerprint, status); count is that status's completions, the
    // quantiles cover the fingerprint's whole latency window and rows is the
    // fingerprint's total over successful runs.
    for (const obs::QueryStatView& q : snap.queries) {
      for (const auto& [status, count] : q.statuses) {
        emit("sys_queries",
             {Value::String(q.fingerprint),
              Value::Int(static_cast<int64_t>(count)),
              Value::Int(static_cast<int64_t>(q.p50_us)),
              Value::Int(static_cast<int64_t>(q.p99_us)),
              Value::Int(static_cast<int64_t>(q.rows)),
              Value::String(status)});
      }
    }
  }

  // sys_metrics(name, kind, value).
  if (input.metrics != nullptr) {
    for (const obs::MetricSample& sample : *input.metrics) {
      emit("sys_metrics", {Value::String(sample.name),
                           Value::String(sample.kind),
                           Value::Double(sample.value)});
    }
  }

  // sys_cache(kind, enabled, entries, bytes, max_bytes).
  emit("sys_cache",
       {Value::String("query"), Value::Int(input.cache_enabled ? 1 : 0),
        Value::Int(static_cast<int64_t>(input.cache_entries)),
        Value::Int(static_cast<int64_t>(input.cache_bytes)),
        Value::Int(static_cast<int64_t>(input.cache_max_bytes))});
  emit("sys_cache",
       {Value::String("fixpoint"), Value::Int(input.cache_enabled ? 1 : 0),
        Value::Int(input.fixpoint_cached ? 1 : 0),
        Value::Int(static_cast<int64_t>(input.fixpoint_bytes)),
        Value::Int(0)});

  // sys_budget(scope, field, value).
  if (input.governor != nullptr) {
    const ResourceBudget& g = *input.governor;
    emit("sys_budget", {Value::String("governor"), Value::String("limit_bytes"),
                        Value::Int(static_cast<int64_t>(g.limits().max_bytes))});
    emit("sys_budget",
         {Value::String("governor"), Value::String("reserved_bytes"),
          Value::Int(static_cast<int64_t>(g.bytes_reserved()))});
    emit("sys_budget", {Value::String("governor"), Value::String("peak_bytes"),
                        Value::Int(static_cast<int64_t>(g.bytes_peak()))});
  }
  // sys_shards(shard, state, facts, replayed, dropped, recoveries, error).
  if (input.shards != nullptr) {
    for (const ShardInfoRow& s : *input.shards) {
      emit("sys_shards",
           {Value::Int(s.shard_id), Value::String(s.state),
            Value::Int(s.facts), Value::Int(s.records_replayed),
            Value::Int(s.records_dropped), Value::Int(s.recoveries),
            Value::String(s.last_error)});
    }
  }

  const ResourceBudget::Limits& lim = input.per_query_limits;
  emit("sys_budget", {Value::String("per_query"), Value::String("max_bytes"),
                      Value::Int(static_cast<int64_t>(lim.max_bytes))});
  emit("sys_budget", {Value::String("per_query"), Value::String("max_tuples"),
                      Value::Int(static_cast<int64_t>(lim.max_tuples))});
  emit("sys_budget",
       {Value::String("per_query"), Value::String("max_solver_steps"),
        Value::Int(static_cast<int64_t>(lim.max_solver_steps))});

  return facts;
}

}  // namespace vqldb
