// Strategy choice on a mixed workload covering both sides of kAuto's rule
// (goal_analysis.h: a recursive cone runs magic sets, a non-recursive one
// QSQR): selective recursive point lookups, a recursive goal whose
// constant does not propagate into the left-recursive rule, a
// non-recursive two-hop rule asked bound and free, a probe-heavy triangle
// scan over a graph of its own, and whole-closure scans. For every goal,
// each strategy is timed (best of kReps, interleaved) and every strategy's
// answer is checked byte-identical. The gates judge auto's choices, each
// goal charged the forced time of the strategy auto dispatched to, so that
// both sides of a comparison are the same timings:
//   * the choices' total over the workload is within 5% of the sum of
//     per-query bests (the rule picks the best strategy or one within
//     noise of it);
//   * on point lookups, the choices beat the forced full fixpoint by at
//     least 5x (goal direction actually engaged).
// A goal whose choice is not its fastest strategy is re-timed before the
// gates: the choice and every strategy that beat it alternate rep by rep,
// each rep on a fresh session, and those timings are charged. They then
// run back to back, so neither a lane whose long-lived session ran slow for
// all its reps nor a host slowdown that one lane's reps happened to miss
// decides the gate (the closure scans, where magic sets and the fixpoint
// tie, are where both showed), and a fresh session's first-query warm-up
// is paid on both sides of the comparison. Auto's own timed total, and its
// dispatch overhead over its choices, are printed beside them. Writes
// BENCH_planner.json next to the binary for trajectory tracking.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"

namespace vqldb {
namespace {

// 20 disjoint chains of 20 nodes each. The transitive closure of the whole
// database is ~20 * (20 choose 2) facts; from one bound endpoint only its
// own chain suffix is reachable, so goal direction has real room to prune.
constexpr size_t kChains = 20;
constexpr size_t kChainLength = 20;

std::unique_ptr<VideoDatabase> ChainForest() {
  auto db = std::make_unique<VideoDatabase>();
  for (size_t c = 0; c < kChains; ++c) {
    std::vector<ObjectId> nodes;
    for (size_t i = 0; i < kChainLength; ++i) {
      nodes.push_back(*db->CreateEntity("n" + std::to_string(c) + "_" +
                                        std::to_string(i)));
    }
    for (size_t i = 0; i + 1 < kChainLength; ++i) {
      VQLDB_CHECK_OK(db->AssertFact(
          "edge", {Value::Oid(nodes[i]), Value::Oid(nodes[i + 1])}));
    }
  }
  return db;
}

// A deterministic pseudo-random digraph `link` of kGraphNodes nodes with
// out-degree kGraphFanout, in a database of its own: its triangle scan is a
// probe-heavy non-recursive join, the side of the rule where QSQR's hash
// probes lose to the bottom-up strategies' joins.
constexpr size_t kGraphNodes = 60;
constexpr size_t kGraphFanout = 8;

std::unique_ptr<VideoDatabase> LinkGraph() {
  auto db = std::make_unique<VideoDatabase>();
  std::vector<ObjectId> nodes;
  for (size_t i = 0; i < kGraphNodes; ++i) {
    nodes.push_back(*db->CreateEntity("g" + std::to_string(i)));
  }
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < kGraphNodes; ++i) {
    for (size_t k = 0; k < kGraphFanout; ++k) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      VQLDB_CHECK_OK(db->AssertFact(
          "link",
          {Value::Oid(nodes[i]), Value::Oid(nodes[rng % kGraphNodes])}));
    }
  }
  return db;
}

const char* kRules = R"(
  path(X, Y) <- edge(X, Y).
  path(X, Z) <- path(X, Y), edge(Y, Z).
  hop2(X, Z) <- edge(X, Y), edge(Y, Z).
  triangle(X, Y, Z) <- link(X, Y), link(Y, Z), link(Z, X).
)";

struct Goal {
  std::string text;
  bool point_lookup = false;  // the >=5x gate applies
  bool on_graph = false;      // asked of LinkGraph, else of ChainForest
};

std::vector<Goal> Workload() {
  std::vector<Goal> goals;
  // Selective point lookups: one bound endpoint per chain, first 8 chains.
  for (size_t c = 0; c < 8; ++c) {
    goals.push_back({"?- path(n" + std::to_string(c) + "_2, Y).", true});
  }
  // Non-recursive: a two-hop point lookup and the whole two-hop scan.
  goals.push_back({"?- hop2(n9_2, Z).", true});
  goals.push_back({"?- hop2(X, Z).", false});
  goals.push_back({"?- triangle(X, Y, Z).", false, true});
  // Recursive, bound in the argument the left-recursive rule does not pass
  // down: every path(X, Y) call is free.
  goals.push_back({"?- path(X, n0_17).", false});
  // Broad analytical goals: whole-closure scans.
  goals.push_back({"?- path(X, Y).", false});
  goals.push_back({"?- path(X, X).", false});
  return goals;
}

struct StrategyRun {
  double ms = 1e100;       // best of kReps
  size_t rows = 0;
  std::string dispatched;  // exec-info strategy of the last run
  std::vector<std::vector<Value>> answer;
};

// Repetitions per (goal, strategy). Reps are interleaved rep-major across
// the strategies (rep 0 of every strategy, then rep 1, ...) so slow drift
// within the process — turbo, allocator warm-up, collector growth — hits
// every strategy equally instead of biasing whichever ran first; best-of
// then cancels the per-rep stalls. The 1.05x gate needs that fairness.
constexpr int kReps = 9;

// One timed rep on an existing session. Every caller's session has its
// cache off, so every rep evaluates.
void TimeOnce(QuerySession* session, const std::string& goal,
              StrategyRun* run) {
  auto begin = std::chrono::steady_clock::now();
  auto result = session->Query(goal);
  auto end = std::chrono::steady_clock::now();
  VQLDB_CHECK_OK(result.status());
  double ms = std::chrono::duration<double, std::milli>(end - begin).count();
  if (ms < run->ms) run->ms = ms;
  run->rows = result->rows.size();
  run->dispatched = session->last_exec_info().strategy;
  run->answer = std::move(result->rows);
}

// One timed rep on a session of its own.
void TimeFresh(VideoDatabase* db, EvalStrategy strategy,
               const std::string& goal, StrategyRun* run) {
  QuerySession session(db);
  session.set_cache_enabled(false);
  session.mutable_options()->strategy = strategy;
  VQLDB_CHECK_OK(session.Load(kRules));
  TimeOnce(&session, goal, run);
}

struct Sample {
  Goal goal;
  StrategyRun auto_run, qsqr, magic, fixpoint;
  StrategyRun& forced(EvalStrategy strategy) {
    switch (strategy) {
      case EvalStrategy::kQsqr:
        return qsqr;
      case EvalStrategy::kMagic:
        return magic;
      default:
        return fixpoint;
    }
  }
  EvalStrategy best() const {
    if (qsqr.ms <= magic.ms && qsqr.ms <= fixpoint.ms) {
      return EvalStrategy::kQsqr;
    }
    return magic.ms <= fixpoint.ms ? EvalStrategy::kMagic
                                   : EvalStrategy::kFixpoint;
  }
  double best_ms() const {
    return std::min({qsqr.ms, magic.ms, fixpoint.ms});
  }
  /// The strategy auto dispatched to.
  EvalStrategy chosen_strategy() const {
    if (auto_run.dispatched == "qsqr") return EvalStrategy::kQsqr;
    if (auto_run.dispatched == "magic") return EvalStrategy::kMagic;
    VQLDB_CHECK(auto_run.dispatched == "fixpoint")
        << goal.text << ": auto dispatched to '" << auto_run.dispatched
        << "'";
    return EvalStrategy::kFixpoint;
  }
  /// The forced run of the strategy auto dispatched to.
  StrategyRun& chosen() { return forced(chosen_strategy()); }
};

void PrintSeries() {
  std::printf("== planner: %zu chains x %zu nodes and a %zu-node graph of "
              "out-degree %zu, recursive and non-recursive lookups + scans "
              "==\n",
              kChains, kChainLength, kGraphNodes, kGraphFanout);
  std::printf("%-22s %-10s %-10s %-10s %-10s %-10s %s\n", "goal", "auto (ms)",
              "qsqr (ms)", "magic (ms)", "fix (ms)", "best (ms)", "auto chose");

  auto forest = ChainForest();
  auto graph = LinkGraph();
  std::vector<Sample> series;
  double sum_auto = 0, sum_chosen = 0, sum_best = 0;
  double lookup_chosen = 0, lookup_fixpoint = 0;
  for (const Goal& goal : Workload()) {
    VideoDatabase* db = goal.on_graph ? graph.get() : forest.get();
    Sample s;
    s.goal = goal;
    struct Lane {
      EvalStrategy strategy;
      StrategyRun* run;
      std::unique_ptr<QuerySession> session;
    };
    Lane lanes[] = {{EvalStrategy::kFixpoint, &s.fixpoint, nullptr},
                    {EvalStrategy::kQsqr, &s.qsqr, nullptr},
                    {EvalStrategy::kMagic, &s.magic, nullptr},
                    {EvalStrategy::kAuto, &s.auto_run, nullptr}};
    for (Lane& lane : lanes) {
      lane.session = std::make_unique<QuerySession>(db);
      lane.session->set_cache_enabled(false);
      lane.session->mutable_options()->strategy = lane.strategy;
      VQLDB_CHECK_OK(lane.session->Load(kRules));
    }
    for (int rep = 0; rep < kReps; ++rep) {
      for (Lane& lane : lanes) {
        TimeOnce(lane.session.get(), goal.text, lane.run);
      }
    }
    const EvalStrategy chosen = s.chosen_strategy();
    if (chosen != s.best()) {
      // The choice and every strategy whose lane beat it: the charged time
      // and the best then come from the same fresh-session reps.
      std::vector<EvalStrategy> retimed = {chosen};
      for (EvalStrategy other : {EvalStrategy::kQsqr, EvalStrategy::kMagic,
                                 EvalStrategy::kFixpoint}) {
        if (other != chosen && s.forced(other).ms < s.forced(chosen).ms) {
          retimed.push_back(other);
        }
      }
      std::string names;
      for (EvalStrategy strategy : retimed) {
        s.forced(strategy) = StrategyRun{};
        names += (names.empty() ? "" : " vs ");
        names += EvalStrategyName(strategy);
      }
      for (int rep = 0; rep < kReps; ++rep) {
        for (EvalStrategy strategy : retimed) {
          TimeFresh(db, strategy, goal.text, &s.forced(strategy));
        }
      }
      std::printf("%-22s re-timed %s on fresh sessions\n", goal.text.c_str(),
                  names.c_str());
    }
    for (const Lane& lane : lanes) {
      VQLDB_CHECK(lane.run->answer == s.fixpoint.answer)
          << goal.text << ": " << EvalStrategyName(lane.strategy)
          << " differs";
    }

    sum_auto += s.auto_run.ms;
    sum_chosen += s.chosen().ms;
    sum_best += s.best_ms();
    if (goal.point_lookup) {
      lookup_chosen += s.chosen().ms;
      lookup_fixpoint += s.fixpoint.ms;
    }
    std::printf("%-22s %-10.3f %-10.3f %-10.3f %-10.3f %-10.3f %s\n",
                goal.text.c_str(), s.auto_run.ms, s.qsqr.ms, s.magic.ms,
                s.fixpoint.ms, s.best_ms(), s.auto_run.dispatched.c_str());
    series.push_back(std::move(s));
  }

  double within = sum_chosen / sum_best;
  double lookup_speedup =
      lookup_chosen > 0 ? lookup_fixpoint / lookup_chosen : 0;
  std::printf("auto's choices total %.3f ms vs per-query-best total %.3f ms "
              "(%.3fx; gate: <= 1.05x)\n",
              sum_chosen, sum_best, within);
  std::printf("auto's own total %.3f ms (%.3fx the best; dispatch overhead "
              "%.3f ms over its choices)\n",
              sum_auto, sum_auto / sum_best, sum_auto - sum_chosen);
  std::printf("point-lookup speedup of auto's choices over forced fixpoint: "
              "%.2fx (gate: >= 5x)\n",
              lookup_speedup);
  std::fflush(stdout);  // a failing gate still shows its series
  VQLDB_CHECK(within <= 1.05)
      << "auto's choices total " << within
      << "x the per-query best (gate 1.05x)";
  VQLDB_CHECK(lookup_speedup >= 5.0)
      << "point-lookup speedup " << lookup_speedup
      << "x is below the 5x gate";

  FILE* f = std::fopen("BENCH_planner.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"bench\": \"planner\",\n"
                 "  \"workload\": \"chain_forest_mixed\",\n"
                 "  \"chains\": %zu,\n  \"chain_nodes\": %zu,\n"
                 "  \"auto_vs_best\": %.4f,\n"
                 "  \"auto_own_vs_best\": %.4f,\n"
                 "  \"dispatch_overhead_ms\": %.4f,\n"
                 "  \"point_lookup_speedup_vs_fixpoint\": %.3f,\n"
                 "  \"series\": [\n",
                 kChains, kChainLength, within, sum_auto / sum_best,
                 sum_auto - sum_chosen, lookup_speedup);
    for (size_t i = 0; i < series.size(); ++i) {
      const Sample& s = series[i];
      std::fprintf(f,
                   "    {\"goal\": \"%s\", \"point_lookup\": %s, "
                   "\"auto_ms\": %.4f, \"qsqr_ms\": %.4f, "
                   "\"magic_ms\": %.4f, \"fixpoint_ms\": %.4f, "
                   "\"auto_chose\": \"%s\", \"rows\": %zu}%s\n",
                   s.goal.text.c_str(), s.goal.point_lookup ? "true" : "false",
                   s.auto_run.ms, s.qsqr.ms, s.magic.ms, s.fixpoint.ms,
                   s.auto_run.dispatched.c_str(), s.auto_run.rows,
                   i + 1 < series.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_planner.json\n\n");
  }
}

void BM_StrategyOnPointLookup(benchmark::State& state) {
  EvalStrategy strategy = static_cast<EvalStrategy>(state.range(0));
  auto db = ChainForest();
  QuerySession session(db.get());
  session.set_cache_enabled(false);
  session.mutable_options()->strategy = strategy;
  VQLDB_CHECK_OK(session.Load(kRules));
  for (auto _ : state) {
    auto result = session.Query("?- path(n3_2, Y).");
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(EvalStrategyName(strategy));
}
BENCHMARK(BM_StrategyOnPointLookup)
    ->Arg(static_cast<int>(EvalStrategy::kAuto))
    ->Arg(static_cast<int>(EvalStrategy::kQsqr))
    ->Arg(static_cast<int>(EvalStrategy::kMagic))
    ->Arg(static_cast<int>(EvalStrategy::kFixpoint))
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vqldb

int main(int argc, char** argv) {
  vqldb::PrintSeries();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
