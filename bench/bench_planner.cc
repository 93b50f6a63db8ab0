// Cost-based strategy choice on a mixed workload: selective bound-goal
// point lookups (where the goal-directed strategies prune almost all of the
// fixpoint's work) and broad analytical goals (where the full fixpoint is
// the right call). For every goal, each strategy is timed (best of kReps,
// interleaved) and every strategy's answer is checked byte-identical. The
// gates judge auto's choices, each goal charged the forced time of the
// strategy auto dispatched to, so that both sides of a comparison are the
// same timings:
//   * the choices' total over the workload is within 5% of the sum of
//     per-query bests (the planner picks the best strategy or one within
//     noise of it);
//   * on bound-goal point lookups, the choices beat the forced full
//     fixpoint by at least 5x (goal direction actually engaged).
// Auto's own timed total, and its planning overhead over its choices, are
// printed beside them. Writes BENCH_planner.json next to the binary for
// trajectory tracking.

#include <benchmark/benchmark.h>

#include <chrono>
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

const char* kRules = R"(
  path(X, Y) <- edge(X, Y).
  path(X, Z) <- path(X, Y), edge(Y, Z).
)";

struct Goal {
  std::string text;
  bool bound = false;  // point lookup (the >=5x gate applies)
};

std::vector<Goal> Workload() {
  std::vector<Goal> goals;
  // Selective point lookups: one bound endpoint per chain, first 8 chains.
  for (size_t c = 0; c < 8; ++c) {
    goals.push_back({"?- path(n" + std::to_string(c) + "_2, Y).", true});
  }
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

// One timed rep on an existing session, caches defeated via Invalidate.
void TimeOnce(QuerySession* session, const std::string& goal,
              StrategyRun* run) {
  session->Invalidate();
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

struct Sample {
  Goal goal;
  StrategyRun auto_run, qsqr, magic, fixpoint;
  double best_ms() const {
    return std::min({qsqr.ms, magic.ms, fixpoint.ms});
  }
  /// The forced run of the strategy auto dispatched to.
  const StrategyRun& chosen() const {
    if (auto_run.dispatched == "qsqr") return qsqr;
    if (auto_run.dispatched == "magic") return magic;
    VQLDB_CHECK(auto_run.dispatched == "fixpoint")
        << goal.text << ": auto dispatched to '" << auto_run.dispatched
        << "'";
    return fixpoint;
  }
};

void PrintSeries() {
  std::printf("== planner: %zu chains x %zu nodes, mixed point lookups + "
              "closure scans ==\n",
              kChains, kChainLength);
  std::printf("%-22s %-10s %-10s %-10s %-10s %-10s %s\n", "goal", "auto (ms)",
              "qsqr (ms)", "magic (ms)", "fix (ms)", "best (ms)", "auto chose");

  auto db = ChainForest();
  std::vector<Sample> series;
  double sum_auto = 0, sum_chosen = 0, sum_best = 0;
  double bound_chosen = 0, bound_fixpoint = 0;
  for (const Goal& goal : Workload()) {
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
      lane.session = std::make_unique<QuerySession>(db.get());
      lane.session->set_cache_enabled(false);
      lane.session->mutable_options()->strategy = lane.strategy;
      VQLDB_CHECK_OK(lane.session->Load(kRules));
    }
    for (int rep = 0; rep < kReps; ++rep) {
      for (Lane& lane : lanes) {
        TimeOnce(lane.session.get(), goal.text, lane.run);
      }
    }
    for (const Lane& lane : lanes) {
      VQLDB_CHECK(lane.run->answer == s.fixpoint.answer)
          << goal.text << ": " << EvalStrategyName(lane.strategy)
          << " differs";
    }

    sum_auto += s.auto_run.ms;
    sum_chosen += s.chosen().ms;
    sum_best += s.best_ms();
    if (goal.bound) {
      bound_chosen += s.chosen().ms;
      bound_fixpoint += s.fixpoint.ms;
    }
    std::printf("%-22s %-10.3f %-10.3f %-10.3f %-10.3f %-10.3f %s\n",
                goal.text.c_str(), s.auto_run.ms, s.qsqr.ms, s.magic.ms,
                s.fixpoint.ms, s.best_ms(), s.auto_run.dispatched.c_str());
    series.push_back(std::move(s));
  }

  double within = sum_chosen / sum_best;
  double bound_speedup = bound_chosen > 0 ? bound_fixpoint / bound_chosen : 0;
  std::printf("auto's choices total %.3f ms vs per-query-best total %.3f ms "
              "(%.3fx; gate: <= 1.05x)\n",
              sum_chosen, sum_best, within);
  std::printf("auto's own total %.3f ms (%.3fx the best; planning overhead "
              "%.3f ms over its choices)\n",
              sum_auto, sum_auto / sum_best, sum_auto - sum_chosen);
  std::printf("bound-goal speedup of auto's choices over forced fixpoint: "
              "%.2fx (gate: >= 5x)\n",
              bound_speedup);
  std::fflush(stdout);  // a failing gate still shows its series
  VQLDB_CHECK(within <= 1.05)
      << "auto's choices total " << within
      << "x the per-query best (gate 1.05x)";
  VQLDB_CHECK(bound_speedup >= 5.0)
      << "bound-goal speedup " << bound_speedup << "x is below the 5x gate";

  FILE* f = std::fopen("BENCH_planner.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"bench\": \"planner\",\n"
                 "  \"workload\": \"chain_forest_mixed\",\n"
                 "  \"chains\": %zu,\n  \"chain_nodes\": %zu,\n"
                 "  \"auto_vs_best\": %.4f,\n"
                 "  \"auto_own_vs_best\": %.4f,\n"
                 "  \"planning_overhead_ms\": %.4f,\n"
                 "  \"bound_goal_speedup_vs_fixpoint\": %.3f,\n"
                 "  \"series\": [\n",
                 kChains, kChainLength, within, sum_auto / sum_best,
                 sum_auto - sum_chosen, bound_speedup);
    for (size_t i = 0; i < series.size(); ++i) {
      const Sample& s = series[i];
      std::fprintf(f,
                   "    {\"goal\": \"%s\", \"bound\": %s, "
                   "\"auto_ms\": %.4f, \"qsqr_ms\": %.4f, "
                   "\"magic_ms\": %.4f, \"fixpoint_ms\": %.4f, "
                   "\"auto_chose\": \"%s\", \"rows\": %zu}%s\n",
                   s.goal.text.c_str(), s.goal.bound ? "true" : "false",
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
    session.Invalidate();
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
