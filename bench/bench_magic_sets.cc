// Goal-directed evaluation vs. full materialization on a long edge chain
// with transitive closure plus unrelated noise cones. Prints a per-goal
// series (naive vs. magic), verifies that the answers are identical both
// ways and that the high-selectivity goal is at least 5x faster under the
// rewrite, exercises the memoizing query cache (a hit must be served
// without running a fixpoint), and writes BENCH_magic_sets.json next to
// the binary for trajectory tracking.

#include <benchmark/benchmark.h>

#include "src/common/logging.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/query.h"
#include "src/lang/parser.h"

namespace vqldb {
namespace {

// A chain n0 -> n1 -> ... -> n(N-1): transitive closure is O(N^2) facts,
// but from a node near the end of the chain only a handful are reachable.
// Two extra cones (rev/pair) are never queried; the naive fixpoint
// materializes them anyway, the rewrite prunes them.
constexpr size_t kChain = 400;

std::unique_ptr<VideoDatabase> ChainDb() {
  auto db = std::make_unique<VideoDatabase>();
  std::vector<ObjectId> nodes;
  for (size_t i = 0; i < kChain; ++i) {
    nodes.push_back(*db->CreateEntity("n" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < kChain; ++i) {
    VQLDB_CHECK_OK(
        db->AssertFact("edge", {Value::Oid(nodes[i]), Value::Oid(nodes[i + 1])}));
  }
  return db;
}

const char* kRules = R"(
  path(X, Y) <- edge(X, Y).
  path(X, Z) <- path(X, Y), edge(Y, Z).
  rev(X, Y) <- edge(Y, X).
  rev(X, Z) <- rev(X, Y), edge(Z, Y).
  pair(X, Y) <- edge(X, Y), edge(Y, Z), X != Z.
)";

struct Sample {
  std::string goal;
  double naive_ms = 0;
  double magic_ms = 0;
  size_t naive_derived = 0;
  size_t magic_derived = 0;
  bool identical = false;
  double speedup() const { return magic_ms > 0 ? naive_ms / magic_ms : 0; }
};

// Times one goal both ways on fresh sessions (cache off, so every run pays
// its own fixpoint) and checks answer equality.
Sample RunGoal(const std::string& goal) {
  Sample s;
  s.goal = goal;
  auto db = ChainDb();

  QuerySession magic(db.get());
  magic.set_cache_enabled(false);
  // The bench measures the magic rewrite specifically; pin it so kAuto
  // cannot route non-recursive goals to QSQR.
  magic.mutable_options()->strategy = EvalStrategy::kMagic;
  VQLDB_CHECK_OK(magic.Load(kRules));
  auto begin = std::chrono::steady_clock::now();
  auto magic_result = magic.Query(goal);
  auto end = std::chrono::steady_clock::now();
  VQLDB_CHECK_OK(magic_result.status());
  VQLDB_CHECK(magic.last_exec_info().strategy == "magic")
      << goal << ": rewrite unexpectedly declined ("
      << magic.last_exec_info().plan_reason << ")";
  s.magic_ms = std::chrono::duration<double, std::milli>(end - begin).count();
  s.magic_derived = magic.last_stats().derived_facts;

  QuerySession naive(db.get());
  naive.set_cache_enabled(false);
  naive.mutable_options()->strategy = EvalStrategy::kFixpoint;
  VQLDB_CHECK_OK(naive.Load(kRules));
  begin = std::chrono::steady_clock::now();
  auto naive_result = naive.Query(goal);
  end = std::chrono::steady_clock::now();
  VQLDB_CHECK_OK(naive_result.status());
  s.naive_ms = std::chrono::duration<double, std::milli>(end - begin).count();
  s.naive_derived = naive.last_stats().derived_facts;

  s.identical = magic_result->rows == naive_result->rows &&
                magic_result->columns == naive_result->columns;
  VQLDB_CHECK(s.identical) << goal << ": magic and naive answers differ";
  return s;
}

// The cache gate: an identical repeat query must be a hit and must not run
// any fixpoint (iterations stay frozen at the first run's value).
double MeasureCachedRepeat(bool* hit_without_fixpoint) {
  auto db = ChainDb();
  QuerySession session(db.get());
  VQLDB_CHECK_OK(session.Load(kRules));
  const std::string goal = "?- path(n1, Y).";
  VQLDB_CHECK_OK(session.Query(goal).status());
  size_t iterations = session.last_stats().iterations;
  auto begin = std::chrono::steady_clock::now();
  auto repeat = session.Query(goal);
  auto end = std::chrono::steady_clock::now();
  VQLDB_CHECK_OK(repeat.status());
  *hit_without_fixpoint = session.last_exec_info().cache_hit &&
                          session.last_stats().iterations == iterations;
  VQLDB_CHECK(*hit_without_fixpoint)
      << "repeat query was not served from the cache";
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

void PrintSeries() {
  std::printf("== magic sets: %zu-node chain, transitive closure + noise "
              "cones ==\n",
              kChain);
  std::printf("%-22s %-12s %-12s %-12s %-12s %-8s\n", "goal", "naive (ms)",
              "magic (ms)", "naive faq", "magic faq", "speedup");

  // High selectivity first (the >=5x gate applies to it), then medium and
  // the all-free worst case, where magic degenerates to the pruned cone.
  std::vector<std::string> goals = {
      "?- path(n390, Y).",
      "?- path(X, n5).",
      "?- path(n200, n210).",
      "?- path(X, Y).",
  };
  std::vector<Sample> series;
  for (const std::string& goal : goals) {
    Sample s = RunGoal(goal);
    series.push_back(s);
    std::printf("%-22s %-12.2f %-12.2f %-12zu %-12zu %.2fx\n", s.goal.c_str(),
                s.naive_ms, s.magic_ms, s.naive_derived, s.magic_derived,
                s.speedup());
  }

  const Sample& selective = series[0];
  std::printf("high-selectivity speedup: %.2fx (gate: >= 5x)\n",
              selective.speedup());
  VQLDB_CHECK(selective.speedup() >= 5.0)
      << "goal-directed evaluation speedup " << selective.speedup()
      << "x is below the 5x gate on " << selective.goal;

  bool cache_ok = false;
  double cached_ms = MeasureCachedRepeat(&cache_ok);
  std::printf("cached repeat of %s: %.3f ms, served without fixpoint: %s\n",
              "?- path(n1, Y).", cached_ms, cache_ok ? "yes" : "NO — BUG");

  FILE* f = std::fopen("BENCH_magic_sets.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"bench\": \"magic_sets\",\n"
                 "  \"workload\": \"chain_transitive_closure\",\n"
                 "  \"chain_nodes\": %zu,\n"
                 "  \"high_selectivity_speedup\": %.3f,\n"
                 "  \"cached_repeat_ms\": %.3f,\n"
                 "  \"cache_hit_without_fixpoint\": %s,\n  \"series\": [\n",
                 kChain, selective.speedup(), cached_ms,
                 cache_ok ? "true" : "false");
    for (size_t i = 0; i < series.size(); ++i) {
      const Sample& s = series[i];
      std::fprintf(f,
                   "    {\"goal\": \"%s\", \"naive_ms\": %.3f, "
                   "\"magic_ms\": %.3f, \"naive_derived\": %zu, "
                   "\"magic_derived\": %zu, \"speedup\": %.3f, "
                   "\"identical\": %s}%s\n",
                   s.goal.c_str(), s.naive_ms, s.magic_ms, s.naive_derived,
                   s.magic_derived, s.speedup(),
                   s.identical ? "true" : "false",
                   i + 1 < series.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_magic_sets.json\n\n");
  }
}

void BM_MagicVsNaive(benchmark::State& state) {
  bool use_magic = state.range(0) != 0;
  auto db = ChainDb();
  QuerySession session(db.get());
  session.set_cache_enabled(false);
  session.mutable_options()->strategy =
      use_magic ? EvalStrategy::kMagic : EvalStrategy::kFixpoint;
  VQLDB_CHECK_OK(session.Load(kRules));
  for (auto _ : state) {
    auto result = session.Query("?- path(n390, Y).");
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(use_magic ? "magic" : "naive");
}
BENCHMARK(BM_MagicVsNaive)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqldb

int main(int argc, char** argv) {
  vqldb::PrintSeries();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
