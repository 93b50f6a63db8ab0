// CLX-1: data complexity of query evaluation. For the arithmetic-order
// constraint fragment the paper reports PTIME data complexity ([37], end of
// Section 6.3.2): with the program fixed, evaluation time grows polynomially
// in the database size. This bench fixes the Section 6.2 derived-relation
// program and grows the archive, and also times a recursive containment
// closure.

#include <benchmark/benchmark.h>

#include "src/common/logging.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/model/term_dict.h"
#include "src/obs/metrics.h"
#include "src/video/annotator.h"
#include "src/video/synthetic.h"

namespace vqldb {
namespace {

// Fixed program: containment + co-occurrence + appears (quadratic-ish IDB).
const char* kProgram = R"(
  contains(G1, G2) <- Interval(G1), Interval(G2), G2.duration => G1.duration.
  appears(O, G) <- Interval(G), Object(O), O in G.entities.
  cooccur(O1, O2, G) <- Interval(G), Object(O1), Object(O2),
                        O1 in G.entities, O2 in G.entities, O1 != O2.
)";

std::unique_ptr<VideoDatabase> Archive(size_t entities) {
  SyntheticArchiveConfig config;
  config.seed = 42;
  config.num_shots = entities * 6;
  config.num_entities = entities;
  config.presence_probability = 0.25;
  VideoTimeline timeline = GenerateArchive(config);
  auto db = std::make_unique<VideoDatabase>();
  Annotator annotator(db.get());
  VQLDB_CHECK_OK(annotator.AnnotateTimeline(timeline));
  // Also annotate each ground-truth shot as a scene over the entities that
  // appear in it, so `contains` has real work.
  size_t n = 0;
  for (const Shot& shot : timeline.shots()) {
    if (++n % 4 != 0) continue;  // every 4th shot is a tagged scene
    std::vector<std::string> present;
    for (const std::string& name :
         timeline.EntitiesAt((shot.begin_time + shot.end_time) / 2)) {
      present.push_back(name);
    }
    VQLDB_CHECK_OK(annotator
                       .AnnotateScene("scene" + std::to_string(n),
                                      GeneralizedInterval::Single(
                                          shot.begin_time, shot.end_time),
                                      present)
                       .status());
  }
  return db;
}

void PrintSeries() {
  std::printf("== CLX-1: fixpoint evaluation, fixed program, growing DB ==\n");
  std::printf("%-10s %-12s %-14s %-14s %-16s %-10s\n", "entities",
              "intervals", "derived", "time (ms)", "facts/ms", "b/tuple");
  struct Point {
    size_t entities, intervals, derived;
    double ms, bytes_per_tuple;
    size_t merge_probes, hash_probes;
  };
  std::vector<Point> points;
  for (size_t entities : {4, 8, 16, 32}) {
    auto db = Archive(entities);
    QuerySession session(db.get());
    VQLDB_CHECK_OK(session.Load(kProgram));
    auto begin = std::chrono::steady_clock::now();
    auto interp = session.Materialize();
    auto end = std::chrono::steady_clock::now();
    VQLDB_CHECK_OK(interp.status());
    double ms = std::chrono::duration<double, std::milli>(end - begin).count();
    size_t derived = (*interp)->size();
    Interpretation::StorageStats st = (*interp)->ComputeStorageStats();
    Point p;
    p.entities = entities;
    p.intervals = db->BaseIntervals().size();
    p.derived = derived;
    p.ms = ms;
    p.bytes_per_tuple =
        st.rows > 0 ? static_cast<double>(st.columnar_bytes) / st.rows : 0;
    p.merge_probes = session.last_stats().merge_join_probes;
    p.hash_probes = session.last_stats().hash_join_probes;
    points.push_back(p);
    std::printf("%-10zu %-12zu %-14zu %-14.2f %-16.0f %-10.1f\n", entities,
                p.intervals, derived, ms, ms > 0 ? derived / ms : 0,
                p.bytes_per_tuple);
  }
  std::printf("(polynomial growth expected: the program is fixed, PTIME "
              "data complexity)\n\n");
  FILE* f = std::fopen("BENCH_fixpoint_scaling.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"fixpoint_scaling\",\n  \"series\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "    {\"entities\": %zu, \"intervals\": %zu, "
                   "\"derived_facts\": %zu, \"time_ms\": %.3f, "
                   "\"bytes_per_tuple\": %.1f, \"merge_join_probes\": %zu, "
                   "\"hash_join_probes\": %zu}%s\n",
                   p.entities, p.intervals, p.derived, p.ms, p.bytes_per_tuple,
                   p.merge_probes, p.hash_probes,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_fixpoint_scaling.json\n\n");
  }
}

// -------------------------------------------------------------- columnar
// Dictionary-encoded sorted-segment merge joins on a join-heavy,
// string-keyed relational workload. The fixpoint must take only the merge
// path and answer exactly as forced QSQR does (QSQR probes only the hash
// index), and the columnar representation must be at least 3x smaller per
// tuple than the boxed row-store estimate — all enforced with hard
// VQLDB_CHECK gates so a regression fails the bench loudly.

std::unique_ptr<VideoDatabase> RelationalGraph(size_t nodes, size_t fanout) {
  auto db = std::make_unique<VideoDatabase>();
  // A deterministic sparse digraph keyed by long, realistic archive paths:
  // heap-allocated strings are where boxed Value hashing is most expensive
  // and 32-bit symbol comparison pays off most.
  auto name = [](size_t i) {
    char buf[96];
    snprintf(buf, sizeof(buf),
             "archive/collection_%02zu/segment_%04zu/entity_%06zu/"
             "presence_annotation",
             i % 13, i % 97, i);
    return std::string(buf);
  };
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (size_t i = 0; i < nodes; ++i) {
    for (size_t k = 0; k < fanout; ++k) {
      Fact edge;
      edge.relation = "edge";
      edge.args = {Value::String(name(i)),
                   Value::String(name(next() % nodes))};
      VQLDB_CHECK_OK(db->AssertFact(std::move(edge)));
    }
  }
  return db;
}

// Probe-dominated, highly selective joins: triangles and closed wedges in a
// sparse graph fire millions of index probes that mostly come back empty,
// while deriving comparatively few tuples — the join path, not the insert
// path, is what gets measured. Every join key is a contiguous bound prefix,
// so the fixpoint runs entirely off the sorted segments.
const char* kJoinProgram = R"(
  triangle(X, Y, Z) <- edge(X, Y), edge(Y, Z), edge(Z, X).
  wedge(X, Z) <- edge(X, Y), edge(Y, Z), edge(X, Z).
)";

struct ColumnarSample {
  double ms = 0;
  size_t derived = 0;
  size_t merge_probes = 0;
  size_t hash_probes = 0;
  Interpretation::StorageStats storage;
};

// Both goals' answers, rendered, under `strategy`.
std::string RenderJoinAnswers(QuerySession* session, EvalStrategy strategy) {
  session->mutable_options()->strategy = strategy;
  auto r1 = session->Query("?- triangle(X, Y, Z).");
  VQLDB_CHECK_OK(r1.status());
  auto r2 = session->Query("?- wedge(X, W).");
  VQLDB_CHECK_OK(r2.status());
  return r1->ToString() + "\n" + r2->ToString();
}

ColumnarSample RunJoinWorkload(VideoDatabase* db, std::string* rendered) {
  EvalOptions options;
  options.num_threads = 1;  // isolate the join path from scheduling noise
  // The session's cache stays on: it keeps the materialized fixpoint that
  // RenderJoinAnswers reads.
  QuerySession session(db, options);
  VQLDB_CHECK_OK(session.Load(kJoinProgram));
  auto begin = std::chrono::steady_clock::now();
  auto interp = session.Materialize();
  auto end = std::chrono::steady_clock::now();
  VQLDB_CHECK_OK(interp.status());
  ColumnarSample s;
  s.ms = std::chrono::duration<double, std::milli>(end - begin).count();
  s.derived = (*interp)->size();
  s.merge_probes = session.last_stats().merge_join_probes;
  s.hash_probes = session.last_stats().hash_join_probes;
  s.storage = (*interp)->ComputeStorageStats();
  if (rendered != nullptr) {
    // Answered from the materialized fixpoint.
    *rendered = RenderJoinAnswers(&session, EvalStrategy::kFixpoint);
  }
  return s;
}

// The same answers from forced QSQR, timed.
std::string RunQsqrAnswers(VideoDatabase* db, double* ms) {
  EvalOptions options;
  options.num_threads = 1;
  QuerySession session(db, options);
  session.set_cache_enabled(false);
  VQLDB_CHECK_OK(session.Load(kJoinProgram));
  auto begin = std::chrono::steady_clock::now();
  std::string rendered = RenderJoinAnswers(&session, EvalStrategy::kQsqr);
  *ms = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - begin)
            .count();
  VQLDB_CHECK(session.last_exec_info().strategy == "qsqr")
      << "forced QSQR fell back: " << session.last_exec_info().plan_reason;
  return rendered;
}

void ColumnarSeries() {
  const size_t kNodes = 3000;
  const size_t kFanout = 20;
  const int kRuns = 7;
  auto db = RelationalGraph(kNodes, kFanout);

  std::string merge_rendered;
  ColumnarSample best;
  best.ms = -1;
  for (int i = 0; i < kRuns; ++i) {
    ColumnarSample s =
        RunJoinWorkload(db.get(), i == 0 ? &merge_rendered : nullptr);
    if (best.ms < 0 || s.ms < best.ms) best = s;
  }
  double qsqr_ms = 0;
  bool identical = RunQsqrAnswers(db.get(), &qsqr_ms) == merge_rendered;
  const Interpretation::StorageStats& st = best.storage;
  double bytes_per_tuple =
      st.rows > 0 ? static_cast<double>(st.columnar_bytes) / st.rows : 0;
  double reduction =
      st.columnar_bytes > 0
          ? static_cast<double>(st.row_store_bytes) / st.columnar_bytes
          : 0;
  const TermDict& dict = TermDict::Global();

  std::printf("== columnar merge joins (%zu nodes, fanout %zu, best of %d) "
              "==\n",
              kNodes, kFanout, kRuns);
  std::printf("fixpoint: %.2f ms (%zu merge probes, %zu hash probes)\n",
              best.ms, best.merge_probes, best.hash_probes);
  std::printf("answers identical to forced QSQR (%.2f ms, hash probes "
              "only): %s\n",
              qsqr_ms, identical ? "yes" : "NO — BUG");
  std::printf("storage: %zu tuples, %.1f b/tuple columnar, row-store "
              "estimate %zu bytes (%.1fx reduction), dictionary %zu terms\n",
              st.rows, bytes_per_tuple, st.row_store_bytes, reduction,
              dict.size());
  std::fflush(stdout);

  VQLDB_CHECK(identical)
      << "fixpoint and QSQR answers differ — correctness bug";
  VQLDB_CHECK(best.merge_probes > 0 && best.hash_probes == 0)
      << "the fixpoint did not take the merge path";
  VQLDB_CHECK(reduction >= 3.0)
      << "columnar storage only " << reduction
      << "x smaller than the row-store estimate (need >= 3x)";

  FILE* f = std::fopen("BENCH_columnar.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"columnar\",\n"
        "  \"workload\": \"string_keyed_join_graph\",\n"
        "  \"nodes\": %zu,\n  \"fanout\": %zu,\n  \"runs\": %d,\n"
        "  \"fixpoint\": {\"time_ms\": %.3f, \"merge_probes\": %zu, "
        "\"hash_probes\": %zu},\n"
        "  \"qsqr_ms\": %.3f,\n  \"results_identical\": %s,\n"
        "  \"storage\": {\"tuples\": %zu, \"sealed\": %zu, "
        "\"segments\": %zu, \"columnar_bytes\": %zu, "
        "\"bytes_per_tuple\": %.1f, \"row_store_bytes\": %zu, "
        "\"reduction\": %.2f},\n"
        "  \"dictionary\": {\"terms\": %zu, \"bytes\": %zu},\n"
        "  \"metrics\": %s}\n",
        kNodes, kFanout, kRuns, best.ms, best.merge_probes, best.hash_probes,
        qsqr_ms, identical ? "true" : "false", st.rows, st.sealed_rows,
        st.segments, st.columnar_bytes, bytes_per_tuple, st.row_store_bytes,
        reduction, dict.size(), dict.ApproxBytes(),
        obs::MetricsRegistry::Global().RenderJson().c_str());
    std::fclose(f);
    std::printf("wrote BENCH_columnar.json\n\n");
  }
}

void BM_Fixpoint(benchmark::State& state) {
  auto db = Archive(static_cast<size_t>(state.range(0)));
  auto program = Parser::ParseProgram(kProgram);
  std::vector<Rule> rules;
  for (const Rule* r : program->Rules()) rules.push_back(*r);
  for (auto _ : state) {
    auto eval = Evaluator::Make(db.get(), rules);
    auto fp = eval->Fixpoint();
    benchmark::DoNotOptimize(fp);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Fixpoint)->RangeMultiplier(2)->Range(4, 32)->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_RecursiveFixpoint(benchmark::State& state) {
  auto db = Archive(12);
  // Add a recursive chain over containment.
  const char* recursive = R"(
    contains(G1, G2) <- Interval(G1), Interval(G2), G2.duration => G1.duration.
    nested(G1, G2) <- contains(G1, G2).
    nested(G1, G3) <- nested(G1, G2), contains(G2, G3).
  )";
  auto program = Parser::ParseProgram(recursive);
  std::vector<Rule> rules;
  for (const Rule* r : program->Rules()) rules.push_back(*r);
  for (auto _ : state) {
    auto eval = Evaluator::Make(db.get(), rules);
    auto fp = eval->Fixpoint();
    benchmark::DoNotOptimize(fp);
  }
}
BENCHMARK(BM_RecursiveFixpoint)->Unit(benchmark::kMillisecond);

// Every entity's cooccur(<entity>, O2, G), answered under forced full
// materialization from a fixpoint materialized outside the timed region:
// each iteration takes a new session, whose cache holds the fixpoint and
// no answer, so each goal reads the cached fixpoint.
void BM_CachedQueryAfterMaterialize(benchmark::State& state) {
  auto db = Archive(16);
  std::vector<std::string> goals;
  for (ObjectId entity : db->Entities()) {
    goals.push_back("?- cooccur(" + *db->SymbolOf(entity) + ", O2, G).");
  }
  std::unique_ptr<QuerySession> session;
  for (auto _ : state) {
    state.PauseTiming();
    session.reset();
    session = std::make_unique<QuerySession>(db.get());
    session->mutable_options()->strategy = EvalStrategy::kFixpoint;
    VQLDB_CHECK_OK(session->Load(kProgram));
    VQLDB_CHECK_OK(session->Materialize().status());
    state.ResumeTiming();
    for (const std::string& goal : goals) {
      auto r = session->Query(goal);
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["goals"] = static_cast<double>(goals.size());
}
BENCHMARK(BM_CachedQueryAfterMaterialize);

}  // namespace
}  // namespace vqldb

int main(int argc, char** argv) {
  vqldb::PrintSeries();
  vqldb::ColumnarSeries();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
