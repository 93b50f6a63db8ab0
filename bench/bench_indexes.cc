// Ablation: the VideoDatabase secondary indexes — attribute-value hash
// index, temporal stabbing/overlap index (sorted fragments + prefix-max
// pruning), inverted entity->intervals index — against their linear-scan
// baselines, plus goal-directed vs full-materialization query evaluation.

#include <benchmark/benchmark.h>

#include "src/common/logging.h"

#include <chrono>
#include <cstdio>

#include "src/engine/query.h"
#include "src/video/annotator.h"
#include "src/video/synthetic.h"

namespace vqldb {
namespace {

std::unique_ptr<VideoDatabase> BigArchive(size_t entities, size_t shots) {
  SyntheticArchiveConfig config;
  config.seed = 42;
  config.num_shots = shots;
  config.num_entities = entities;
  config.presence_probability = 0.25;
  VideoTimeline timeline = GenerateArchive(config);
  auto db = std::make_unique<VideoDatabase>();
  Annotator annotator(db.get());
  VQLDB_CHECK_OK(annotator.AnnotateTimeline(timeline));
  size_t n = 0;
  for (const Shot& shot : timeline.shots()) {
    std::vector<std::string> present =
        timeline.EntitiesAt((shot.begin_time + shot.end_time) / 2);
    VQLDB_CHECK_OK(annotator
                       .AnnotateScene("scene" + std::to_string(++n),
                                      GeneralizedInterval::Single(
                                          shot.begin_time, shot.end_time),
                                      present)
                       .status());
  }
  return db;
}

void PrintSeries() {
  std::printf("== index ablations (see DESIGN.md section 2, S4) ==\n");
  std::printf("temporal stabbing query vs linear duration scan, growing "
              "interval count:\n");
  std::printf("%-10s %-14s %-14s\n", "intervals", "index (ns)", "scan (ns)");
  for (size_t shots : {100, 400, 1600}) {
    auto db = BigArchive(8, shots);
    double t = 500.0;
    // Indexed.
    auto begin = std::chrono::steady_clock::now();
    int reps = 2000;
    size_t hits = 0;
    for (int i = 0; i < reps; ++i) {
      hits = db->IntervalsContaining(t).size();
    }
    auto end = std::chrono::steady_clock::now();
    double index_ns =
        std::chrono::duration<double, std::nano>(end - begin).count() / reps;
    // Linear baseline.
    begin = std::chrono::steady_clock::now();
    size_t scan_hits = 0;
    for (int i = 0; i < reps; ++i) {
      scan_hits = 0;
      for (ObjectId id : db->AllIntervals()) {
        auto d = db->DurationOf(id);
        if (d.ok() && d->Contains(t)) ++scan_hits;
      }
    }
    end = std::chrono::steady_clock::now();
    double scan_ns =
        std::chrono::duration<double, std::nano>(end - begin).count() / reps;
    VQLDB_CHECK(hits == scan_hits);
    std::printf("%-10zu %-14.0f %-14.0f\n", db->AllIntervals().size(),
                index_ns, scan_ns);
  }
  std::printf("\n");
}

// Join access paths over the archive's derived relations: materialize a
// co-presence join, reporting its merge-join and hash probe counts and the
// columnar bytes/tuple next to the row-store estimate. The numbers land in
// BENCH_indexes.json (the hard gates live in bench_fixpoint_scaling's
// columnar series; this is the archive-shaped view).
constexpr const char* kArchiveJoinProgram = R"(
  appears(G, O) <- Interval(G), Object(O), O in G.entities.
  copresent(G, O1, O2) <- appears(G, O1), appears(G, O2), O1 != O2.
)";

struct JoinPathSample {
  double ms = 0;
  size_t derived = 0;
  size_t merge_probes = 0;
  size_t hash_probes = 0;
  Interpretation::StorageStats storage;
};

JoinPathSample RunArchiveJoin(VideoDatabase* db) {
  EvalOptions options;
  options.num_threads = 1;
  QuerySession session(db, options);
  session.set_cache_enabled(false);
  VQLDB_CHECK_OK(session.Load(kArchiveJoinProgram));
  auto begin = std::chrono::steady_clock::now();
  auto interp = session.Materialize();
  auto end = std::chrono::steady_clock::now();
  VQLDB_CHECK_OK(interp.status());
  JoinPathSample s;
  s.ms = std::chrono::duration<double, std::milli>(end - begin).count();
  s.derived = (*interp)->size();
  s.merge_probes = session.last_stats().merge_join_probes;
  s.hash_probes = session.last_stats().hash_join_probes;
  s.storage = (*interp)->ComputeStorageStats();
  return s;
}

void JoinAccessPathSeries() {
  std::printf("== join access paths over the synthetic archive ==\n");
  std::printf("%-8s %-10s %-12s %-12s %-10s\n", "shots", "ms", "merge",
              "hash", "b/tuple");
  FILE* f = std::fopen("BENCH_indexes.json", "w");
  VQLDB_CHECK(f != nullptr);
  std::fprintf(f, "{\n  \"join_access_paths\": [\n");
  bool first = true;
  for (size_t shots : {200, 800}) {
    auto db = BigArchive(12, shots);
    JoinPathSample best;
    for (int i = 0; i < 3; ++i) {
      JoinPathSample s = RunArchiveJoin(db.get());
      if (i == 0 || s.ms < best.ms) best = s;
    }
    double bpt = best.storage.rows == 0
                     ? 0.0
                     : static_cast<double>(best.storage.columnar_bytes) /
                           static_cast<double>(best.storage.rows);
    std::printf("%-8zu %-10.2f %-12zu %-12zu %-10.1f\n", shots, best.ms,
                best.merge_probes, best.hash_probes, bpt);
    std::fprintf(
        f,
        "%s    {\"shots\": %zu, \"ms\": %.3f, \"derived\": %zu, "
        "\"merge_join_probes\": %zu, \"hash_join_probes\": %zu, "
        "\"tuples\": %zu, \"columnar_bytes\": %zu, "
        "\"bytes_per_tuple\": %.1f, \"row_store_bytes\": %zu}",
        first ? "" : ",\n", shots, best.ms, best.derived, best.merge_probes,
        best.hash_probes, best.storage.rows, best.storage.columnar_bytes, bpt,
        best.storage.row_store_bytes);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_indexes.json\n\n");
}

void BM_AttributeIndexLookup(benchmark::State& state) {
  auto db = BigArchive(16, static_cast<size_t>(state.range(0)));
  Value probe = Value::String("actor7");
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->FindByAttribute("name", probe));
  }
}
BENCHMARK(BM_AttributeIndexLookup)->Arg(100)->Arg(800);

void BM_AttributeScanBaseline(benchmark::State& state) {
  auto db = BigArchive(16, static_cast<size_t>(state.range(0)));
  Value probe = Value::String("actor7");
  for (auto _ : state) {
    std::vector<ObjectId> hits;
    for (ObjectId id : db->Entities()) {
      auto v = db->GetAttribute(id, "name");
      if (v.ok() && *v == probe) hits.push_back(id);
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_AttributeScanBaseline)->Arg(100)->Arg(800);

void BM_TemporalStabbing(benchmark::State& state) {
  auto db = BigArchive(8, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->IntervalsContaining(500.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TemporalStabbing)->RangeMultiplier(4)->Range(100, 1600)
    ->Complexity();

void BM_TemporalOverlapWindow(benchmark::State& state) {
  auto db = BigArchive(8, static_cast<size_t>(state.range(0)));
  IntervalSet window({TimeInterval::Closed(400, 600)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->IntervalsOverlapping(window));
  }
}
BENCHMARK(BM_TemporalOverlapWindow)->Arg(100)->Arg(1600);

void BM_InvertedEntityIndex(benchmark::State& state) {
  auto db = BigArchive(8, 800);
  ObjectId actor = *db->Resolve("actor3");
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->IntervalsWithEntity(actor));
  }
}
BENCHMARK(BM_InvertedEntityIndex);

void BM_GoalDirectedVsFull(benchmark::State& state) {
  auto db = BigArchive(8, 200);
  QuerySession session(db.get());
  // A relevant cone plus an expensive unrelated one.
  VQLDB_CHECK_OK(session.AddRule(
      "appears(O, G) <- Interval(G), Object(O), O in G.entities."));
  VQLDB_CHECK_OK(session.AddRule(
      "noise(G1, G2) <- Interval(G1), Interval(G2), "
      "G2.duration => G1.duration."));
  bool goal_directed = state.range(0) == 1;
  session.mutable_options()->strategy =
      goal_directed ? EvalStrategy::kAuto : EvalStrategy::kFixpoint;
  for (auto _ : state) {
    session.Invalidate();
    auto r = session.Query("?- appears(O, G).");
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(goal_directed ? "goal-directed" : "full-materialize");
}
BENCHMARK(BM_GoalDirectedVsFull)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqldb

int main(int argc, char** argv) {
  vqldb::PrintSeries();
  vqldb::JoinAccessPathSeries();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
