// The traced run: replays a seeded request stream in-process, through the
// same public calls a vqlsrv worker makes, and attributes each request's
// service time to the repository's layers with spans.
//
//   single-db read   QueryGate::Acquire -> SnapshotManager::Current ->
//                    DbSnapshot::Acquire -> Parser::ParseQuery ->
//                    QuerySession::Run -> QueryResult::ToString +
//                    EncodeResponse
//   single-db write  QueryGate::Acquire -> SnapshotManager::Apply ->
//                    EncodeResponse
//   archive read     QueryGate::Acquire -> archive lock (Server serializes
//                    archive queries) -> ShardedArchive::Query ->
//                    ArchiveQueryResult::ToString + EncodeResponse
//   archive write    QueryGate::Acquire -> ShardedArchive::Apply ->
//                    EncodeResponse
//
// The tracing overhead is measured by replaying the same stream twice, on
// fresh state each time: once with spans on and once with spans off.

#ifndef VQLDB_PERFBENCH_REPLAY_H_
#define VQLDB_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/gen.h"
#include "src/common/result.h"

namespace perfbench {

/// Replay threads: as many as vqlsrv has workers.
constexpr size_t kReplayThreads = 2;

struct ReplayOptions {
  size_t warmup_ops = 0;     // replayed first, measured by nothing
  bool spans = true;         // off: time each request, record no spans
  std::string work_dir;      // scratch space for the archive's shards
  std::string spans_path;    // where the spans go when the run ends
};

/// What the traced replay measured. Times are means in milliseconds over
/// the requests (or calls) they name; "self" times exclude child spans.
struct ReplayReport {
  size_t reads = 0;             // measured requests
  size_t writes = 0;
  double service_ms = 0;        // mean service time, reads and writes
  double read_service_ms = 0;
  std::map<std::string, double> service_by_kind_ms;  // lookup, scan, write
  // With spans on only:
  // mean self time per request, by layer (reads and writes),
  std::map<std::string, double> layer_self_ms;
  // the same for reads only (the accounting against client read latency),
  std::map<std::string, double> read_layer_self_ms;
  double unattributed_ms = 0;   // read service time no span covers

  // Per-call span means (0 when the workload never makes the call).
  double build_ms = 0;          // Current() calls that built a generation
  size_t builds = 0;
  double lease_ms = 0;          // DbSnapshot::Acquire
  double clones_per_build = 0;  // DbSnapshot::sessions_built per generation
  double image_kb = 0;          // DbSnapshot::bytes().size() per generation
  double snapshot_apply_ms = 0; // SnapshotManager::Apply
  double parse_us = 0;          // Parser::ParseQuery
  double run_ms = 0;            // engine time per read request
  double scatter_ms = 0;        // ShardedArchive::Query
  double storage_apply_ms = 0;  // ShardedArchive::Apply
  double pruned_frac = 0;       // lookups: shards_pruned / shard count
  // Engine runs by how they were answered: cache, qsqr, magic, fixpoint
  // (archive: one run per shard a request reached).
  std::map<std::string, size_t> strategy_runs;
  std::map<std::string, double> strategy_ms;  // mean engine time per run
};

/// Replays `ops` (reads and writes, in stream order) against a fresh
/// in-process copy of `archive` and reports the layer attribution.
vqldb::Result<ReplayReport> Replay(const WorkloadSpec& spec,
                                   const Archive& archive,
                                   const std::vector<Op>& ops,
                                   const ReplayOptions& options);

}  // namespace perfbench

#endif  // VQLDB_PERFBENCH_REPLAY_H_
