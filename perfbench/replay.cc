#include "perfbench/replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "perfbench/inproc.h"
#include "src/engine/query_gate.h"
#include "src/lang/parser.h"
#include "src/obs/stats.h"
#include "src/server/wire.h"

namespace perfbench {

namespace {

using vqldb::Status;
using vqldb::server::EncodeResponse;
using vqldb::server::kFlagPartial;
using vqldb::server::Response;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum SpanName : uint8_t {
  kRequest,
  kGate,
  kArchiveLock,
  kCurrent,
  kBuild,
  kLease,
  kParse,
  kRun,
  kRender,
  kSnapshotApply,
  kScatter,
  kArchiveApply,
};

struct SpanInfo {
  const char* name;
  const char* layer;
};

// Indexed by SpanName. The request span is the root; every other span is
// one of its children, so a layer's self time is the sum of its spans.
constexpr SpanInfo kSpanInfo[] = {
    {"request", ""},
    {"QueryGate::Acquire", "server"},
    {"archive_lock", "server"},
    {"SnapshotManager::Current", "snapshot"},
    {"SnapshotManager::Current(build)", "snapshot"},
    {"DbSnapshot::Acquire", "snapshot"},
    {"Parser::ParseQuery", "lang"},
    {"QuerySession::Run", "engine"},
    {"render", "server"},
    {"SnapshotManager::Apply", "snapshot"},
    {"ShardedArchive::Query", "storage"},
    {"ShardedArchive::Apply", "storage"},
};

const char* KindName(Op::Kind kind) {
  switch (kind) {
    case Op::Kind::kLookup:
      return "lookup";
    case Op::Kind::kScan:
      return "scan";
    case Op::Kind::kWrite:
      return "write";
  }
  return "?";
}

struct Span {
  uint64_t req = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = kRequest;
  Op::Kind kind = Op::Kind::kLookup;
  int32_t parent = -1;  // index of the request span in the same buffer
};

// Everything one replay thread records; merged after the threads join.
struct ThreadLog {
  struct Req {
    Op::Kind kind = Op::Kind::kLookup;
    double service_ms = 0;
  };
  std::vector<Span> spans;
  std::vector<Req> reqs;
  std::vector<std::pair<std::string, double>> runs;  // strategy, engine ms
  std::vector<double> pruned;                        // archive lookups
};

// The state a vqlsrv worker pool would run against.
struct Target {
  vqldb::QueryGate gate{vqldb::QueryGate::Options{}};
  SingleDb single;                                 // single-db mode
  std::unique_ptr<vqldb::ShardedArchive> archive;  // archive mode
  std::mutex archive_mu;  // Server serializes archive queries behind one lock

  // Snapshot generations seen so far: (sessions built, image bytes) of each
  // superseded one, plus the current one.
  std::mutex gen_mu;
  std::shared_ptr<vqldb::server::DbSnapshot> current;
  std::vector<std::pair<size_t, size_t>> generations;

  // True for the first call that returns a generation not seen before:
  // that is the call that built it (the builder holds the manager's lock,
  // so every other caller gets the generation after the builder returns).
  bool ObserveGeneration(const std::shared_ptr<vqldb::server::DbSnapshot>& s) {
    std::lock_guard<std::mutex> lock(gen_mu);
    if (s == current) return false;
    if (current != nullptr) {
      generations.emplace_back(current->sessions_built(),
                               current->bytes().size());
    }
    current = s;
    return true;
  }
};

Status Execute(Target* target, const Op& op, uint64_t req, bool on,
               ThreadLog* log, double* service_ms) {
  const int64_t t0 = NowNs();
  int32_t root = -1;
  if (on) {
    root = static_cast<int32_t>(log->spans.size());
    log->spans.push_back({req, t0, 0, kRequest, op.kind, -1});
  }
  auto span = [&](SpanName name, auto&& call) {
    const int64_t start = on ? NowNs() : 0;
    auto out = call();
    if (on) log->spans.push_back({req, start, NowNs(), name, op.kind, root});
    return out;
  };

  auto ticket = span(kGate, [&] { return target->gate.Acquire(); });
  if (!ticket.ok()) return ticket.status();

  if (target->archive == nullptr) {
    vqldb::server::SnapshotManager* mgr = target->single.snapshots.get();
    if (op.kind == Op::Kind::kWrite) {
      Status st = span(kSnapshotApply, [&] { return mgr->Apply(op.body); });
      if (!st.ok()) return st;
      span(kRender, [&] {
        return EncodeResponse(Response{vqldb::StatusCode::kOk, 0,
                                       "ok epoch=" +
                                           std::to_string(mgr->live_epoch())});
      });
    } else {
      const int64_t start = on ? NowNs() : 0;
      auto snapshot = mgr->Current();
      if (!snapshot.ok()) return snapshot.status();
      const bool built = target->ObserveGeneration(*snapshot);
      if (on) {
        log->spans.push_back(
            {req, start, NowNs(), built ? kBuild : kCurrent, op.kind, root});
      }
      auto lease = span(kLease, [&] { return (*snapshot)->Acquire(); });
      if (!lease.ok()) return lease.status();
      const int64_t parse_start = NowNs();
      auto query = span(kParse, [&] { return vqldb::Parser::ParseQuery(op.text); });
      if (!query.ok()) return query.status();
      const uint64_t parse_us =
          static_cast<uint64_t>(NowNs() - parse_start) / 1000;
      const int64_t run_start = NowNs();
      auto result =
          span(kRun, [&] { return lease->session()->Run(*query, parse_us); });
      const double run_ms = static_cast<double>(NowNs() - run_start) / 1e6;
      if (!result.ok()) return result.status();
      const vqldb::QueryExecInfo& info = lease->session()->last_exec_info();
      if (on) {
        log->runs.emplace_back(info.cache_hit ? "cache" : info.strategy, run_ms);
      }
      const uint8_t flags = info.partial ? kFlagPartial : 0;
      span(kRender, [&] {
        return EncodeResponse(Response{vqldb::StatusCode::kOk, flags,
                                       result->ToString(lease->db())});
      });
    }
  } else {
    if (op.kind == Op::Kind::kWrite) {
      Status st = span(kArchiveApply,
                       [&] { return target->archive->Apply(op.tenant, op.body); });
      if (!st.ok()) return st;
      span(kRender, [&] {
        return EncodeResponse(Response{vqldb::StatusCode::kOk, 0, "ok epoch=0"});
      });
    } else {
      std::string body;
      uint8_t flags = 0;
      {
        auto lock = span(kArchiveLock, [&] {
          return std::unique_lock<std::mutex>(target->archive_mu);
        });
        auto result = span(kScatter, [&] {
          return target->archive->Query(op.text,
                                        vqldb::ShardedArchive::QueryOptions{});
        });
        if (!result.ok()) return result.status();
        if (result->partial) flags = kFlagPartial;
        if (op.kind == Op::Kind::kLookup) {
          log->pruned.push_back(static_cast<double>(result->shards_pruned) /
                                static_cast<double>(kArchiveShards));
        }
        body = span(kRender, [&] { return result->ToString(); });
      }
      span(kRender, [&] {
        return EncodeResponse(
            Response{vqldb::StatusCode::kOk, flags, std::move(body)});
      });
    }
  }

  const int64_t t1 = NowNs();
  if (on) log->spans[static_cast<size_t>(root)].end_ns = t1;
  *service_ms = static_cast<double>(t1 - t0) / 1e6;
  return Status::OK();
}

// Replays ops[begin, end) on kReplayThreads threads; `measure` records each
// request's service time, with spans when options.spans is set.
Status RunPhase(Target* target, const std::vector<Op>& ops, size_t begin,
                size_t end, bool measure, const ReplayOptions& options,
                std::vector<ThreadLog>* logs) {
  std::atomic<size_t> next{begin};
  std::mutex err_mu;
  Status first_error;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReplayThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadLog* log = &(*logs)[t];
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= end) return;
        const bool on = measure && options.spans;
        double service_ms = 0;
        Status st = Execute(target, ops[i], i, on, log, &service_ms);
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (first_error.ok()) first_error = st.WithContext(ops[i].text);
          continue;
        }
        if (measure) log->reqs.push_back({ops[i].kind, service_ms});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return first_error;
}

double Mean(double sum, size_t n) {
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

void WriteSpans(const std::vector<ThreadLog>& logs, int64_t origin_ns,
                const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return;
  out << "req,thread,kind,span,layer,parent,start_us,end_us\n";
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t].spans) {
      out << s.req << ',' << t << ',' << KindName(s.kind) << ','
          << kSpanInfo[s.name].name << ',' << kSpanInfo[s.name].layer << ','
          << (s.parent < 0 ? "" : "request") << ','
          << (s.start_ns - origin_ns) / 1000.0 << ','
          << (s.end_ns - origin_ns) / 1000.0 << '\n';
    }
  }
}

}  // namespace

vqldb::Result<ReplayReport> Replay(const WorkloadSpec& spec,
                                   const Archive& archive,
                                   const std::vector<Op>& ops,
                                   const ReplayOptions& options) {
  Target target;
  if (spec.archive_mode) {
    VQLDB_RETURN_NOT_OK(PopulateArchive(archive, options.work_dir));
    auto opened = OpenArchive(archive, options.work_dir,
                              vqldb::Journal::Durability::kFsync);
    if (!opened.ok()) return opened.status();
    target.archive = std::move(*opened);
  } else {
    auto loaded = LoadSingleDb(archive);
    if (!loaded.ok()) return loaded.status();
    target.single = std::move(*loaded);
  }

  std::vector<ThreadLog> logs(kReplayThreads);
  const size_t warm = std::min(options.warmup_ops, ops.size());
  VQLDB_RETURN_NOT_OK(RunPhase(&target, ops, 0, warm, false, options, &logs));

  // Every shard run of the measured phase lands in the slow log, which is
  // how engine time inside ShardedArchive::Query is told apart.
  vqldb::obs::StatsCollector& stats = vqldb::obs::StatsCollector::Global();
  const bool scatter_engine = spec.archive_mode && options.spans;
  if (scatter_engine) {
    stats.set_slow_threshold_us(0);
    stats.set_slow_capacity(4 * kArchiveShards * (ops.size() - warm) + 16);
    stats.ResetSlowLog();
  }
  const int64_t origin_ns = NowNs();
  VQLDB_RETURN_NOT_OK(
      RunPhase(&target, ops, warm, ops.size(), true, options, &logs));

  ReplayReport r;
  double sum = 0, read_sum = 0;
  std::map<std::string, std::pair<double, size_t>> by_kind;
  for (const ThreadLog& log : logs) {
    for (const ThreadLog::Req& q : log.reqs) {
      sum += q.service_ms;
      if (q.kind == Op::Kind::kWrite) {
        ++r.writes;
      } else {
        read_sum += q.service_ms;
        ++r.reads;
      }
      auto& k = by_kind[KindName(q.kind)];
      k.first += q.service_ms;
      ++k.second;
    }
  }
  r.service_ms = Mean(sum, r.reads + r.writes);
  r.read_service_ms = Mean(read_sum, r.reads);
  for (const auto& [kind, sum_n] : by_kind) {
    r.service_by_kind_ms[kind] = Mean(sum_n.first, sum_n.second);
  }

  // Layer self times and per-call span means.
  std::map<std::string, double> layer_sum, read_layer_sum;
  double uncovered_sum = 0;
  std::vector<std::pair<double, size_t>> call(std::size(kSpanInfo));
  for (const ThreadLog& log : logs) {
    double children = 0;
    int64_t root_ns = 0;
    bool root_read = false;
    auto close_root = [&] {
      if (root_read) uncovered_sum += (static_cast<double>(root_ns) / 1e6) - children;
    };
    for (const Span& s : log.spans) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      if (s.name == kRequest) {
        close_root();
        children = 0;
        root_ns = s.end_ns - s.start_ns;
        root_read = s.kind != Op::Kind::kWrite;
        continue;
      }
      children += ms;
      const char* layer = kSpanInfo[s.name].layer;
      layer_sum[layer] += ms;
      if (s.kind != Op::Kind::kWrite) read_layer_sum[layer] += ms;
      call[s.name].first += ms;
      ++call[s.name].second;
    }
    close_root();
  }
  auto call_mean = [&](SpanName n) { return Mean(call[n].first, call[n].second); };
  r.build_ms = call_mean(kBuild);
  r.builds = call[kBuild].second;
  r.lease_ms = call_mean(kLease);
  r.snapshot_apply_ms = call_mean(kSnapshotApply);
  r.parse_us = call_mean(kParse) * 1000.0;
  r.run_ms = call_mean(kRun);
  r.scatter_ms = call_mean(kScatter);
  r.storage_apply_ms = call_mean(kArchiveApply);

  for (const ThreadLog& log : logs) {
    for (const auto& [strategy, ms] : log.runs) {
      ++r.strategy_runs[strategy];
      r.strategy_ms[strategy] += ms;
    }
  }

  if (scatter_engine) {
    // The engine work inside a scatter is the shard sessions' Run() time,
    // recorded per shard run; it moves from the storage span to the engine
    // layer at the measured phase's mean per read.
    double engine_ms = 0;
    for (const vqldb::obs::QueryRecord& rec : stats.Snapshot().slow) {
      const double ms = static_cast<double>(rec.total_us) / 1000.0;
      engine_ms += ms;
      std::string path = rec.access_path.substr(0, rec.access_path.find('('));
      ++r.strategy_runs[path];
      r.strategy_ms[path] += ms;
    }
    stats.set_slow_threshold_us(vqldb::obs::StatsCollector::kDefaultSlowThresholdUs);
    stats.set_slow_capacity(vqldb::obs::StatsCollector::kDefaultSlowCapacity);
    stats.ResetSlowLog();
    const double engine_per_read = Mean(engine_ms, r.reads);
    r.run_ms = engine_per_read;
    const double moved = engine_per_read * static_cast<double>(r.reads);
    layer_sum["engine"] += moved;
    layer_sum["storage"] -= moved;
    read_layer_sum["engine"] += moved;
    read_layer_sum["storage"] -= moved;
  }
  for (auto& [strategy, ms] : r.strategy_ms) {
    ms /= static_cast<double>(r.strategy_runs[strategy]);
  }

  for (const char* layer : {"server", "snapshot", "lang", "engine", "storage"}) {
    r.layer_self_ms[layer] = Mean(layer_sum[layer], r.reads + r.writes);
    r.read_layer_self_ms[layer] = Mean(read_layer_sum[layer], r.reads);
  }
  r.unattributed_ms = Mean(uncovered_sum, r.reads);

  double pruned_sum = 0;
  size_t pruned_n = 0;
  for (const ThreadLog& log : logs) {
    for (double p : log.pruned) pruned_sum += p;
    pruned_n += log.pruned.size();
  }
  r.pruned_frac = Mean(pruned_sum, pruned_n);

  if (target.current != nullptr) {
    target.generations.emplace_back(target.current->sessions_built(),
                                    target.current->bytes().size());
  }
  double clones = 0, bytes = 0;
  for (const auto& [built, size] : target.generations) {
    clones += static_cast<double>(built);
    bytes += static_cast<double>(size);
  }
  r.clones_per_build = Mean(clones, target.generations.size());
  r.image_kb = Mean(bytes, target.generations.size()) / 1024.0;

  if (!options.spans_path.empty()) WriteSpans(logs, origin_ns, options.spans_path);
  return r;
}

}  // namespace perfbench
