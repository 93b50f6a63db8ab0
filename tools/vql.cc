// vql: the interactive shell over a video archive database.
//
//   ./build/tools/vql                  start with an empty database
//   ./build/tools/vql archive.vql      start from a text archive
//   ./build/tools/vql archive.vqdb     start from a binary snapshot
//   ./build/tools/vql --threads N ...  fixpoint worker threads (1 = serial,
//                                      default auto = hardware concurrency;
//                                      also settable at runtime: .threads)
//   --metrics-out=<file>   on exit, dump engine metrics (.prom suffix writes
//                          Prometheus text exposition, anything else JSON)
//   --trace-out=<file>     enable span tracing; on exit, write a Chrome
//                          trace_event JSON (chrome://tracing, Perfetto)
//   --log-level=<level>    debug|info|warn|error|fatal (or env VQLDB_LOG;
//                          the flag wins; also settable at runtime: .loglevel)
//   --timeout-ms=<ms>      per-query wall-clock budget; queries that exceed
//                          it fail with "Deadline exceeded" and the shell
//                          keeps running (also settable at runtime: .timeout)
//   --strategy=<s>         execution strategy: auto (default: QSQR for a
//                          non-recursive cone, magic sets for a recursive
//                          one, the full fixpoint when goal direction
//                          declines) | qsqr | magic | fixpoint (also
//                          settable at runtime: .strategy)
//   --reorder              stats-driven body-literal reordering: the planner
//                          orders each rule body by estimated selectivity
//                          instead of the written order (also: .reorder on)
//   --no-cache             disable the memoizing query cache (also settable
//                          at runtime: .cache on|off|clear)
//   --mem-limit-bytes=<n>  governed memory budget: queries whose working set
//                          would exceed it fail with "Resource exhausted"
//                          after the caches are shed, and the shell keeps
//                          running (also settable at runtime: .memlimit)
//   --max-concurrency=<n>  admission control: at most n queries execute at
//                          once, excess arrivals queue then shed with
//                          "Overloaded" (also settable: .concurrency)
//   --slow-ms=<ms>         slow-query threshold: queries at or above it (and
//                          all failed queries) enter the slow-query ring
//                          (default 100; 0 logs every query; also .slowlog)
//   --slowlog-out=<file>   on exit, dump the slow-query log as JSON (the
//                          schema tools/obs_check slowlog validates)
//   --archive=<dir>        attach the sharded archive at <dir> (creating it
//                          if absent): data statements route to the current
//                          tenant's shard, queries scatter-gather across all
//                          shards (also: .archive open / .archive close)
//   --archive-shards=<n>   shard count when --archive creates a fresh
//                          archive (default 4; an existing manifest wins)
//   --allow-partial        degraded-mode queries: answer from the shards
//                          that can and mark the result PARTIAL instead of
//                          failing with Unavailable (also: .partial on)
//   --connect=<host:port>  remote mode: statements and queries are sent to a
//                          vqlsrv over the wire protocol instead of running
//                          in-process; --timeout-ms becomes the propagated
//                          per-request deadline
//
// Exit codes (local and remote): 0 success, 2 parse error, 3 overloaded
// (admission shed), 4 deadline exceeded, 5 unavailable (server draining /
// shard down), 1 anything else. The code reflects the last failed input, so
// scripted pipelines can branch on what went wrong.
//
// SIGINT / SIGTERM trip a cooperative CancelToken: a running query stops at
// its next ExecContext poll with "Cancelled", the journal mirror (".journal")
// is flushed, and the shell exits cleanly.

#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/model/database.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "src/server/client.h"
#include "src/server/wire.h"
#include "src/shell/repl.h"
#include "src/storage/binary_format.h"
#include "src/storage/text_format.h"

namespace {

// Writes the metrics snapshot: Prometheus exposition for .prom, else JSON.
bool WriteMetrics(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for metrics\n";
    return false;
  }
  out << (vqldb::EndsWith(path, ".prom")
              ? vqldb::obs::MetricsRegistry::Global().RenderPrometheus()
              : vqldb::obs::MetricsRegistry::Global().RenderJson());
  return out.good();
}

volatile std::sig_atomic_t g_signal = 0;
std::shared_ptr<vqldb::CancelToken> g_cancel;  // installed before handlers

void HandleSignal(int sig) {
  g_signal = sig;
  // CancelToken::Cancel is one relaxed atomic store — signal-safe. The
  // shared_ptr itself is never written after handler installation.
  if (g_cancel != nullptr) g_cancel->Cancel();
}

void InstallSignalHandlers() {
  struct sigaction sa{};
  sa.sa_handler = HandleSignal;  // no SA_RESTART: interrupt blocking reads
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

// Remote mode: the same line discipline as the local shell (buffer until a
// terminating '.'), but every completed input travels to a vqlsrv.
int RunRemote(vqldb::server::Client& client, int64_t timeout_ms,
              bool allow_partial) {
  using namespace vqldb;
  using server::MsgType;
  using server::Request;

  std::cerr << "vqldb shell (remote " << client.options().host << ":"
            << client.options().port
            << ") — statements end with '.', .quit to exit\n";
  Status last_status;
  std::string line;
  std::string buffer;
  while (g_signal == 0) {
    std::cerr << (buffer.empty() ? "vql> " : "...> ");
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(Trim(line));
    if (buffer.empty() && (trimmed == ".quit" || trimmed == ".exit")) break;
    if (buffer.empty() && trimmed == ".ping") {
      auto response = client.Ping();
      std::cout << (response.ok() ? "pong\n"
                                  : "error: " + response.status().ToString() +
                                        "\n");
      continue;
    }
    if (buffer.empty() && !trimmed.empty() && trimmed[0] == '.' &&
        trimmed.size() > 1 &&
        !std::isdigit(static_cast<unsigned char>(trimmed[1]))) {
      std::cout << "meta commands run locally; over --connect only .ping and "
                   ".quit are available\n";
      continue;
    }
    if (trimmed.empty() && buffer.empty()) continue;
    if (!buffer.empty()) buffer += "\n";
    buffer += trimmed;
    if (!EndsWith(Trim(buffer), ".")) continue;
    std::string input = std::move(buffer);
    buffer.clear();

    Request request;
    std::string_view text = Trim(input);
    request.type = (StartsWith(text, "?-") || StartsWith(text, "explain"))
                       ? MsgType::kQuery
                       : MsgType::kStatement;
    request.deadline_ms =
        timeout_ms > 0 ? static_cast<uint32_t>(timeout_ms) : 0;
    if (allow_partial) request.flags |= server::kFlagPartial;
    request.text = input;

    auto response = client.Call(request);
    if (!response.ok()) {
      last_status = response.status();
      std::cout << "error: " << last_status.ToString() << "\n";
      continue;
    }
    last_status = server::StatusFromResponse(*response);
    if (!last_status.ok()) {
      std::cout << "error: " << last_status.ToString() << "\n";
      continue;
    }
    if (response->partial()) std::cout << "-- PARTIAL ANSWER --\n";
    std::cout << response->body;
    if (!response->body.empty() && response->body.back() != '\n') {
      std::cout << "\n";
    }
  }
  return ExitCodeForStatus(last_status);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vqldb;
  InitLogLevelFromEnv();
  EvalOptions options;
  std::string metrics_out;
  std::string trace_out;
  std::string slowlog_out;
  int64_t timeout_ms = 0;
  int64_t mem_limit_bytes = 0;
  int64_t max_concurrency = 0;
  bool no_cache = false;
  std::string archive_dir;
  int64_t archive_shards = 4;
  bool allow_partial = false;
  std::string connect_spec;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--metrics-out=")) {
      metrics_out = arg.substr(std::string("--metrics-out=").size());
      continue;
    }
    if (StartsWith(arg, "--trace-out=")) {
      trace_out = arg.substr(std::string("--trace-out=").size());
      continue;
    }
    if (StartsWith(arg, "--slowlog-out=")) {
      slowlog_out = arg.substr(std::string("--slowlog-out=").size());
      continue;
    }
    if (StartsWith(arg, "--slow-ms=")) {
      std::string value = arg.substr(std::string("--slow-ms=").size());
      int64_t slow_ms = 0;
      if (!ParseNonNegativeInt(value, &slow_ms)) {
        std::cerr << "--slow-ms requires a non-negative integer\n";
        return 1;
      }
      obs::StatsCollector::Global().set_slow_threshold_us(
          static_cast<uint64_t>(slow_ms) * 1000);
      continue;
    }
    if (StartsWith(arg, "--log-level=")) {
      std::string value = arg.substr(std::string("--log-level=").size());
      LogLevel level;
      if (!ParseLogLevel(value, &level)) {
        std::cerr << "--log-level: unknown level " << value
                  << " (debug|info|warn|error|fatal)\n";
        return 1;
      }
      SetLogLevel(level);
      continue;
    }
    if (StartsWith(arg, "--timeout-ms=")) {
      std::string value = arg.substr(std::string("--timeout-ms=").size());
      if (!ParseNonNegativeInt(value, &timeout_ms) || timeout_ms < 1) {
        std::cerr << "--timeout-ms requires a positive integer\n";
        return 1;
      }
      continue;
    }
    if (StartsWith(arg, "--mem-limit-bytes=")) {
      std::string value = arg.substr(std::string("--mem-limit-bytes=").size());
      if (!ParseNonNegativeInt(value, &mem_limit_bytes) ||
          mem_limit_bytes < 1) {
        std::cerr << "--mem-limit-bytes requires a positive integer\n";
        return 1;
      }
      continue;
    }
    if (StartsWith(arg, "--max-concurrency=")) {
      std::string value = arg.substr(std::string("--max-concurrency=").size());
      if (!ParseNonNegativeInt(value, &max_concurrency) ||
          max_concurrency < 1) {
        std::cerr << "--max-concurrency requires a positive integer\n";
        return 1;
      }
      continue;
    }
    if (StartsWith(arg, "--archive=")) {
      archive_dir = arg.substr(std::string("--archive=").size());
      continue;
    }
    if (StartsWith(arg, "--archive-shards=")) {
      std::string value = arg.substr(std::string("--archive-shards=").size());
      if (!ParseNonNegativeInt(value, &archive_shards) || archive_shards < 1) {
        std::cerr << "--archive-shards requires a positive integer\n";
        return 1;
      }
      continue;
    }
    if (arg == "--allow-partial") {
      allow_partial = true;
      continue;
    }
    if (StartsWith(arg, "--connect=")) {
      connect_spec = arg.substr(std::string("--connect=").size());
      continue;
    }
    if (StartsWith(arg, "--strategy=")) {
      std::string value = arg.substr(std::string("--strategy=").size());
      if (value == "auto") {
        options.strategy = EvalStrategy::kAuto;
      } else if (value == "qsqr") {
        options.strategy = EvalStrategy::kQsqr;
      } else if (value == "magic") {
        options.strategy = EvalStrategy::kMagic;
      } else if (value == "fixpoint") {
        options.strategy = EvalStrategy::kFixpoint;
      } else {
        std::cerr << "--strategy: unknown strategy " << value
                  << " (auto|qsqr|magic|fixpoint)\n";
        return 1;
      }
      continue;
    }
    if (arg == "--reorder") {
      options.reorder_body = true;
      continue;
    }
    if (arg == "--no-cache") {
      no_cache = true;
      continue;
    }
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << "--threads requires a value (N >= 1, or auto)\n";
        return 1;
      }
      std::string value = argv[++i];
      if (value == "auto") {
        options.num_threads = 0;
      } else {
        int64_t n = 0;
        if (!ParseNonNegativeInt(value, &n) || n < 1) {
          std::cerr << "--threads requires a value (N >= 1, or auto)\n";
          return 1;
        }
        options.num_threads = static_cast<size_t>(n);
      }
      continue;
    }
    args.push_back(std::move(arg));
  }

  g_cancel = std::make_shared<CancelToken>();
  InstallSignalHandlers();

  if (!connect_spec.empty()) {
    auto copts = server::ParseHostPort(connect_spec);
    if (!copts.ok()) {
      std::cerr << copts.status() << "\n";
      return 1;
    }
    server::Client client(*copts);
    Status connected = client.Connect();
    if (!connected.ok()) {
      std::cerr << "cannot connect to " << connect_spec << ": " << connected
                << "\n";
      return ExitCodeForStatus(connected);
    }
    return RunRemote(client, timeout_ms, allow_partial);
  }

  VideoDatabase db;
  std::vector<Rule> preloaded_rules;
  if (!args.empty()) {
    const std::string& path = args[0];
    if (EndsWith(path, ".vqdb")) {
      auto restored = BinaryFormat::Load(path);
      if (!restored.ok()) {
        std::cerr << "cannot load " << path << ": " << restored.status()
                  << "\n";
        return 1;
      }
      db = std::move(*restored);
    } else {
      auto loaded = TextFormat::LoadFromFile(path, &db);
      if (!loaded.ok()) {
        std::cerr << "cannot load " << path << ": " << loaded.status() << "\n";
        return 1;
      }
      preloaded_rules = loaded->rules;
    }
    std::cerr << "loaded " << path << "\n";
  }

  Repl repl(&db, options);
  if (timeout_ms > 0) repl.set_timeout_ms(timeout_ms);
  if (no_cache) repl.session().set_cache_enabled(false);
  if (mem_limit_bytes > 0) {
    repl.session().EnableMemoryGovernor(static_cast<size_t>(mem_limit_bytes));
  }
  if (max_concurrency > 0) {
    QueryGate::Options gopts;
    gopts.max_concurrent = static_cast<size_t>(max_concurrency);
    repl.session().set_gate(std::make_shared<QueryGate>(gopts));
  }
  for (const Rule& rule : preloaded_rules) {
    Status st = repl.session().AddRule(rule);
    if (!st.ok()) std::cerr << "warning: " << st << "\n";
  }
  repl.set_allow_partial(allow_partial);
  if (!archive_dir.empty()) {
    ShardedArchive::Options aopts;
    aopts.shard_count = static_cast<size_t>(archive_shards);
    aopts.eval_options = options;
    auto archive = ShardedArchive::Open(archive_dir, std::move(aopts));
    if (!archive.ok()) {
      std::cerr << "cannot open archive " << archive_dir << ": "
                << archive.status() << "\n";
      return 1;
    }
    repl.AttachArchive(std::move(*archive));
    std::cerr << "archive " << archive_dir << " attached ("
              << repl.archive()->shard_count() << " shards)\n";
  }

  if (!trace_out.empty()) obs::SetTracingEnabled(true);

  repl.InstallCancelToken(g_cancel);

  std::cerr << "vqldb shell — statements end with '.', .help for help\n";
  Status last_status;
  std::string line;
  while (!repl.done() && g_signal == 0) {
    std::cerr << (repl.pending() ? "...> " : "vql> ");
    if (!std::getline(std::cin, line)) {
      if (g_signal != 0) break;   // interrupted read, not EOF
      break;
    }
    std::cout << repl.Execute(line);
    if (!repl.last_status().ok()) last_status = repl.last_status();
    // A signal during the query cancelled it cooperatively; the next input
    // starts with a fresh token.
    if (g_signal != 0) break;
    g_cancel->Reset();
  }

  // Signal-exit path: never leave buffered journal records behind.
  Status flushed = repl.FlushJournal();
  if (!flushed.ok()) {
    std::cerr << "journal flush failed: " << flushed << "\n";
  }

  int rc = ExitCodeForStatus(last_status);
  if (!metrics_out.empty() && !WriteMetrics(metrics_out)) rc = 1;
  if (!slowlog_out.empty()) {
    std::ofstream out(slowlog_out);
    if (out) out << obs::StatsCollector::Global().RenderSlowLogJson();
    if (!out || !out.good()) {
      std::cerr << "cannot write slow-query log " << slowlog_out << "\n";
      rc = 1;
    }
  }
  if (!trace_out.empty()) {
    std::string error;
    if (!obs::Tracer::Global().WriteFile(trace_out, &error)) {
      std::cerr << "cannot write trace " << trace_out << ": " << error << "\n";
      rc = 1;
    }
  }
  return rc;
}
