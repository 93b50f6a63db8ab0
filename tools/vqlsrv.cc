// vqlsrv: the vqldb network service.
//
//   ./build/tools/vqlsrv                      serve an empty database
//   ./build/tools/vqlsrv archive.vqdb        serve a binary snapshot
//   ./build/tools/vqlsrv archive.vql         serve a text archive
//   --host=<addr>            listen address (default 127.0.0.1)
//   --port=<n>               listen port (default 0 = ephemeral; the chosen
//                            port is printed as "listening on host:port")
//   --io-threads=<n>         epoll/accept loops (default 1)
//   --workers=<n>            engine worker threads (default 2)
//   --max-concurrency=<n>    admission slots (default 4)
//   --max-queued=<n>         admission queue depth (default 16)
//   --queue-timeout-ms=<ms>  queued-arrival patience before Overloaded
//   --default-deadline-ms=<ms>  budget for clients that send none
//   --max-deadline-ms=<ms>   clamp on client budgets
//   --idle-timeout-ms=<ms>   close connections with no completed request
//   --drain-grace-ms=<ms>    SIGTERM: how long in-flight work may finish
//   --max-connections=<n>    connection cap (default 16384)
//   --mem-limit-bytes=<n>    governor: connection buffers charged against it
//   --admin                  enable the admin plane (shard kill/recover,
//                            /metrics?dump=, remote drain)
//   --archive=<dir>          serve the sharded archive at <dir>
//   --archive-shards=<n>     shard count when creating a fresh archive
//   --strategy=<s>           auto|qsqr|magic|fixpoint (snapshot sessions;
//                            auto picks by the goal's cone shape)
//   --threads <n|auto>       fixpoint worker threads per session
//   --metrics-out=<file>     on exit (after drain), dump metrics (.prom =
//                            Prometheus text, else JSON)
//   --fault-seed=<n>         arm seeded transport fault injection
//   --fault-torn=<p>         P(torn response frame)
//   --fault-disconnect=<p>   P(mid-response disconnect)
//   --fault-accept=<p>       P(accept-failure burst)
//
// SIGTERM / SIGINT trigger a graceful drain: stop accepting, shed new
// requests with Unavailable, let in-flight requests finish (then cancel),
// flush write buffers and metrics, exit 0. The drain summary
// ("admitted=N responded=N shed=N dropped=0 unflushed=0") prints on exit.

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/model/database.h"
#include "src/obs/metrics.h"
#include "src/server/server.h"
#include "src/storage/binary_format.h"
#include "src/storage/shard_store.h"
#include "src/storage/text_format.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;
vqldb::server::Server* g_server = nullptr;

void HandleSignal(int sig) {
  g_signal = sig;
  // RequestShutdown is async-signal-safe (atomics + eventfd write).
  if (g_server != nullptr) g_server->RequestShutdown();
}

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || v < 0 || v > 1) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vqldb;
  using server::Server;
  using server::ServerOptions;
  InitLogLevelFromEnv();

  ServerOptions sopts;
  std::string archive_dir;
  int64_t archive_shards = 4;
  int64_t mem_limit_bytes = 0;
  std::string metrics_out;
  std::vector<std::string> args;

  auto int_flag = [&](const std::string& arg, const char* name,
                      int64_t* out) -> int {
    std::string prefix = std::string(name) + "=";
    if (!StartsWith(arg, prefix)) return 0;
    if (!ParseNonNegativeInt(arg.substr(prefix.size()), out)) {
      std::cerr << name << " requires a non-negative integer\n";
      return -1;
    }
    return 1;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    int64_t v = 0;
    int rc;
    if (StartsWith(arg, "--host=")) {
      sopts.host = arg.substr(std::string("--host=").size());
      continue;
    }
    if ((rc = int_flag(arg, "--port", &v)) != 0) {
      if (rc < 0 || v > 65535) return 1;
      sopts.port = static_cast<uint16_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--io-threads", &v)) != 0) {
      if (rc < 0) return 1;
      sopts.io_threads = static_cast<size_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--workers", &v)) != 0) {
      if (rc < 0) return 1;
      sopts.worker_threads = static_cast<size_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--max-concurrency", &v)) != 0) {
      if (rc < 0 || v < 1) return 1;
      sopts.gate.max_concurrent = static_cast<size_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--max-queued", &v)) != 0) {
      if (rc < 0) return 1;
      sopts.gate.max_queued = static_cast<size_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--queue-timeout-ms", &v)) != 0) {
      if (rc < 0) return 1;
      sopts.gate.queue_timeout = std::chrono::milliseconds(v);
      continue;
    }
    if ((rc = int_flag(arg, "--default-deadline-ms", &v)) != 0) {
      if (rc < 0) return 1;
      sopts.default_deadline_ms = static_cast<uint64_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--max-deadline-ms", &v)) != 0) {
      if (rc < 0) return 1;
      sopts.max_deadline_ms = static_cast<uint64_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--idle-timeout-ms", &v)) != 0) {
      if (rc < 0) return 1;
      sopts.idle_timeout_ms = static_cast<uint64_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--drain-grace-ms", &v)) != 0) {
      if (rc < 0) return 1;
      sopts.drain_grace_ms = static_cast<uint64_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--max-connections", &v)) != 0) {
      if (rc < 0 || v < 1) return 1;
      sopts.max_connections = static_cast<size_t>(v);
      continue;
    }
    if ((rc = int_flag(arg, "--mem-limit-bytes", &v)) != 0) {
      if (rc < 0) return 1;
      mem_limit_bytes = v;
      continue;
    }
    if ((rc = int_flag(arg, "--archive-shards", &v)) != 0) {
      if (rc < 0 || v < 1) return 1;
      archive_shards = v;
      continue;
    }
    if ((rc = int_flag(arg, "--fault-seed", &v)) != 0) {
      if (rc < 0) return 1;
      sopts.faults.seed = static_cast<uint64_t>(v);
      continue;
    }
    if (StartsWith(arg, "--fault-torn=")) {
      if (!ParseDouble(arg.substr(std::string("--fault-torn=").size()),
                       &sopts.faults.torn_response_p)) {
        std::cerr << "--fault-torn requires a probability in [0,1]\n";
        return 1;
      }
      continue;
    }
    if (StartsWith(arg, "--fault-disconnect=")) {
      if (!ParseDouble(arg.substr(std::string("--fault-disconnect=").size()),
                       &sopts.faults.disconnect_p)) {
        std::cerr << "--fault-disconnect requires a probability in [0,1]\n";
        return 1;
      }
      continue;
    }
    if (StartsWith(arg, "--fault-accept=")) {
      if (!ParseDouble(arg.substr(std::string("--fault-accept=").size()),
                       &sopts.faults.accept_fail_p)) {
        std::cerr << "--fault-accept requires a probability in [0,1]\n";
        return 1;
      }
      continue;
    }
    if (arg == "--admin") {
      sopts.enable_admin = true;
      continue;
    }
    if (StartsWith(arg, "--archive=")) {
      archive_dir = arg.substr(std::string("--archive=").size());
      continue;
    }
    if (StartsWith(arg, "--strategy=")) {
      std::string value = arg.substr(std::string("--strategy=").size());
      if (value == "auto") {
        sopts.eval_options.strategy = EvalStrategy::kAuto;
      } else if (value == "qsqr") {
        sopts.eval_options.strategy = EvalStrategy::kQsqr;
      } else if (value == "magic") {
        sopts.eval_options.strategy = EvalStrategy::kMagic;
      } else if (value == "fixpoint") {
        sopts.eval_options.strategy = EvalStrategy::kFixpoint;
      } else {
        std::cerr << "--strategy: unknown strategy " << value << "\n";
        return 1;
      }
      continue;
    }
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << "--threads requires a value (N >= 1, or auto)\n";
        return 1;
      }
      std::string value = argv[++i];
      if (value == "auto") {
        sopts.eval_options.num_threads = 0;
      } else {
        int64_t n = 0;
        if (!ParseNonNegativeInt(value, &n) || n < 1) {
          std::cerr << "--threads requires a value (N >= 1, or auto)\n";
          return 1;
        }
        sopts.eval_options.num_threads = static_cast<size_t>(n);
      }
      continue;
    }
    if (StartsWith(arg, "--metrics-out=")) {
      metrics_out = arg.substr(std::string("--metrics-out=").size());
      continue;
    }
    if (StartsWith(arg, "--")) {
      std::cerr << "unknown flag " << arg << "\n";
      return 1;
    }
    args.push_back(std::move(arg));
  }

  if (mem_limit_bytes > 0) {
    ResourceBudget::Limits limits;
    limits.max_bytes = static_cast<size_t>(mem_limit_bytes);
    sopts.governor = std::make_shared<ResourceBudget>(limits);
  }

  VideoDatabase db;
  std::unique_ptr<ShardedArchive> archive;
  std::unique_ptr<Server> srv;

  if (!archive_dir.empty()) {
    ShardedArchive::Options aopts;
    aopts.shard_count = static_cast<size_t>(archive_shards);
    aopts.eval_options = sopts.eval_options;
    auto opened = ShardedArchive::Open(archive_dir, std::move(aopts));
    if (!opened.ok()) {
      std::cerr << "cannot open archive " << archive_dir << ": "
                << opened.status() << "\n";
      return 1;
    }
    archive = std::move(*opened);
    srv = std::make_unique<Server>(archive.get(), sopts);
  } else {
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
          std::cerr << "cannot load " << path << ": " << loaded.status()
                    << "\n";
          return 1;
        }
        // Rules from the archive file install into the snapshot write
        // session so every read snapshot evaluates them.
        srv = std::make_unique<Server>(&db, sopts);
        for (const Rule& rule : loaded->rules) {
          Status st = srv->snapshots()->Apply(rule.ToString());
          if (!st.ok()) std::cerr << "warning: " << st << "\n";
        }
      }
      std::cerr << "loaded " << path << "\n";
    }
    if (srv == nullptr) srv = std::make_unique<Server>(&db, sopts);
  }

  Status started = srv->Start();
  if (!started.ok()) {
    std::cerr << "cannot start server: " << started << "\n";
    return 1;
  }

  g_server = srv.get();
  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  // Scripts parse this exact line for the (possibly ephemeral) port.
  std::cout << "listening on " << sopts.host << ":" << srv->port()
            << std::endl;

  srv->WaitUntilShutdownAndDrain();
  g_server = nullptr;

  std::cout << "drain complete: " << srv->DrainSummary() << std::endl;

  int rc = 0;
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::binary | std::ios::trunc);
    if (out) {
      out << (EndsWith(metrics_out, ".prom")
                  ? obs::MetricsRegistry::Global().RenderPrometheus()
                  : obs::MetricsRegistry::Global().RenderJson());
    }
    if (!out || !out.good()) {
      std::cerr << "cannot write metrics " << metrics_out << "\n";
      rc = 1;
    }
  }
  return rc;
}
