// End-to-end tests of the service layer over real loopback sockets: both
// protocols, admission, deadline propagation, drain, fault tolerance, the
// exactly-one-response ledger, and cached reads answered on the IO thread
// in single-db and archive mode.

#include "src/server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/query.h"
#include "src/obs/json_lite.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"
#include "src/server/client.h"
#include "src/storage/shard_store.h"

namespace vqldb {
namespace server {
namespace {

constexpr const char* kSeedProgram =
    "object a { }. object b { }. object c { }. "
    "e(a, b). e(b, c). "
    "p(X, Y) <- e(X, Y). "
    "path(X, Y) <- e(X, Y). "
    "path(X, Z) <- path(X, Y), e(Y, Z).";

// The value of counter `name` in a Prometheus text scrape; -1 if absent.
int64_t CounterIn(const std::string& scrape, const std::string& name) {
  const std::string prefix = "\n" + name + " ";
  size_t at = scrape.find(prefix);
  if (at == std::string::npos) return -1;
  return std::stoll(scrape.substr(at + prefix.size()));
}

// The value of sample `name` in a Prometheus text scrape; -1 if absent.
double SampleIn(const std::string& scrape, const std::string& name) {
  const std::string prefix = "\n" + name + " ";
  size_t at = scrape.find(prefix);
  if (at == std::string::npos) return -1;
  return std::stod(scrape.substr(at + prefix.size()));
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "")->value();
}

// How many queries the statistics collector recorded under `fingerprint`.
uint64_t RecordedCount(const std::string& fingerprint) {
  for (const obs::QueryStatView& view :
       obs::StatsCollector::Global().Snapshot().queries) {
    if (view.fingerprint == fingerprint) return view.count;
  }
  return 0;
}

// POSTs `body` to `path` over a fresh connection; the raw HTTP response.
std::string HttpPost(uint16_t port, const std::string& path,
                     const std::string& body) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "POST " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" +
                              body;
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string response;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Tenant `i`'s objects and segments: a<i> -> b<i>, a<i> -> c<i>,
// b<i> -> c<i>, plus w1..w12 for later writes. The symbols carry the
// tenant's index, so a goal naming one prunes to that tenant's shard.
std::string TenantProgram(int i) {
  const std::string n = std::to_string(i);
  std::string program = "object a" + n + " { }. object b" + n +
                        " { }. object c" + n + " { }. ";
  for (int w = 1; w <= 12; ++w) {
    program += "object w" + std::to_string(w) + " { }. ";
  }
  return program + "seg(a" + n + ", b" + n + "). seg(a" + n + ", c" + n +
         "). seg(b" + n + ", c" + n + ").";
}

constexpr const char* kArchiveRule = "near(X, Y) <- seg(X, Y).";

class ServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::error_code ec;
    for (const std::string& root : archive_roots_) {
      std::filesystem::remove_all(root, ec);
    }
  }

  /// A 2-shard archive under a fresh directory: tenants_[i] routes to shard
  /// i and holds TenantProgram(i); near/2 is installed archive-wide.
  std::unique_ptr<ShardedArchive> OpenArchive(const std::string& name) {
    const std::string root = ::testing::TempDir() + "/server_archive_" +
                             name + "_" + std::to_string(::getpid());
    std::filesystem::remove_all(root);
    archive_roots_.push_back(root);
    ShardedArchive::Options options;
    options.shard_count = 2;
    options.durability = Journal::Durability::kFlush;
    auto archive = ShardedArchive::Open(root, std::move(options));
    EXPECT_TRUE(archive.ok()) << archive.status().ToString();
    if (!archive.ok()) return nullptr;
    for (uint32_t shard = 0; shard < 2; ++shard) {
      for (int i = 0;; ++i) {
        tenants_[shard] = "tenant" + std::to_string(i);
        if ((*archive)->ShardIdFor(tenants_[shard]) == shard) break;
      }
      Status applied =
          (*archive)->Apply(tenants_[shard], TenantProgram(shard));
      EXPECT_TRUE(applied.ok()) << applied.ToString();
    }
    EXPECT_TRUE((*archive)->Apply(tenants_[0], kArchiveRule).ok());
    return std::move(*archive);
  }

  std::unique_ptr<Server> StartServer(ShardedArchive* archive,
                                      ServerOptions options) {
    auto server = std::make_unique<Server>(archive, std::move(options));
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  std::unique_ptr<Server> StartServer(ServerOptions options) {
    auto server = std::make_unique<Server>(&db_, std::move(options));
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_NE(server->port(), 0);
    Status seeded = server->snapshots()->Apply(kSeedProgram);
    EXPECT_TRUE(seeded.ok()) << seeded.ToString();
    return server;
  }

  Client MakeClient(const Server& server) {
    Client::Options options;
    options.port = server.port();
    return Client(options);
  }

  VideoDatabase db_;
  std::string tenants_[2];
  std::vector<std::string> archive_roots_;
};

TEST_F(ServerTest, QueryStatementPingRoundTrip) {
  auto server = StartServer({});
  Client client = MakeClient(*server);

  auto pong = client.Ping("hello");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE((*pong).ok());
  EXPECT_EQ(pong->body, "hello");

  auto answer = client.Query("?- p(X, Y).");
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE((*answer).ok()) << answer->body;
  EXPECT_NE(answer->body.find("a, b"), std::string::npos);
  EXPECT_NE(answer->body.find("b, c"), std::string::npos);

  auto write = client.Statement("object d { }. e(c, d).");
  ASSERT_TRUE(write.ok());
  EXPECT_TRUE((*write).ok()) << write->body;

  auto after = client.Query("?- p(X, Y).");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->body.find("c, d"), std::string::npos);

  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);
}

TEST_F(ServerTest, ParseAndSemanticErrorsAreStructured) {
  auto server = StartServer({});
  Client client = MakeClient(*server);

  auto bad = client.Query("?- p(X.");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, StatusCode::kParseError) << bad->body;

  auto bad_write = client.Statement("?- p(X, Y).");  // query on write path
  ASSERT_TRUE(bad_write.ok());
  EXPECT_FALSE((*bad_write).ok());

  server->Shutdown();
  EXPECT_EQ(server->stats().admitted_dropped, 0u);
}

TEST_F(ServerTest, DeadlinePropagatesIntoTheEngine) {
  ServerOptions options;
  options.max_deadline_ms = 50;  // clamp every budget down hard
  auto server = StartServer(options);
  // A recursive query over a denser graph so the clamp has something to cut
  // short; correctness here is "a structured answer or DeadlineExceeded,
  // never a hang" — the call itself is the assertion.
  Client client = MakeClient(*server);
  std::string widen;
  for (int i = 0; i < 12; ++i) {
    std::string s = "n" + std::to_string(i);
    widen += "object " + s + " { }. e(b, " + s + "). e(" + s + ", a). ";
  }
  ASSERT_TRUE(client.Statement(widen).ok());

  auto answer = client.Query("?- path(X, Y).", /*deadline_ms=*/40);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->status == StatusCode::kOk ||
              answer->status == StatusCode::kDeadlineExceeded)
      << static_cast<int>(answer->status) << " " << answer->body;
  server->Shutdown();
}

TEST_F(ServerTest, OverloadShedsWithStructuredStatusNotSilence) {
  ServerOptions options;
  options.gate.max_concurrent = 1;
  options.gate.max_queued = 1;
  options.gate.queue_timeout = std::chrono::milliseconds(1);
  options.worker_threads = 2;
  auto server = StartServer(options);

  std::atomic<int> ok{0}, overloaded{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      Client client = MakeClient(*server);
      for (int i = 0; i < 10; ++i) {
        auto answer = client.Query("?- path(X, Y).");
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        if ((*answer).ok()) {
          ++ok;
        } else if (answer->status == StatusCode::kOverloaded) {
          ++overloaded;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(other.load(), 0);
  server->Shutdown();
  // Every request either got its answer or a structured shed; none vanished.
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);
  EXPECT_EQ(ok.load() + overloaded.load(),
            static_cast<int>(stats.admitted + stats.shed));
}

TEST_F(ServerTest, DrainShedsNewWorkFinishesOldWork) {
  auto server = StartServer({});
  Client client = MakeClient(*server);
  ASSERT_TRUE(client.Ping().ok());

  server->RequestShutdown();
  ASSERT_TRUE(server->shutdown_requested());
  server->Shutdown();

  // A fresh request after the drain must fail at the transport (refused /
  // closed), not hang.
  auto late = client.Query("?- p(X, Y).");
  EXPECT_FALSE(late.ok());

  std::string summary = server->DrainSummary();
  EXPECT_NE(summary.find("dropped=0"), std::string::npos) << summary;
  EXPECT_NE(summary.find("unflushed="), std::string::npos) << summary;
}

TEST_F(ServerTest, GarbageBytesCloseTheConnectionOnly) {
  auto server = StartServer({});

  // A garbage stream must be rejected without disturbing a well-behaved
  // neighbour on the same server.
  Client good = MakeClient(*server);
  ASSERT_TRUE(good.Ping().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Request request;
  request.text = "?- p(X, Y).";
  std::string frame = EncodeRequest(request);
  frame[0] = 'X';  // corrupt the magic: unrecoverable stream
  ASSERT_GT(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL), 0);
  // The server must close this connection (read returns 0), not hang.
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  uint64_t before = server->stats().protocol_errors;
  EXPECT_GT(before, 0u);
  auto answer = good.Query("?- p(X, Y).");
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE((*answer).ok());
  server->Shutdown();
}

TEST_F(ServerTest, AdminPlaneIsGatedByOption) {
  auto server = StartServer({});  // enable_admin defaults to false
  Client client = MakeClient(*server);
  auto refused = client.Admin("epoch");
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE((*refused).ok());
  server->Shutdown();

  ServerOptions options;
  options.enable_admin = true;
  VideoDatabase admin_db;
  Server admin_server(&admin_db, options);
  ASSERT_TRUE(admin_server.Start().ok());
  Client::Options copts;
  copts.port = admin_server.port();
  Client admin_client{copts};
  auto allowed = admin_client.Admin("epoch");
  ASSERT_TRUE(allowed.ok());
  EXPECT_TRUE((*allowed).ok()) << allowed->body;
  admin_server.Shutdown();
}

TEST_F(ServerTest, AdminDrainTriggersRemoteShutdown) {
  ServerOptions options;
  options.enable_admin = true;
  auto server = StartServer(options);
  Client client = MakeClient(*server);
  auto response = client.Admin("drain");
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE((*response).ok());
  // The wait must return promptly now that the drain was requested.
  server->WaitUntilShutdownAndDrain();
  EXPECT_NE(server->DrainSummary().find("dropped=0"), std::string::npos);
}

TEST_F(ServerTest, HealthzAndMetricsOverHttp) {
  auto server = StartServer({});
  Client client = MakeClient(*server);
  ASSERT_TRUE(client.Ping().ok());

  auto health = HttpGet("127.0.0.1", server->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(*health, &doc, &error)) << error << *health;
  ASSERT_NE(doc.Find("status"), nullptr);
  EXPECT_EQ(doc.Find("status")->string_value, "ok");
  ASSERT_NE(doc.Find("mode"), nullptr);
  EXPECT_EQ(doc.Find("mode")->string_value, "single");
  ASSERT_NE(doc.Find("draining"), nullptr);
  EXPECT_FALSE(doc.Find("draining")->bool_value);
  ASSERT_NE(doc.Find("epoch"), nullptr);
  EXPECT_TRUE(doc.Find("epoch")->is_number());

  auto metrics = HttpGet("127.0.0.1", server->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("vqldb_server_requests_total"), std::string::npos);

  // Snapshot builds are counted live, not only once the server shuts down:
  // a statement followed by a query builds one generation, and the next
  // scrape shows it.
  const int64_t built_before =
      CounterIn(*metrics, "vqldb_server_snapshots_built_total");
  ASSERT_GE(built_before, 0);
  auto write = client.Statement("object d { }. e(c, d).");
  ASSERT_TRUE(write.ok());
  EXPECT_TRUE((*write).ok()) << write->body;
  auto read = client.Query("?- p(X, Y).");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE((*read).ok()) << read->body;
  auto after = HttpGet("127.0.0.1", server->port(), "/metrics");
  ASSERT_TRUE(after.ok());
  const int64_t built_after =
      CounterIn(*after, "vqldb_server_snapshots_built_total");
  EXPECT_GT(built_after, 0);
  EXPECT_GT(built_after, built_before);

  // Request latency is observed in fractional milliseconds, so cached
  // reads that each take well under a millisecond still add to the sum.
  const double sum_before = SampleIn(*after, "vqldb_server_request_ms_sum");
  const double count_before =
      SampleIn(*after, "vqldb_server_request_ms_count");
  ASSERT_GE(sum_before, 0);
  for (int i = 0; i < 20; ++i) {
    auto hit = client.Query("?- p(X, Y).");
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE((*hit).ok()) << hit->body;
  }
  auto timed = HttpGet("127.0.0.1", server->port(), "/metrics");
  ASSERT_TRUE(timed.ok());
  EXPECT_GE(SampleIn(*timed, "vqldb_server_request_ms_count"),
            count_before + 20);
  EXPECT_GT(SampleIn(*timed, "vqldb_server_request_ms_sum"), sum_before);

  int status = 0;
  auto missing =
      HttpGet("127.0.0.1", server->port(), "/nope", 10'000, &status);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(status, 404);
  server->Shutdown();
}

TEST_F(ServerTest, HttpQueryEndpointMapsStatuses) {
  auto server = StartServer({});
  // POST /query via the raw HTTP helper: HttpGet only GETs, so use a
  // hand-rolled client connection.
  Client::Options copts;
  copts.port = server->port();

  // GETting /query is a method error -> 405, not a crash.
  int status = 0;
  auto wrong =
      HttpGet("127.0.0.1", server->port(), "/query", 10'000, &status);
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(status, 405);
  server->Shutdown();
}

TEST_F(ServerTest, InjectedFaultsNeverBreakTheLedger) {
  ServerOptions options;
  options.faults.seed = 99;
  options.faults.torn_response_p = 0.2;
  options.faults.disconnect_p = 0.2;
  auto server = StartServer(options);

  int transport_errors = 0;
  for (int i = 0; i < 60; ++i) {
    Client client = MakeClient(*server);
    auto answer = client.Query("?- p(X, Y).");
    if (!answer.ok()) {
      ++transport_errors;
      EXPECT_TRUE(answer.status().IsIOError() ||
                  answer.status().IsUnavailable() ||
                  answer.status().IsCorruption())
          << answer.status().ToString();
    }
  }
  EXPECT_GT(transport_errors, 0);  // the schedule must actually fire

  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);
  EXPECT_GT(stats.injected_torn + stats.injected_disconnects, 0u);
}

TEST_F(ServerTest, ArchiveModeServesTenantsAndSurvivesShardKill) {
  std::string root =
      ::testing::TempDir() + "/server_archive_" +
      std::to_string(::getpid());
  ShardedArchive::Options aopts;
  aopts.shard_count = 2;
  auto archive = ShardedArchive::Open(root, std::move(aopts));
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  ASSERT_TRUE((*archive)
                  ->Apply("alpha", "object a { }. object b { }. e(a, b).")
                  .ok());

  ServerOptions options;
  options.enable_admin = true;
  Server server(archive->get(), options);
  ASSERT_TRUE(server.Start().ok());

  Client::Options copts;
  copts.port = server.port();
  Client client(copts);

  auto write = client.Statement("@tenant:alpha object c { }. e(b, c).");
  ASSERT_TRUE(write.ok());
  EXPECT_TRUE((*write).ok()) << write->body;

  auto answer = client.Query("?- e(X, Y).");
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE((*answer).ok()) << answer->body;

  // Kill a shard: strict queries degrade structurally, partial-tolerant
  // queries come back flagged PARTIAL.
  auto killed = client.Admin("shard kill 0");
  ASSERT_TRUE(killed.ok());
  EXPECT_TRUE((*killed).ok()) << killed->body;

  auto strict = client.Query("?- e(X, Y).");
  ASSERT_TRUE(strict.ok());
  auto partial = client.Query("?- e(X, Y).", 0, /*allow_partial=*/true);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE((*partial).ok() || !(*strict).ok());
  if ((*partial).ok() && !(*strict).ok()) {
    EXPECT_TRUE(partial->partial());
  }

  auto recovered = client.Admin("shard recover 0");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered).ok()) << recovered->body;
  auto healed = client.Query("?- e(X, Y).");
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE((*healed).ok()) << healed->body;

  server.Shutdown();
  EXPECT_EQ(server.stats().admitted_dropped, 0u);
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

TEST_F(ServerTest, ArchiveLookupsCompleteOnTheIoThread) {
  auto archive = OpenArchive("lookups");
  ASSERT_NE(archive, nullptr);
  auto server = StartServer(archive.get(), {});
  Client client = MakeClient(*server);
  const uint64_t hits = CounterValue("vqldb_query_cache_hits_total");
  const uint64_t misses = CounterValue("vqldb_query_cache_misses_total");
  const uint64_t recorded = RecordedCount("seg(?, $0)");

  // a0 resolves only on shard 0, so each lookup targets that shard alone.
  auto first = client.Query("?- seg(a0, Y).");    // a miss: a worker answers
  auto second = client.Query("?- seg(a0, Y).");   // a hit, on the IO thread
  auto renamed = client.Query("?- seg(a0, Z).");  // the same entry, own header
  ASSERT_TRUE(first.ok() && second.ok() && renamed.ok());
  ASSERT_TRUE((*first).ok()) << first->body;
  ASSERT_TRUE((*second).ok()) << second->body;
  ASSERT_TRUE((*renamed).ok()) << renamed->body;
  EXPECT_EQ(first->body, "(2 answers) [Y]\n  b0\n  c0\n");
  EXPECT_EQ(second->body, first->body);
  EXPECT_FALSE(second->partial());
  EXPECT_EQ(renamed->body.rfind("(2 answers) [Z]\n", 0), 0u) << renamed->body;
  EXPECT_EQ(renamed->body.substr(renamed->body.find('\n')),
            first->body.substr(first->body.find('\n')));

  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.inline_hits, 2u);
  EXPECT_EQ(CounterValue("vqldb_query_cache_hits_total"), hits + 2);
  EXPECT_EQ(CounterValue("vqldb_query_cache_misses_total"), misses + 1);
  EXPECT_EQ(RecordedCount("seg(?, $0)"), recorded + 3);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);

  // The archive itself scatters to the same bytes.
  auto scattered = archive->Query("?- seg(a0, Y).");
  ASSERT_TRUE(scattered.ok()) << scattered.status();
  EXPECT_EQ(scattered->ToString(), first->body);
}

TEST_F(ServerTest, ArchiveScansMissesAndNonBinaryReadsGoToWorkers) {
  auto archive = OpenArchive("workers");
  ASSERT_NE(archive, nullptr);
  auto server = StartServer(archive.get(), {});
  Client client = MakeClient(*server);

  const std::string lookup = "?- seg(a0, Y).";
  ASSERT_TRUE(client.Query(lookup).ok());  // a worker fills shard 0's cache
  auto warm = client.Query(lookup);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(server->stats().inline_hits, 1u);

  // A write invalidates shard 0's cache: the next lookup goes to a worker
  // and sees the write; the one after completes inline again.
  auto write = client.Statement("@tenant:" + tenants_[0] + " seg(a0, w1).");
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE((*write).ok()) << write->body;
  auto after = client.Query(lookup);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE((*after).ok()) << after->body;
  EXPECT_EQ(after->body, "(3 answers) [Y]\n  b0\n  c0\n  w1\n");
  EXPECT_EQ(server->stats().inline_hits, 1u);
  auto again = client.Query(lookup);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->body, after->body);
  EXPECT_EQ(server->stats().inline_hits, 2u);

  // A scan merges two shards, even when both hold its answer.
  for (int ask = 0; ask < 3; ++ask) {
    auto scan = client.Query("?- seg(X, Y).");
    ASSERT_TRUE(scan.ok());
    ASSERT_TRUE((*scan).ok()) << scan->body;
    EXPECT_EQ(scan->body.rfind("(7 answers) [X, Y]\n", 0), 0u) << scan->body;
  }
  // EXPLAIN, system goals and HTTP /query, of goals whose answer is cached.
  auto explain = client.Query("explain " + lookup);
  ASSERT_TRUE(explain.ok());
  ASSERT_TRUE((*explain).ok()) << explain->body;
  EXPECT_EQ(explain->body.rfind("sharded archive:", 0), 0u) << explain->body;
  for (int ask = 0; ask < 2; ++ask) {
    auto sys = client.Query("?- sys_shards(S, St, F, R, D, Rec, E).");
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys).ok()) << sys->body;
    EXPECT_EQ(sys->body.rfind("(2 answers)", 0), 0u) << sys->body;
  }
  const std::string http = HttpPost(server->port(), "/query", lookup);
  EXPECT_EQ(http.rfind("HTTP/1.1 200", 0), 0u) << http;
  EXPECT_EQ(http.substr(http.size() - after->body.size()), after->body)
      << http;

  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.inline_hits, 2u);
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);
}

TEST_F(ServerTest, ArchiveReadsGoToWorkersWhileAShardIsDown) {
  auto archive = OpenArchive("down");
  ASSERT_NE(archive, nullptr);
  ServerOptions options;
  options.enable_admin = true;
  auto server = StartServer(archive.get(), options);
  Client client = MakeClient(*server);

  const std::vector<std::string> lookups = {"?- seg(a0, Y).",
                                            "?- seg(a1, Y)."};
  std::vector<std::string> complete;
  for (const std::string& lookup : lookups) {
    auto miss = client.Query(lookup);
    auto hit = client.Query(lookup);
    ASSERT_TRUE(miss.ok() && hit.ok());
    ASSERT_TRUE((*hit).ok()) << hit->body;
    EXPECT_EQ(hit->body, miss->body);
    complete.push_back(hit->body);
  }
  EXPECT_EQ(server->stats().inline_hits, 2u);

  // No shard 9: refused, and the request is still answered exactly once.
  auto no_such = client.Admin("shard kill 9");
  ASSERT_TRUE(no_such.ok());
  EXPECT_EQ(no_such->status, StatusCode::kInvalidArgument) << no_such->body;
  auto killed = client.Admin("shard kill 0");
  ASSERT_TRUE(killed.ok());
  ASSERT_TRUE((*killed).ok()) << killed->body;
  // Every read goes to a worker now, even one whose shard is up and holds
  // its answer: strict reads fail, partial ones say what is missing.
  for (const std::string& lookup : lookups) {
    SCOPED_TRACE(lookup);
    auto strict = client.Query(lookup);
    ASSERT_TRUE(strict.ok());
    EXPECT_EQ(strict->status, StatusCode::kUnavailable) << strict->body;
    auto partial = client.Query(lookup, 0, /*allow_partial=*/true);
    ASSERT_TRUE(partial.ok());
    ASSERT_TRUE((*partial).ok()) << partial->body;
    EXPECT_TRUE(partial->partial());
    EXPECT_NE(partial->body.find(" PARTIAL\n"), std::string::npos)
        << partial->body;
    EXPECT_NE(partial->body.find("missing shard 0 [failed]"),
              std::string::npos)
        << partial->body;
  }
  EXPECT_EQ(server->stats().inline_hits, 2u);

  auto recovered = client.Admin("shard recover 0");
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE((*recovered).ok()) << recovered->body;
  // Shard 1 kept its cached answer; the recovered shard 0 starts cold.
  auto healed1 = client.Query(lookups[1]);
  ASSERT_TRUE(healed1.ok());
  EXPECT_EQ(healed1->body, complete[1]);
  EXPECT_EQ(server->stats().inline_hits, 3u);
  auto cold0 = client.Query(lookups[0]);
  auto healed0 = client.Query(lookups[0]);
  ASSERT_TRUE(cold0.ok() && healed0.ok());
  EXPECT_EQ(cold0->body, complete[0]);
  EXPECT_EQ(healed0->body, complete[0]);
  EXPECT_EQ(server->stats().inline_hits, 4u);

  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);
}

TEST_F(ServerTest, ArchiveMixedHitsMissesWritesAndRecoveryAgree) {
  // Write k adds seg(c<k % 2>, wk) to tenant k % 2: one fact, so a write
  // refused while its shard is down is retried whole.
  constexpr int kWrites = 12;
  auto fact = [](int k) {
    return "seg(c" + std::to_string(k % 2) + ", w" + std::to_string(k) + ").";
  };
  const std::vector<std::string> goals = {
      // hot: lookups of each tenant, asked over and over
      "?- seg(a0, Y).", "?- near(a1, Y).",
      // cold: lookups that writes change, and scans
      "?- seg(c0, Y).", "?- near(c1, Y).", "?- near(X, c1).",
      "?- seg(X, Y).", "?- near(b0, Y)."};
  constexpr size_t kHot = 2;

  auto archive = OpenArchive("mixed");
  ASSERT_NE(archive, nullptr);
  // expected[k][g]: goal g after the first k writes, from a serial archive.
  std::vector<std::vector<std::string>> expected;
  {
    auto serial = OpenArchive("mixed_serial");
    ASSERT_NE(serial, nullptr);
    for (int k = 0; k <= kWrites; ++k) {
      if (k > 0) {
        ASSERT_TRUE(serial->Apply(tenants_[k % 2], fact(k)).ok());
      }
      std::vector<std::string> answers;
      for (const std::string& goal : goals) {
        auto result = serial->Query(goal);
        ASSERT_TRUE(result.ok()) << result.status();
        answers.push_back(result->ToString());
      }
      expected.push_back(std::move(answers));
    }
  }

  ServerOptions options;
  options.io_threads = 2;
  options.enable_admin = true;
  auto server = StartServer(archive.get(), options);
  std::atomic<int> started{0};  // writes sent
  std::atomic<int> acked{0};    // writes answered
  std::atomic<bool> kill_sent{false};
  std::atomic<bool> recovered{false};
  std::thread writer([&] {
    Client client = MakeClient(*server);
    for (int k = 1; k <= kWrites; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      started.store(k);
      for (;;) {
        auto write =
            client.Statement("@tenant:" + tenants_[k % 2] + " " + fact(k));
        ASSERT_TRUE(write.ok()) << write.status().ToString();
        if ((*write).ok()) break;
        // Refused whole while the shard is down; retried once it is back.
        ASSERT_EQ(write->status, StatusCode::kUnavailable) << write->body;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      acked.store(k);
    }
  });
  std::thread operator_thread([&] {
    Client client = MakeClient(*server);
    while (acked.load() < 3) std::this_thread::yield();
    kill_sent.store(true);
    auto killed = client.Admin("shard kill 0");
    ASSERT_TRUE(killed.ok() && (*killed).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto back = client.Admin("shard recover 0");
    ASSERT_TRUE(back.ok() && (*back).ok());
    recovered.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Client client = MakeClient(*server);
      for (int i = 0; i < 150 || acked.load() < kWrites || !recovered.load();
           ++i) {
        const size_t g =
            i % 4 == 3 ? kHot + static_cast<size_t>(i / 4 + t) %
                                    (goals.size() - kHot)
                       : static_cast<size_t>(i + t) % kHot;
        // The answer holds every write answered before the read was sent,
        // and only writes sent before its answer came back.
        const int lo = acked.load();
        const bool recovered_before = recovered.load();
        auto answer = client.Query(goals[g]);
        const int hi = started.load();
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        if (!(*answer).ok()) {
          // A strict read fails only while shard 0 is down.
          EXPECT_EQ(answer->status, StatusCode::kUnavailable) << answer->body;
          EXPECT_TRUE(kill_sent.load() && !recovered_before) << answer->body;
          continue;
        }
        bool matched = false;
        for (int k = lo; k <= hi && !matched; ++k) {
          matched = answer->body == expected[k][g];
        }
        EXPECT_TRUE(matched) << goals[g] << " between writes " << lo
                             << " and " << hi << ":\n" << answer->body;
      }
    });
  }
  writer.join();
  operator_thread.join();
  for (auto& reader : readers) reader.join();

  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_GT(stats.inline_hits, 0u);
  EXPECT_LT(stats.inline_hits, stats.admitted);
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);
}

TEST_F(ServerTest, CacheHitsCompleteOnTheIoThread) {
  auto server = StartServer({});
  Client client = MakeClient(*server);
  const uint64_t hits = CounterValue("vqldb_query_cache_hits_total");
  const uint64_t misses = CounterValue("vqldb_query_cache_misses_total");
  const uint64_t recorded = RecordedCount("p($0, $1)");

  auto first = client.Query("?- p(X, Y).");    // a miss: a worker answers
  auto second = client.Query("?- p(X, Y).");   // a hit, on the IO thread
  auto renamed = client.Query("?- p(A, B).");  // the same entry, own header
  ASSERT_TRUE(first.ok() && second.ok() && renamed.ok());
  ASSERT_TRUE((*first).ok()) << first->body;
  ASSERT_TRUE((*second).ok()) << second->body;
  ASSERT_TRUE((*renamed).ok()) << renamed->body;
  EXPECT_EQ(second->body, first->body);
  EXPECT_EQ(renamed->body.rfind("(2 answers) [A, B]\n", 0), 0u)
      << renamed->body;
  EXPECT_EQ(renamed->body.substr(renamed->body.find('\n')),
            first->body.substr(first->body.find('\n')));

  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.inline_hits, 2u);
  EXPECT_EQ(CounterValue("vqldb_query_cache_hits_total"), hits + 2);
  EXPECT_EQ(CounterValue("vqldb_query_cache_misses_total"), misses + 1);
  EXPECT_EQ(RecordedCount("p($0, $1)"), recorded + 3);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);
}

TEST_F(ServerTest, StaleGenerationGoesToAWorker) {
  auto server = StartServer({});
  Client client = MakeClient(*server);
  auto before = client.Query("?- p(X, Y).");
  auto warm = client.Query("?- p(X, Y).");
  ASSERT_TRUE(before.ok() && warm.ok());
  EXPECT_EQ(server->stats().inline_hits, 1u);

  auto write = client.Statement("object d { }. e(c, d).");
  ASSERT_TRUE(write.ok());
  EXPECT_TRUE((*write).ok()) << write->body;
  // The generation that holds the cached answer is stale now: the read goes
  // to a worker, which builds the new generation and sees the write.
  auto after = client.Query("?- p(X, Y).");
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE((*after).ok()) << after->body;
  EXPECT_EQ(before->body.find("c, d"), std::string::npos);
  EXPECT_NE(after->body.find("c, d"), std::string::npos) << after->body;
  EXPECT_EQ(server->stats().inline_hits, 1u);

  auto again = client.Query("?- p(X, Y).");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->body, after->body);
  EXPECT_EQ(server->stats().inline_hits, 2u);
  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);
}

TEST_F(ServerTest, ExplainAndSysGoalsStayOnWorkers) {
  auto server = StartServer({});
  Client client = MakeClient(*server);
  auto rule =
      client.Statement("seen(F, C) <- sys_queries(F, C, P, Q, R, S).");
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE((*rule).ok()) << rule->body;
  // Warm the cache with the goal EXPLAIN describes.
  ASSERT_TRUE(client.Query("?- p(X, Y).").ok());

  auto explain = client.Query("explain ?- p(X, Y).");
  auto explain_again = client.Query("explain ?- p(X, Y).");
  ASSERT_TRUE(explain.ok() && explain_again.ok());
  ASSERT_TRUE((*explain).ok()) << explain->body;
  EXPECT_EQ(explain->body.rfind("EXPLAIN ?- p(X, Y).\n", 0), 0u)
      << explain->body;
  EXPECT_NE(explain->body.find("query cache: hit"), std::string::npos)
      << explain->body;
  EXPECT_EQ(explain_again->body, explain->body);

  // System goals, asked directly or through a rule, are evaluated afresh:
  // each repeat counts the query before it.
  for (const char* goal :
       {"?- sys_queries(F, C, P, Q, R, S).", "?- seen(F, C)."}) {
    SCOPED_TRACE(goal);
    auto first = client.Query(goal);
    auto second = client.Query(goal);
    ASSERT_TRUE(first.ok() && second.ok());
    ASSERT_TRUE((*first).ok()) << first->body;
    ASSERT_TRUE((*second).ok()) << second->body;
    EXPECT_NE(second->body, first->body);
  }
  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.inline_hits, 0u);
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
}

TEST_F(ServerTest, MixedHitsMissesAndWritesAgree) {
  // Write k adds one edge, so generation k is the seed plus the first k.
  constexpr int kWrites = 12;
  auto write_text = [](int k) {
    const std::string w = "w" + std::to_string(k);
    return "object " + w + " { }. e(c, " + w + ").";
  };
  const std::vector<std::string> goals = {
      // hot: asked over and over
      "?- p(X, Y).", "?- path(a, Y).",
      // cold: asked now and then
      "?- e(c, Y).", "?- path(X, Y).", "?- p(b, Y).", "?- path(b, Y).",
      "?- e(X, Y)."};
  constexpr size_t kHot = 2;

  // expected[k][g]: goal g over generation k, from one serial session.
  std::vector<std::vector<std::string>> expected;
  {
    VideoDatabase serial_db;
    QuerySession serial(&serial_db);
    ASSERT_TRUE(serial.Load(kSeedProgram).ok());
    for (int k = 0; k <= kWrites; ++k) {
      if (k > 0) ASSERT_TRUE(serial.Load(write_text(k)).ok());
      std::vector<std::string> answers;
      for (const std::string& goal : goals) {
        auto result = serial.Query(goal);
        ASSERT_TRUE(result.ok()) << result.status();
        answers.push_back(result->ToString(&serial_db));
      }
      expected.push_back(std::move(answers));
    }
  }

  ServerOptions options;
  options.io_threads = 2;
  auto server = StartServer(options);
  std::atomic<int> started{0};  // writes sent
  std::atomic<int> acked{0};    // writes answered
  std::thread writer([&] {
    Client client = MakeClient(*server);
    for (int k = 1; k <= kWrites; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      started.store(k);
      auto write = client.Statement(write_text(k));
      ASSERT_TRUE(write.ok()) << write.status().ToString();
      EXPECT_TRUE((*write).ok()) << write->body;
      acked.store(k);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Client client = MakeClient(*server);
      for (int i = 0; i < 200 || acked.load() < kWrites; ++i) {
        const size_t g =
            i % 4 == 3 ? kHot + static_cast<size_t>(i / 4 + t) %
                                    (goals.size() - kHot)
                       : static_cast<size_t>(i + t) % kHot;
        // The read's generation holds every write answered before it was
        // sent, and only writes sent before its answer came back.
        const int lo = acked.load();
        auto answer = client.Query(goals[g]);
        const int hi = started.load();
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        ASSERT_TRUE((*answer).ok()) << answer->body;
        bool matched = false;
        for (int k = lo; k <= hi && !matched; ++k) {
          matched = answer->body == expected[k][g];
        }
        EXPECT_TRUE(matched) << goals[g] << " between generations " << lo
                             << " and " << hi << ":\n" << answer->body;
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();

  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_GT(stats.inline_hits, 0u);
  EXPECT_LT(stats.inline_hits, stats.admitted);
  EXPECT_EQ(stats.admitted, stats.admitted_responded);
  EXPECT_EQ(stats.admitted_dropped, 0u);
}

TEST_F(ServerTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  options.sweep_interval_ms = 20;
  auto server = StartServer(options);

  Client client = MakeClient(*server);
  ASSERT_TRUE(client.Ping().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_GT(server->stats().idle_closed, 0u);
  // The client reconnects transparently on its next call.
  EXPECT_TRUE(client.Ping().ok());
  server->Shutdown();
}

}  // namespace
}  // namespace server
}  // namespace vqldb
