// End-to-end tests of the service layer over real loopback sockets: both
// protocols, admission, deadline propagation, drain, fault tolerance and
// the exactly-one-response ledger.

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

#include "src/obs/json_lite.h"
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

class ServerTest : public ::testing::Test {
 protected:
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
