// The fault-tolerant network service layer: an epoll-based socket server
// speaking the length-prefixed binary protocol (wire.h) plus minimal HTTP
// (/query, /healthz, /metrics), in front of either one VideoDatabase (with
// snapshot-isolated read sessions, snapshot.h) or a ShardedArchive.
//
// Architecture
//   * IO threads: each runs its own epoll loop with its own SO_REUSEPORT
//     listener (thread-per-core accept) and owns its connections outright —
//     no connection is ever touched by two IO threads, so connection state
//     needs no locks. Cross-thread traffic is only the completion queue
//     (worker -> IO thread, guarded + eventfd wakeup), atomics, the
//     snapshot layer's session pool and answer cache, and the archive's
//     shard locks (below).
//   * Cached reads complete on the IO thread, in both modes: a binary query
//     is parsed where it was decoded, and when its answer is cached the IO
//     thread writes the response itself (AnswerFromCache). Single-db: the
//     answer must be cached for the current generation and a free
//     already-built session hands it over. Archive: every shard must be up,
//     constant pruning must leave exactly one shard, that shard's cache
//     must hold the answer, and every shard lock must be free at its
//     try-lock (ShardedArchive::CachedQuery). The IO thread never builds,
//     evaluates or waits for a lock held elsewhere; anything else goes to
//     the workers with the parsed query. A hit evaluates nothing, so it
//     takes no QueryGate slot. EXPLAIN, sys_* goals, HTTP /query, archive
//     scans and any archive read while a shard is down always go to the
//     workers.
//   * Worker pool: requests that need the engine (queries, statements,
//     admin) are executed on a ThreadPool after passing admission:
//     first a cheap server-level intake bound (outstanding requests <=
//     gate slots + gate queue, checked on the IO thread so overload is
//     shed before it ever queues work), then the QueryGate proper.
//   * Deadline propagation: the client's budget (wire deadline_ms or the
//     x-vqldb-deadline-ms header) is clamped by max_deadline_ms, defaulted
//     by default_deadline_ms, and becomes EvalOptions::deadline on the
//     leased snapshot session — the engine's ExecContext polls it.
//   * Exactly-one-response: every decoded request either (a) is answered
//     inline on the IO thread (ping, healthz, shed), (b) is a cached read
//     answered on the IO thread, counted admitted and responded there, or
//     (c) increments `outstanding_`, runs on a worker, and posts exactly
//     one completion.
//     A connection that dies first trips the request's CancelToken; the
//     completion then finds the connection gone and is dropped *after* the
//     response was produced — the admitted/responded ledger still balances.
//   * Graceful drain: RequestShutdown() (async-signal-safe: atomics + an
//     eventfd write) stops the accept path; Shutdown() then sheds new
//     frames with kUnavailable, waits drain_grace_ms for in-flight work,
//     cancels stragglers, flushes write buffers, and joins everything.
//   * Fault injection: FaultOptions arms seeded transport faults — torn
//     response frames, mid-response disconnects, accept-failure bursts —
//     mirroring storage's FaultInjectingEnv so chaos tests can prove the
//     contract (no crash, no hang, one well-formed response or a structured
//     shed per admitted request) under a deterministic schedule.

#ifndef VQLDB_SERVER_SERVER_H_
#define VQLDB_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/budget.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/engine/evaluator.h"
#include "src/engine/query_gate.h"
#include "src/model/database.h"
#include "src/server/http.h"
#include "src/server/snapshot.h"
#include "src/server/wire.h"
#include "src/storage/shard_store.h"

namespace vqldb {
namespace server {

/// Seeded transport fault injection. All probabilities default to 0 (off).
struct FaultOptions {
  uint64_t seed = 0;
  /// P(response frame is torn): only a prefix is written, then the
  /// connection closes. The client must treat the torn frame as an error.
  double torn_response_p = 0;
  /// P(connection closes right before its response is written).
  double disconnect_p = 0;
  /// P(an accepted connection starts an accept-failure burst): this and the
  /// next `accept_burst - 1` accepts are closed immediately.
  double accept_fail_p = 0;
  size_t accept_burst = 8;

  bool enabled() const {
    return torn_response_p > 0 || disconnect_p > 0 || accept_fail_p > 0;
  }
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = pick an ephemeral port; Server::port() reports it

  /// Accept/epoll loops (thread-per-core). Besides the transport, each
  /// answers the cached reads of its connections, so it does most of the
  /// work of a cache-heavy load: add IO threads when one is saturated.
  size_t io_threads = 1;
  /// Engine execution pool: cache misses, writes, EXPLAIN, sys_* goals,
  /// HTTP /query, archive scans, and cached reads the IO thread could not
  /// serve (a stale generation, a busy writer, no free built session, a
  /// busy or failed shard).
  size_t worker_threads = 2;

  /// Admission front door. Slots + queue also bound the server-level
  /// outstanding-request intake (checked on IO threads before submit).
  QueryGate::Options gate;

  /// Deadline policy (milliseconds; 0 = none). The client budget is
  /// clamped to max_deadline_ms when set; a client that sends no budget
  /// gets default_deadline_ms when set.
  uint64_t default_deadline_ms = 0;
  uint64_t max_deadline_ms = 0;

  /// Slowloris defenses. Idle: no *completed* request for this long (a
  /// byte-dribbling client does not count as active). Write stall: the
  /// peer accepts no bytes of a pending response for this long.
  uint64_t idle_timeout_ms = 60'000;
  uint64_t write_stall_timeout_ms = 10'000;
  uint64_t sweep_interval_ms = 1'000;

  /// Drain: how long Shutdown() lets in-flight requests finish before
  /// cancelling them, and how long it waits for write buffers to flush.
  uint64_t drain_grace_ms = 5'000;

  size_t max_connections = 16'384;
  /// Per-connection buffer bound (read + write); beyond it the connection
  /// is closed as a protocol violation / slow consumer.
  size_t max_buffered_bytes_per_conn = kMaxPayloadBytes + (64u << 10);

  /// Snapshot session pool size; 0 = gate.max_concurrent.
  size_t snapshot_sessions = 0;

  /// Admin requests (kAdmin frames, /metrics?dump=) are refused unless on.
  bool enable_admin = false;

  /// When set, connection buffer growth is charged here; a tripped budget
  /// sheds the connection (overload protection under memory pressure).
  std::shared_ptr<ResourceBudget> governor;

  FaultOptions faults;

  /// Seed options for snapshot sessions (strategy, threads, caches).
  EvalOptions eval_options;
};

/// A relaxed-atomic snapshot of the server counters (also exported as
/// vqldb_server_* metrics).
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t active_connections = 0;
  uint64_t requests = 0;           // decoded protocol requests (both kinds)
  uint64_t http_requests = 0;
  uint64_t responses = 0;          // responses appended to a live socket
  uint64_t shed = 0;               // structured sheds (Overloaded/Unavailable)
  uint64_t admitted = 0;           // entered the execution path
  uint64_t admitted_responded = 0; // produced their one response
  uint64_t admitted_dropped = 0;   // contract breach counter — must stay 0
  uint64_t responses_to_dead_conn = 0;
  uint64_t responses_unflushed = 0;
  uint64_t idle_closed = 0;
  uint64_t slow_client_closed = 0;
  uint64_t protocol_errors = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t injected_torn = 0;
  uint64_t injected_disconnects = 0;
  uint64_t injected_accept_rejects = 0;
  uint64_t inline_hits = 0;        // cached reads answered on the IO thread
};

class Server {
 public:
  /// Single-database mode: reads are snapshot-isolated via SnapshotManager;
  /// statements mutate the live db. `db` must outlive the server.
  Server(VideoDatabase* db, ServerOptions options);
  /// Archive mode: queries/statements scatter over the tenant shards,
  /// concurrently: the server holds no lock of its own around the archive.
  /// Statements may target a tenant with a leading "@tenant:<name>" line.
  Server(ShardedArchive* archive, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts IO + worker threads.
  Status Start();

  /// Async-signal-safe shutdown request (atomics + an eventfd write, both
  /// safe inside a handler): the accept path stops and new requests are
  /// shed. Shutdown() (or WaitUntilShutdownAndDrain) completes the drain.
  void RequestShutdown();

  /// Full graceful drain; idempotent; joins all threads.
  void Shutdown();

  /// Blocks until RequestShutdown() is called (by a signal handler or an
  /// admin request), then runs Shutdown().
  void WaitUntilShutdownAndDrain();

  uint16_t port() const { return port_; }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  ServerStats stats() const;
  /// "admitted=N responded=N shed=N dropped=0 unflushed=0" — the drain
  /// contract line the smoke test asserts on.
  std::string DrainSummary() const;
  /// The /healthz JSON document.
  std::string HealthzJson() const;

  SnapshotManager* snapshots() { return snapshots_.get(); }

 private:
  struct Conn;
  struct IoLoop;
  struct RequestCtx;
  struct Completion;

  Server(VideoDatabase* db, ShardedArchive* archive, ServerOptions options);

  // ---- IO-thread side -----------------------------------------------------
  void IoThreadMain(IoLoop* loop);
  void HandleAccept(IoLoop* loop);
  void HandleReadable(IoLoop* loop, Conn* conn);
  void HandleWritable(IoLoop* loop, Conn* conn);
  void ParseConn(IoLoop* loop, Conn* conn);
  bool ParseBinary(IoLoop* loop, Conn* conn);  // false = conn destroyed
  bool ParseHttp(IoLoop* loop, Conn* conn);
  /// One decoded request: ping, a draining server and a full intake are
  /// answered inline; a query other than EXPLAIN is parsed here, in either
  /// mode, and a binary one whose answer is cached completes through
  /// AnswerFromCache; everything else goes to a worker, parsed.
  void HandleRequest(IoLoop* loop, Conn* conn, Request request, bool http);
  /// Writes the answer to a parsed read from this IO thread when it is
  /// cached: for the current generation (single-db), or in the one shard
  /// the goal targets (archive); false, having done nothing, when the read
  /// must go to a worker. Takes no lock that can block: the archive's shard
  /// locks only by try-lock.
  bool AnswerFromCache(IoLoop* loop, Conn* conn, const Query& query,
                       uint64_t parse_us);
  /// Hands a request's response to its live connection: seeded transport
  /// faults first, then QueueWrite. Completions and inline hits both write
  /// through here. May close (destroy) *conn.
  void WriteResponse(IoLoop* loop, Conn* conn, std::string bytes,
                     bool close_after);
  void RespondInline(IoLoop* loop, Conn* conn, const Response& response,
                     bool http, bool close_after);
  void QueueWrite(IoLoop* loop, Conn* conn, std::string bytes,
                  bool close_after);
  void CloseConn(IoLoop* loop, Conn* conn, const char* why);
  void DrainCompletions(IoLoop* loop);
  void SweepTimeouts(IoLoop* loop);
  bool ChargeConnBuffers(Conn* conn);
  bool UpdateEpoll(IoLoop* loop, Conn* conn);

  // ---- worker side --------------------------------------------------------
  void ExecuteRequest(std::shared_ptr<RequestCtx> ctx);
  Response ExecuteQuery(RequestCtx* ctx);
  Response ExecuteStatement(RequestCtx* ctx);
  Response ExecuteAdmin(RequestCtx* ctx);
  void PostCompletion(std::shared_ptr<RequestCtx> ctx, Response response);

  // ---- HTTP endpoints (IO thread) -----------------------------------------
  void HandleHttpRequest(IoLoop* loop, Conn* conn, const HttpRequest& req);
  /// The Prometheus text of /metrics and metrics-dump, rendered once after
  /// SyncSnapshotMetric().
  std::string MetricsText();
  /// Adds the snapshot builds made since the last sync to
  /// vqldb_server_snapshots_built_total.
  void SyncSnapshotMetric();

  void RegisterMetrics();
  uint64_t NowMs() const;

  VideoDatabase* const db_ = nullptr;          // single-db mode
  ShardedArchive* const archive_ = nullptr;    // archive mode
  const ServerOptions options_;

  std::unique_ptr<SnapshotManager> snapshots_;  // single-db mode only
  std::mutex snapshot_metric_mu_;
  uint64_t snapshots_published_ = 0;  // builds already counted; guarded above

  std::shared_ptr<QueryGate> gate_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::vector<std::thread> io_threads_;

  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> shut_down_{false};

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint64_t> outstanding_{0};  // requests submitted, not yet posted

  // Counters (see ServerStats).
  std::atomic<uint64_t> accepted_{0}, active_{0}, requests_{0},
      http_requests_{0}, responses_{0}, shed_{0}, admitted_{0},
      admitted_responded_{0}, admitted_dropped_{0}, dead_conn_responses_{0},
      unflushed_{0}, idle_closed_{0}, slow_closed_{0}, protocol_errors_{0},
      bytes_read_{0}, bytes_written_{0}, injected_torn_{0},
      injected_disconnects_{0}, injected_accept_rejects_{0}, inline_hits_{0};

  // Cached metric pointers (registered once in RegisterMetrics).
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;
};

}  // namespace server
}  // namespace vqldb

#endif  // VQLDB_SERVER_SERVER_H_
