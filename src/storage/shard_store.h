// ShardedArchive: a video archive partitioned by tenant into independent
// shards, each with its own snapshot + journal pair, its own recovery, and
// its own health — so one tenant's torn journal or lost directory degrades
// one shard, not the archive.
//
// Layout under the archive root:
//   MANIFEST                      - ShardManifest (shard_manifest.h)
//   shard_<id>/snapshot-<gen>.vqdb
//   shard_<id>/journal-<gen>.wal
//
// Routing: a statement is applied under a tenant key; ShardIdFor(tenant)
// hashes the key to a shard, so all of one tenant's declarations and facts
// live together. Symbols are shard-local — two tenants may both declare
// `o1` and never collide, because they can never share a shard... unless
// they hash together, in which case they share a symbol namespace (callers
// that need hard isolation use distinct symbol prefixes). Proper rules are
// archive-wide: they are held once and installed into every shard's
// session, and are not journaled (rules belong to programs, not the data
// log — exactly the Journal::Append contract).
//
// Journal rotation (the fix for unbounded journal growth) is a
// generation-numbered commit protocol; the manifest's generation per shard
// is the single commit point:
//   1. write snapshot-(G+1).vqdb        (atomic: tmp + fsync + rename + dirsync)
//   2. create empty journal-(G+1).wal   (+ directory fsync)
//   3. commit: manifest generation = G+1 (atomic manifest save)
//   4. garbage-collect generation-G files (best-effort)
// A crash before 3 recovers from generation G with the old journal intact;
// a crash after 3 recovers from the fresh snapshot + empty journal. The old
// journal is never touched until the manifest commit has landed.
//
// Shard health state machine:
//
//   kRecovering --success--> kHealthy      (journal reopened, writable)
//        |        \--journal unopenable--> kDegraded (readonly, answers)
//        |--retries exhausted--> kFailed   (isolated: no answers, no writes)
//
// Recovery runs per shard on a ThreadPool, each shard retrying with seeded
// jittered exponential backoff (src/common/backoff.h). A failed shard is
// isolated: queries either fail with Status::Unavailable (strict mode) or,
// when the caller opts into partial answers, the merged result is marked
// partial and carries a per-shard completeness report — never a silently
// complete answer.
//
// Scatter-gather queries: the goal is pruned against each shard (a shard
// that cannot resolve one of the goal's constant symbols cannot hold a
// matching fact) and evaluated on every surviving shard's session. Each
// shard answers rendered to display strings — shard-side, because oids are
// shard-local — in merge order: by cell tuple, adjacent equal rows
// dropped, as the shard's query-cache entry keeps it (RowOrder::kCells), so
// a repeated goal renders and sorts nothing. One shard's answer is the
// merged answer, shared with its cache entry, with no row compared or
// copied; two or more are merged a block at a time (MergeRuns). The merged
// answer is the one sorting and deduplicating every rendered row would
// give: deterministic regardless of shard count or recovery order.
//
// Concurrency: the archive has no lock of its own around reads. A shard's
// serving state (database, session, journal) is guarded by that shard's
// mutex, and every shard session is used only under it, so scatters,
// writes, recovery, kills and rotations run concurrently and meet only on
// the shards they share, one shard lock at a time. Shard health is an
// atomic read without any lock. A scatter's counts (targeted, answered,
// pruned, partial) travel in its result, not in archive state.
// CachedQuery() is the non-blocking read: it takes shard locks only by
// try-lock and answers only a goal pruned to one shard whose cache holds
// the answer, so the server's IO thread may call it.

#ifndef VQLDB_STORAGE_SHARD_STORE_H_
#define VQLDB_STORAGE_SHARD_STORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/result.h"
#include "src/engine/query.h"
#include "src/engine/sysrel.h"
#include "src/model/database.h"
#include "src/storage/io_env.h"
#include "src/storage/journal.h"
#include "src/storage/shard_manifest.h"

namespace vqldb {

/// Stable tenant-routing hash (FNV-1a folded through a splitmix64
/// finalizer); exposed so tests and the crash harness can predict routing.
uint64_t TenantHash(const std::string& tenant);

/// Merges `runs` of `columns` cells, each in merge order (RowOrder::kCells),
/// into one run in merge order: the rows std::sort + std::unique over their
/// cell vectors would give (cells, not joined lines: "a" and "a b" order
/// differently once ", " follows them). A single run is returned itself;
/// otherwise each step appends, as one byte range, the least run's rows
/// below the second-least run's head.
std::shared_ptr<const RenderedRows> MergeRuns(
    const std::vector<std::shared_ptr<const RenderedRows>>& runs,
    size_t columns);

class ShardedArchive {
 public:
  enum class ShardState {
    kHealthy = 0,    // recovered, journal open, accepts writes
    kRecovering = 1, // recovery in progress (possibly on another thread)
    kDegraded = 2,   // recovered but journal unopenable: answers, no writes
    kFailed = 3,     // recovery exhausted or killed: isolated
  };
  static const char* ShardStateName(ShardState s);

  struct Options {
    /// Shard count for a freshly created archive. Ignored when the root
    /// already has a manifest (the manifest wins).
    size_t shard_count = 4;
    /// IO environment (not owned); nullptr = Env::Default(). All shard IO
    /// flows through it, so FaultOptions::path_substring can target one
    /// shard's files.
    Env* env = nullptr;
    /// Durability of per-shard journals.
    Journal::Durability durability = Journal::Durability::kFsync;
    /// Retry schedule for shard recovery. max_attempts bounds the retries
    /// after the first attempt.
    BackoffOptions backoff;
    /// Whether to actually sleep the backoff delay between retries (tests
    /// with fault schedules keep this on with millisecond delays).
    bool sleep_between_retries = true;
    /// Workers for parallel recovery (clamped to at least 1).
    size_t recovery_threads = 4;
    /// When set, Open() returns without recovering any shard (all shards
    /// report kRecovering); the caller drives RecoverAll()/RecoverShard().
    /// The crash harness uses this to query healthy shards while a victim
    /// shard is still recovering.
    bool defer_recovery = false;
    /// Test hook invoked at the start of every per-shard recovery attempt
    /// (on the recovering thread). A blocking hook holds that shard in
    /// kRecovering while the rest of the archive serves.
    std::function<void(uint32_t shard_id)> recovery_hook;
    /// Evaluation options for every shard's session.
    EvalOptions eval_options;
  };

  struct QueryOptions {
    /// Strict mode (default): any targeted-but-unavailable shard fails the
    /// whole query with Status::Unavailable — detected by a health pre-scan
    /// before any shard session runs. Opt-in partial mode: the query answers
    /// from the shards that can, and the result is marked partial with a
    /// per-shard report.
    bool allow_partial = false;

    /// Per-request execution overrides from the service layer, applied to
    /// each shard session for the duration of the scatter (saved and
    /// restored under the shard lock): deadline propagation and cooperative
    /// cancellation. Unset members leave the session's own options alone.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::shared_ptr<CancelToken> cancel;
  };

  /// One shard's contribution to (or absence from) a scatter-gather answer.
  struct ShardReport {
    uint32_t shard_id = 0;
    std::string state;   // state name at query time
    bool pruned = false;    // skipped: cannot hold matching facts
    bool answered = false;  // contributed an answer set
    size_t rows = 0;        // rows contributed (pre-merge)
    std::string error;      // why the shard did not answer
  };

  /// A merged scatter-gather answer. Rows are rendered to display strings
  /// (oids print as their shard-local symbols), ordered by cell tuple and
  /// deduplicated.
  struct ArchiveQueryResult {
    std::vector<std::string> columns;
    /// The merged rows, one line each; never null. One shard's answer is
    /// its cache entry's rows, shared.
    std::shared_ptr<const RenderedRows> rendered;
    bool partial = false;  // some targeted shard could not answer
    size_t shards_targeted = 0;
    size_t shards_answered = 0;
    size_t shards_pruned = 0;
    std::vector<ShardReport> reports;  // one per shard, by shard_id

    size_t size() const { return rendered->rows(); }
    bool empty() const { return size() == 0; }
    /// The merged rows decoded into their cells.
    std::vector<std::vector<std::string>> rows() const;
    /// Tabular rendering plus, for partial answers, the completeness report.
    std::string ToString() const;
  };

  /// Opens (creating if needed) the sharded archive at `root` and recovers
  /// every shard in parallel (unless defer_recovery). Open itself fails
  /// only on root-level problems — unreadable/corrupt manifest, uncreatable
  /// directories; per-shard recovery failures isolate the shard instead.
  static Result<std::unique_ptr<ShardedArchive>> Open(const std::string& root,
                                                      Options options);
  static Result<std::unique_ptr<ShardedArchive>> Open(const std::string& root);

  ~ShardedArchive();
  ShardedArchive(const ShardedArchive&) = delete;
  ShardedArchive& operator=(const ShardedArchive&) = delete;

  // ------------------------------------------------------------- topology

  size_t shard_count() const { return shards_.size(); }
  const std::string& root() const { return root_; }
  uint32_t ShardIdFor(const std::string& tenant) const;
  ShardState shard_state(uint32_t shard_id) const;
  uint64_t shard_generation(uint32_t shard_id) const;
  /// The last recovery's replay report for a shard (zeroes before first).
  RecoveryReport shard_recovery_report(uint32_t shard_id) const;
  /// Direct shard database access for tests/harnesses; nullptr while the
  /// shard is unavailable. Not synchronized against concurrent recovery.
  VideoDatabase* shard_db(uint32_t shard_id);
  /// One sys_shards row per shard (the session provider's source).
  std::vector<ShardInfoRow> ShardInfo() const;

  // ------------------------------------------------------------- mutation

  /// Parses `statement_text` (one or more statements) and routes:
  /// declarations and ground facts apply to `tenant`'s shard — journaled
  /// first-class, so under kFsync an OK means durable; proper rules install
  /// into every shard's session; queries are rejected (use Query()).
  /// Writes to an unavailable or degraded shard fail with Unavailable.
  Status Apply(const std::string& tenant, const std::string& statement_text);

  /// Rotates `shard_id` to a fresh snapshot + empty journal (the 4-step
  /// generation protocol above). Truncates unbounded journal growth; also
  /// repairs a kDegraded shard when the new journal opens.
  Status SnapshotShard(uint32_t shard_id);
  /// SnapshotShard over every currently-snapshotable shard; first error
  /// wins but all shards are attempted.
  Status SnapshotAll();

  // ------------------------------------------------------------- recovery

  /// Recovers every non-healthy shard in parallel. Always OK at the archive
  /// level; per-shard failures isolate (kFailed) and are visible via
  /// shard_state()/ShardInfo().
  Status RecoverAll();
  /// Recovers one shard with backoff retries. Returns the final attempt's
  /// error when the shard ends kFailed.
  Status RecoverShard(uint32_t shard_id);
  /// Drops a shard's in-memory state and marks it kFailed (operator /
  /// harness hook: simulates losing the serving copy). Durable state on
  /// disk is untouched; RecoverShard() brings it back.
  void KillShard(uint32_t shard_id);

  // -------------------------------------------------------------- queries

  Result<ArchiveQueryResult> Query(std::string_view query_text,
                                   const QueryOptions& options);
  Result<ArchiveQueryResult> Query(std::string_view query_text);
  /// Query() of a parsed query.
  Result<ArchiveQueryResult> Query(const struct Query& query,
                                   const QueryOptions& options);

  /// Query() answered without blocking or evaluating: the result Query()
  /// would give, when every shard is healthy or degraded, constant pruning
  /// leaves exactly one shard, that shard's cache holds the answer, and
  /// every shard lock is free at its try-lock. Otherwise nullopt, having
  /// evaluated, counted and recorded nothing. Shares Query()'s health
  /// pre-scan, pruning and merge, so ToString() is byte-identical.
  std::optional<ArchiveQueryResult> CachedQuery(const struct Query& query);

  /// EXPLAIN across the archive: scatter plan (targeted/pruned/unavailable
  /// per shard), the per-shard storage breakdown, and the representative
  /// per-shard plan. With `analyze`, runs the query on every available
  /// shard and appends per-shard row counts and the merged answer.
  Result<std::string> Explain(std::string_view query_text, bool analyze);

 private:
  struct Shard {
    uint32_t id = 0;
    std::string dir;  // absolute directory path
    uint64_t generation = 0;

    // Serving state; guarded by mu. Absent (nullptr) unless the shard is
    // kHealthy or kDegraded.
    std::unique_ptr<VideoDatabase> db;
    std::unique_ptr<QuerySession> session;
    std::optional<Journal> journal;
    RecoveryReport last_report;

    // Lock-free health summary, readable without mu so introspection
    // (sys_shards, gauges) never contends with recovery or writes.
    std::atomic<int> state{static_cast<int>(ShardState::kRecovering)};
    std::atomic<int64_t> facts{0};
    std::atomic<int64_t> replayed{0};
    std::atomic<int64_t> dropped{0};
    std::atomic<int64_t> recoveries{0};

    // Serving state + files. Every call into `session` holds it: shard
    // sessions are not thread-safe, and this is their only lock.
    mutable std::mutex mu;
    mutable std::mutex error_mu;  // last_error (string, non-atomic)
    std::string last_error;

    void SetState(ShardState s);
    ShardState State() const {
      return static_cast<ShardState>(state.load(std::memory_order_acquire));
    }
    void SetError(std::string message);
    std::string Error() const;
    /// "shard N unavailable (<state>)", with the last error when there is
    /// one.
    std::string UnavailableMessage(ShardState s) const;
  };

  ShardedArchive(std::string root, Options options);

  /// The health pre-scan every read starts with: the first shard that is
  /// neither healthy nor degraded, so cannot answer, or null. Reads only the
  /// lock-free health states.
  const Shard* FirstUnavailable() const;

  std::string ManifestPath() const;
  std::string SnapshotPath(const Shard& s, uint64_t generation) const;
  std::string JournalPath(const Shard& s, uint64_t generation) const;

  /// One recovery attempt (no retries) under s.mu: restore snapshot +
  /// replay journal for the manifest generation, rebuild the session,
  /// reopen the journal. On success the shard is kHealthy or kDegraded.
  Status TryRecoverShard(Shard& s);
  /// The retrying wrapper: backoff schedule, state transitions, metrics.
  Status RecoverShardWithRetries(Shard& s);

  /// Applies one data statement (decl or ground fact) to a shard:
  /// db-apply first (validation), then journal append. A journal append
  /// failure after a db apply degrades the shard (readonly) — the serving
  /// copy is ahead of the log, so accepting more writes could lose them.
  Status ApplyDataToShard(Shard& s, const std::string& statement_text);

  /// Installs a proper rule into every available shard session.
  Status AddRuleEverywhere(const Rule& rule);

  /// Commits a new generation for `s` into the manifest (serialized by
  /// manifest_mu_).
  Status CommitGeneration(Shard& s, uint64_t new_generation);

  std::string root_;
  Options options_;
  Env* env_ = nullptr;  // resolved (never nullptr after Open)
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex manifest_mu_;
  ShardManifest manifest_;

  std::mutex rules_mu_;
  std::vector<Rule> rules_;  // archive-wide rules, reinstalled on recovery
};

}  // namespace vqldb

#endif  // VQLDB_STORAGE_SHARD_STORE_H_
