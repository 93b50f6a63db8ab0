// Snapshot-isolated read sessions for the service layer.
//
// The server owns one authoritative ("live") VideoDatabase that all writes
// mutate, and every read request runs against an immutable *generation* of
// it keyed on (VideoDatabase::epoch(), rules epoch). A generation
// materializes lazily: the first read after a write copies the live
// database under the writer lock, prepares the copy's temporal index, and
// publishes it. Every reader session of that generation then reads the one
// copy and consults one answer cache, so
//
//   * writers never block readers: a commit only bumps the epoch; in-flight
//     readers keep their shared_ptr<DbSnapshot> and finish on the state they
//     started on,
//   * readers never block writers: reads touch only the generation's copy,
//   * readers never see a torn state: the copy is taken whole under the
//     writer lock and nothing writes to it afterwards,
//   * an answer computed by one session of a generation is a cache hit for
//     every other session of it.
//
// Sharing is sound because evaluation only reads the database unless it
// materializes derived intervals, which happens for constructive (++) rule
// heads and under extended_active_domain alone. A generation whose rules or
// options allow that gives each session a private copy of the generation
// and a private cache instead, decided once per generation.
//
// A lease's database may therefore be shared by every lease of its
// generation: callers must not mutate it, nor enable extended_active_domain
// on a leased session.
//
// Concurrency: SnapshotManager is fully thread-safe. Apply() serializes
// writers; Acquire() is called from any worker thread, while the server's
// IO threads use CurrentIfBuilt() and TryAcquire(), which neither build nor
// wait and give nothing when they would have to. Sessions are leased
// (RAII SessionLease) from a per-snapshot pool bounded by
// `sessions_per_snapshot` — size it >= the admission gate's slot count and a
// lease is always available without waiting; when undersized, Acquire blocks
// briefly until a lease returns. The pool exists because a session is not
// thread-safe and costs its rules' analysis to build.

#ifndef VQLDB_SERVER_SNAPSHOT_H_
#define VQLDB_SERVER_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/engine/evaluator.h"
#include "src/engine/query.h"
#include "src/engine/query_cache.h"
#include "src/model/database.h"

namespace vqldb {
namespace server {

class DbSnapshot;

/// An exclusive lease on one snapshot session. Keeps the snapshot alive;
/// returning (destroying) the lease hands the session to the next reader.
class SessionLease {
 public:
  SessionLease() = default;
  SessionLease(SessionLease&& other) noexcept { *this = std::move(other); }
  SessionLease& operator=(SessionLease&& other) noexcept;
  ~SessionLease();

  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;

  bool valid() const { return session_ != nullptr; }
  QuerySession* session() { return session_; }
  /// The generation's database, possibly shared with other leases: read it,
  /// never mutate it.
  VideoDatabase* db() { return db_; }
  /// The generation this session is pinned to.
  uint64_t db_epoch() const;
  uint64_t rules_epoch() const;

 private:
  friend class DbSnapshot;
  SessionLease(std::shared_ptr<DbSnapshot> snapshot, size_t slot,
               QuerySession* session, VideoDatabase* db)
      : snapshot_(std::move(snapshot)), slot_(slot), session_(session), db_(db) {}

  std::shared_ptr<DbSnapshot> snapshot_;
  size_t slot_ = 0;
  QuerySession* session_ = nullptr;
  VideoDatabase* db_ = nullptr;
};

/// One immutable generation of the database: its frozen copy, the answer
/// cache its sessions share, and a bounded pool of sessions built on demand.
class DbSnapshot : public std::enable_shared_from_this<DbSnapshot> {
 public:
  /// `db` is the generation's copy, its temporal index already prepared.
  DbSnapshot(uint64_t db_epoch, uint64_t rules_epoch,
             std::unique_ptr<VideoDatabase> db, std::vector<Rule> rules,
             EvalOptions options, size_t max_sessions);

  uint64_t db_epoch() const { return db_epoch_; }
  uint64_t rules_epoch() const { return rules_epoch_; }
  /// The generation in the .vqdb encoding (BinaryFormat), serialized on the
  /// first call; empty if it cannot be encoded. Diagnostics only: no read
  /// path asks for it.
  const std::string& bytes() const;
  /// Whether leases share one database and one answer cache (false when the
  /// rules are constructive or extended_active_domain is set).
  bool shared() const { return cache_ != nullptr; }

  /// Leases a session, building one if the pool has headroom and blocking
  /// for a returned lease otherwise. Fails only if the rules fail to
  /// install, which the write path has already ruled out.
  Result<SessionLease> Acquire();
  /// Leases a free session that is already built; never builds and never
  /// waits for one. An invalid lease when none is free.
  SessionLease TryAcquire();

  /// Sessions materialized so far (tests).
  size_t sessions_built() const;

 private:
  friend class SessionLease;
  struct Slot {
    std::unique_ptr<VideoDatabase> db;  // private copy; null when shared
    std::unique_ptr<QuerySession> session;
  };

  /// A lease on the built session in `slot`; mu_ held.
  SessionLease LeaseLocked(size_t slot);
  void ReturnSlot(size_t slot);

  const uint64_t db_epoch_;
  const uint64_t rules_epoch_;
  const std::unique_ptr<VideoDatabase> db_;
  const std::vector<Rule> rules_;
  const EvalOptions options_;
  const size_t max_sessions_;
  const std::shared_ptr<QueryCache> cache_;  // null when not shared

  mutable std::once_flag bytes_once_;
  mutable std::string bytes_;

  mutable std::mutex mu_;
  std::condition_variable free_cv_;
  std::vector<std::unique_ptr<Slot>> slots_;  // guarded by mu_
  std::vector<size_t> free_;                  // free slot indexes
  size_t building_ = 0;  // sessions under construction (capacity reserved)
};

/// The writer side plus the snapshot cache. Owns neither the database nor
/// the journal mirroring — the server composes those.
class SnapshotManager {
 public:
  /// `db` must outlive the manager. `options` seeds every snapshot session
  /// (strategy, threads, ...); per-request deadline/cancel are layered on by
  /// the caller on the leased session.
  SnapshotManager(VideoDatabase* db, EvalOptions options,
                  size_t sessions_per_snapshot);

  /// Applies one or more statements (declarations, facts, rules) to the
  /// live database. Serialized internally; queries are rejected. On OK the
  /// next Current() observes the new generation.
  Status Apply(std::string_view statement_text);

  /// The current snapshot, (re)built if the live database or the rule set
  /// advanced since the last build. In-flight readers on older snapshots
  /// are unaffected.
  Result<std::shared_ptr<DbSnapshot>> Current();

  /// Convenience: Current() + Acquire().
  Result<SessionLease> AcquireSession();

  /// The current snapshot if it is built and up to date, else null. Never
  /// builds and never waits: a writer or a build holding the lock also
  /// gives null. For callers that must not block (the server's IO thread).
  std::shared_ptr<DbSnapshot> CurrentIfBuilt();

  uint64_t live_epoch() const { return db_->epoch(); }
  uint64_t rules_epoch() const;
  /// Snapshot builds so far (tests; also exported as a server metric).
  uint64_t snapshots_built() const;

  /// The live-session rules (for persisting / diagnostics).
  std::vector<Rule> rules() const;

 private:
  VideoDatabase* const db_;
  const EvalOptions options_;
  const size_t sessions_per_snapshot_;

  mutable std::mutex mu_;  // writer path + snapshot cache
  QuerySession write_session_;
  std::shared_ptr<DbSnapshot> current_;
  uint64_t built_ = 0;
};

}  // namespace server
}  // namespace vqldb

#endif  // VQLDB_SERVER_SNAPSHOT_H_
