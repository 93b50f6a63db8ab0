#include "src/storage/shard_store.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "src/common/thread_pool.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/storage/binary_format.h"
#include "src/storage/text_format.h"

namespace vqldb {

namespace {

std::string ShardStateGaugeName(uint32_t shard_id) {
  return "vqldb_shard_state_" + std::to_string(shard_id);
}

obs::Counter* RecoveriesTotal() {
  return obs::MetricsRegistry::Global().GetCounter(
      "vqldb_shard_recoveries_total",
      "Completed shard recovery passes across all archives");
}

/// Whether a shard provably contributes nothing to `query`: a constant
/// symbol the shard cannot resolve cannot match any of its facts (symbols
/// are shard-local), so skipping the shard preserves completeness.
bool CannotMatch(const VideoDatabase& db, const Query& query) {
  for (const Term& t : query.goal.args) {
    if (t.kind == Term::Kind::kConstant &&
        t.constant.kind == ConstExpr::Kind::kSymbol &&
        !db.Resolve(t.constant.text).ok()) {
      return true;
    }
  }
  return false;
}

/// Counts a shard's answer into `result`, and keeps it for the merge when
/// it has rows.
void Gather(std::shared_ptr<const RenderedRows> answer,
            ShardedArchive::ShardReport* report,
            ShardedArchive::ArchiveQueryResult* result,
            std::vector<std::shared_ptr<const RenderedRows>>* runs) {
  report->answered = true;
  report->rows = answer->rows();
  ++result->shards_answered;
  if (report->rows > 0) runs->push_back(std::move(answer));
}

}  // namespace

uint64_t TenantHash(const std::string& tenant) {
  // FNV-1a 64 over the bytes, then a splitmix64 finalizer so short keys
  // spread over all bits. Stable across platforms and sessions — routing
  // is part of the on-disk contract.
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : tenant) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

std::shared_ptr<const RenderedRows> MergeRuns(
    const std::vector<std::shared_ptr<const RenderedRows>>& runs,
    size_t columns) {
  if (runs.size() == 1) return runs.front();
  struct Cursor {
    const RenderedRows* rows;
    size_t next;
  };
  auto less = [](const Cursor& x, const Cursor& y) {
    return RenderedRows::CompareRows(*x.rows, x.next, *y.rows, y.next) < 0;
  };
  std::vector<Cursor> heads;  // the runs with rows left, least head first
  size_t bytes = 0;
  size_t rows = 0;
  for (const auto& run : runs) {
    if (run->rows() > 0) heads.push_back({run.get(), 0});
    bytes += run->text().size();
    rows += run->rows();
  }
  std::sort(heads.begin(), heads.end(), less);
  auto merged = std::make_shared<RenderedRows>(columns);
  merged->Reserve(bytes, rows);
  while (!heads.empty()) {
    Cursor& least = heads.front();
    const RenderedRows& run = *least.rows;
    // The block: the least run's rows below the second head, found by
    // galloping (1, 2, 4, ... rows on) and then bisecting.
    size_t end = run.rows();
    if (heads.size() > 1) {
      const Cursor& second = heads[1];
      auto below = [&](size_t row) {
        return RenderedRows::CompareRows(run, row, *second.rows,
                                         second.next) < 0;
      };
      size_t lo = least.next;  // rows before lo are below
      size_t probe = lo;
      for (size_t step = 1; probe < end && below(probe); step *= 2) {
        lo = probe + 1;
        probe += step;
      }
      end = std::min(probe, end);  // not below, or the run's end
      while (lo < end) {
        const size_t mid = lo + (end - lo) / 2;
        if (below(mid)) {
          lo = mid + 1;
        } else {
          end = mid;
        }
      }
    }
    merged->AppendRows(run, least.next, end);
    // An empty block is a least head equal to the second, whose run keeps
    // that row: drop it. So every merged row is below every row left, and
    // none repeats.
    least.next = std::max(end, least.next + 1);
    if (least.next == run.rows()) {
      heads.erase(heads.begin());
      continue;
    }
    // Its new head is not below the second: sink it past every head below
    // it, looking from the back, where round-robin runs put it.
    size_t at = heads.size() - 1;
    while (at > 1 && less(heads[0], heads[at])) --at;
    std::rotate(heads.begin(), heads.begin() + 1, heads.begin() + at + 1);
  }
  return merged;
}

const char* ShardedArchive::ShardStateName(ShardState s) {
  switch (s) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kRecovering:
      return "recovering";
    case ShardState::kDegraded:
      return "degraded";
    case ShardState::kFailed:
      return "failed";
  }
  return "unknown";
}

// ----------------------------------------------------------------- Shard

void ShardedArchive::Shard::SetState(ShardState s) {
  state.store(static_cast<int>(s), std::memory_order_release);
  obs::MetricsRegistry::Global()
      .GetGauge(ShardStateGaugeName(id),
                "Shard health: 0 healthy, 1 recovering, 2 degraded, 3 failed")
      ->Set(static_cast<int64_t>(s));
}

void ShardedArchive::Shard::SetError(std::string message) {
  std::lock_guard<std::mutex> lock(error_mu);
  last_error = std::move(message);
}

std::string ShardedArchive::Shard::Error() const {
  std::lock_guard<std::mutex> lock(error_mu);
  return last_error;
}

std::string ShardedArchive::Shard::UnavailableMessage(ShardState s) const {
  std::string detail = Error();
  return "shard " + std::to_string(id) + " unavailable (" +
         ShardStateName(s) + ")" + (detail.empty() ? "" : ": " + detail);
}

// ------------------------------------------------------------ open / ctor

ShardedArchive::ShardedArchive(std::string root, Options options)
    : root_(std::move(root)), options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
}

ShardedArchive::~ShardedArchive() = default;

std::string ShardedArchive::ManifestPath() const { return root_ + "/MANIFEST"; }

std::string ShardedArchive::SnapshotPath(const Shard& s,
                                         uint64_t generation) const {
  return s.dir + "/snapshot-" + std::to_string(generation) + ".vqdb";
}

std::string ShardedArchive::JournalPath(const Shard& s,
                                        uint64_t generation) const {
  return s.dir + "/journal-" + std::to_string(generation) + ".wal";
}

Result<std::unique_ptr<ShardedArchive>> ShardedArchive::Open(
    const std::string& root) {
  return Open(root, Options());
}

Result<std::unique_ptr<ShardedArchive>> ShardedArchive::Open(
    const std::string& root, Options options) {
  if (options.shard_count == 0) options.shard_count = 1;
  std::unique_ptr<ShardedArchive> archive(
      new ShardedArchive(root, std::move(options)));
  Env* env = archive->env_;

  VQLDB_RETURN_NOT_OK(env->CreateDir(root));
  Result<ShardManifest> loaded = ShardManifest::Load(archive->ManifestPath(),
                                                     env);
  if (loaded.ok()) {
    archive->manifest_ = std::move(*loaded);
  } else if (loaded.status().IsNotFound()) {
    // Fresh archive: lay out shard_<id>/ directories and commit the
    // manifest before any data exists.
    ShardManifest manifest;
    for (uint32_t id = 0; id < archive->options_.shard_count; ++id) {
      ShardEntry entry;
      entry.shard_id = id;
      entry.dir = "shard_" + std::to_string(id);
      entry.generation = 0;
      VQLDB_RETURN_NOT_OK(env->CreateDir(root + "/" + entry.dir));
      manifest.entries.push_back(std::move(entry));
    }
    VQLDB_RETURN_NOT_OK(env->SyncDir(root + "/MANIFEST"));
    VQLDB_RETURN_NOT_OK(manifest.Save(archive->ManifestPath(), env));
    archive->manifest_ = std::move(manifest);
  } else {
    return loaded.status();
  }

  for (const ShardEntry& entry : archive->manifest_.entries) {
    auto shard = std::make_unique<Shard>();
    shard->id = entry.shard_id;
    shard->dir = root + "/" + entry.dir;
    shard->generation = entry.generation;
    shard->SetState(ShardState::kRecovering);
    archive->shards_.push_back(std::move(shard));
  }

  if (!archive->options_.defer_recovery) {
    VQLDB_RETURN_NOT_OK(archive->RecoverAll());
  }
  return archive;
}

// -------------------------------------------------------------- topology

uint32_t ShardedArchive::ShardIdFor(const std::string& tenant) const {
  return static_cast<uint32_t>(TenantHash(tenant) % shards_.size());
}

ShardedArchive::ShardState ShardedArchive::shard_state(
    uint32_t shard_id) const {
  return shards_.at(shard_id)->State();
}

uint64_t ShardedArchive::shard_generation(uint32_t shard_id) const {
  const Shard& s = *shards_.at(shard_id);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.generation;
}

RecoveryReport ShardedArchive::shard_recovery_report(uint32_t shard_id) const {
  const Shard& s = *shards_.at(shard_id);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.last_report;
}

VideoDatabase* ShardedArchive::shard_db(uint32_t shard_id) {
  return shards_.at(shard_id)->db.get();
}

std::vector<ShardInfoRow> ShardedArchive::ShardInfo() const {
  std::vector<ShardInfoRow> rows;
  rows.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardInfoRow row;
    row.shard_id = shard->id;
    row.state = ShardStateName(shard->State());
    row.facts = shard->facts.load(std::memory_order_relaxed);
    row.records_replayed = shard->replayed.load(std::memory_order_relaxed);
    row.records_dropped = shard->dropped.load(std::memory_order_relaxed);
    row.recoveries = shard->recoveries.load(std::memory_order_relaxed);
    row.last_error = shard->Error();
    rows.push_back(std::move(row));
  }
  return rows;
}

// -------------------------------------------------------------- recovery

Status ShardedArchive::RecoverAll() {
  std::vector<Shard*> pending;
  for (const auto& shard : shards_) {
    if (shard->State() == ShardState::kHealthy) continue;
    shard->SetState(ShardState::kRecovering);
    pending.push_back(shard.get());
  }
  if (pending.empty()) return Status::OK();
  size_t threads = std::min(std::max<size_t>(options_.recovery_threads, 1),
                            pending.size());
  ThreadPool pool(threads);
  for (Shard* shard : pending) {
    pool.Submit([this, shard] { (void)RecoverShardWithRetries(*shard); });
  }
  pool.WaitAll();
  return Status::OK();
}

Status ShardedArchive::RecoverShard(uint32_t shard_id) {
  if (shard_id >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_id) +
                                   " (archive has " +
                                   std::to_string(shards_.size()) + ")");
  }
  Shard& s = *shards_[shard_id];
  if (s.State() == ShardState::kHealthy) return Status::OK();
  s.SetState(ShardState::kRecovering);
  return RecoverShardWithRetries(s);
}

Status ShardedArchive::RecoverShardWithRetries(Shard& s) {
  Backoff backoff(options_.backoff);
  Status last;
  while (true) {
    if (options_.recovery_hook) options_.recovery_hook(s.id);
    last = TryRecoverShard(s);
    if (last.ok()) {
      s.recoveries.fetch_add(1, std::memory_order_relaxed);
      RecoveriesTotal()->Increment();
      return Status::OK();
    }
    s.SetError(last.ToString());
    if (!backoff.ShouldRetry()) break;
    uint64_t delay_ms = backoff.NextDelayMs();
    if (options_.sleep_between_retries) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  }
  s.SetState(ShardState::kFailed);
  return last;
}

Status ShardedArchive::TryRecoverShard(Shard& s) {
  std::lock_guard<std::mutex> lock(s.mu);
  s.journal.reset();
  s.session.reset();
  s.db.reset();

  if (!env_->FileExists(s.dir)) {
    return Status::NotFound("shard " + std::to_string(s.id) +
                            " directory missing: " + s.dir);
  }
  const std::string snapshot_path = SnapshotPath(s, s.generation);
  const std::string journal_path = JournalPath(s, s.generation);
  std::string snapshot_arg;
  if (env_->FileExists(snapshot_path)) {
    snapshot_arg = snapshot_path;
  } else if (s.generation > 0) {
    // Journal::Recover silently starts empty on a missing snapshot; for a
    // rotated shard that silence would be data loss, so fail loudly here.
    return Status::Corruption("shard " + std::to_string(s.id) +
                              " snapshot missing: " + snapshot_path);
  }

  RecoveryReport report;
  Result<VideoDatabase> recovered =
      Journal::Recover(snapshot_arg, journal_path, &report, env_);
  if (!recovered.ok()) {
    return recovered.status().WithContext("shard " + std::to_string(s.id));
  }

  // Garbage-collect leftovers of interrupted rotations (best-effort): the
  // manifest generation is the only one that matters; its neighbors are
  // either already-superseded or never-committed files.
  if (s.generation > 0) {
    (void)env_->RemoveFile(SnapshotPath(s, s.generation - 1));
    (void)env_->RemoveFile(JournalPath(s, s.generation - 1));
  }
  (void)env_->RemoveFile(SnapshotPath(s, s.generation + 1));
  (void)env_->RemoveFile(JournalPath(s, s.generation + 1));

  auto db = std::make_unique<VideoDatabase>(std::move(*recovered));
  auto session = std::make_unique<QuerySession>(db.get(),
                                                options_.eval_options);
  session->set_shard_info_provider([this] { return ShardInfo(); });
  {
    std::lock_guard<std::mutex> rules_lock(rules_mu_);
    for (const Rule& rule : rules_) {
      VQLDB_RETURN_NOT_OK(session->AddRule(rule));
    }
  }

  s.last_report = report;
  s.facts.store(static_cast<int64_t>(db->fact_count()),
                std::memory_order_relaxed);
  s.replayed.store(static_cast<int64_t>(report.records_replayed),
                   std::memory_order_relaxed);
  s.dropped.store(static_cast<int64_t>(report.records_dropped),
                  std::memory_order_relaxed);
  s.db = std::move(db);
  s.session = std::move(session);

  Journal::Options jopts;
  jopts.durability = options_.durability;
  jopts.env = env_;
  Result<Journal> journal = Journal::Open(journal_path, jopts);
  if (journal.ok()) {
    s.journal.emplace(std::move(*journal));
    s.SetError("");
    s.SetState(ShardState::kHealthy);
  } else {
    // Recovered but cannot log new writes: serve reads, refuse writes.
    s.SetError(journal.status().ToString());
    s.SetState(ShardState::kDegraded);
  }
  return Status::OK();
}

void ShardedArchive::KillShard(uint32_t shard_id) {
  Shard& s = *shards_.at(shard_id);
  std::lock_guard<std::mutex> lock(s.mu);
  s.journal.reset();
  s.session.reset();
  s.db.reset();
  s.SetError("killed");
  s.SetState(ShardState::kFailed);
}

// -------------------------------------------------------------- mutation

Status ShardedArchive::Apply(const std::string& tenant,
                             const std::string& statement_text) {
  VQLDB_ASSIGN_OR_RETURN(Program program,
                         Parser::ParseProgram(statement_text));
  Shard& s = *shards_[ShardIdFor(tenant)];
  for (const Statement& statement : program.statements) {
    switch (statement.kind) {
      case Statement::Kind::kQuery:
        return Status::InvalidArgument(
            "queries do not route through Apply(); use Query()");
      case Statement::Kind::kRule:
        if (statement.rule.IsFact()) {
          VQLDB_RETURN_NOT_OK(ApplyDataToShard(s, statement.ToString()));
        } else {
          VQLDB_RETURN_NOT_OK(AddRuleEverywhere(statement.rule));
          std::lock_guard<std::mutex> lock(rules_mu_);
          rules_.push_back(statement.rule);
        }
        break;
      case Statement::Kind::kDecl:
        VQLDB_RETURN_NOT_OK(ApplyDataToShard(s, statement.ToString()));
        break;
    }
  }
  return Status::OK();
}

Status ShardedArchive::ApplyDataToShard(Shard& s,
                                        const std::string& statement_text) {
  ShardState state = s.State();
  if (state != ShardState::kHealthy) {
    std::string detail = s.Error();
    return Status::Unavailable(
        "shard " + std::to_string(s.id) + " is " + ShardStateName(state) +
        (state == ShardState::kDegraded ? " (read-only)" : "") +
        (detail.empty() ? "" : ": " + detail));
  }
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.State() != ShardState::kHealthy || !s.journal.has_value()) {
    return Status::Unavailable("shard " + std::to_string(s.id) +
                               " became unavailable");
  }
  // Apply to the serving copy first: this validates the statement against
  // shard-local symbols, so nothing unreplayable ever reaches the journal
  // (a journaled statement that later failed replay would turn a user
  // error into permanent shard corruption).
  VQLDB_ASSIGN_OR_RETURN(LoadedProgram loaded,
                         TextFormat::Load(statement_text, s.db.get()));
  (void)loaded;
  Status appended = s.journal->Append(statement_text);
  if (!appended.ok()) {
    // The serving copy is now ahead of the log. Accepting further writes
    // could lose them on the next recovery — go read-only.
    s.journal.reset();
    s.SetError(appended.ToString());
    s.SetState(ShardState::kDegraded);
    return appended.WithContext("shard " + std::to_string(s.id) +
                                " journal append failed; shard is read-only");
  }
  s.facts.store(static_cast<int64_t>(s.db->fact_count()),
                std::memory_order_relaxed);
  s.session->ClearQueryCache();  // no entry of the old epoch can hit again
  return Status::OK();
}

Status ShardedArchive::AddRuleEverywhere(const Rule& rule) {
  size_t installed = 0;
  for (const auto& shard : shards_) {
    ShardState state = shard->State();
    if (state != ShardState::kHealthy && state != ShardState::kDegraded) {
      continue;  // recovery reinstalls rules_ into the rebuilt session
    }
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->session == nullptr) continue;
    VQLDB_RETURN_NOT_OK(shard->session->AddRule(rule));
    ++installed;
  }
  if (installed == 0) {
    // A rule must pass at least one session's validation before it is
    // retained — otherwise a bad rule would surface only at recovery time.
    return Status::Unavailable("no shard available to accept the rule");
  }
  return Status::OK();
}

// -------------------------------------------------------------- rotation

Status ShardedArchive::CommitGeneration(Shard& s, uint64_t new_generation) {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  uint64_t previous = manifest_.entries.at(s.id).generation;
  manifest_.entries[s.id].generation = new_generation;
  Status saved = manifest_.Save(ManifestPath(), env_);
  if (saved.ok()) return Status::OK();
  // The save failed part-way — but its atomic rename may already have
  // landed (e.g. only the trailing directory fsync errored). Read the
  // manifest back to learn which generation is actually authoritative.
  Result<ShardManifest> on_disk = ShardManifest::Load(ManifestPath(), env_);
  if (on_disk.ok() && s.id < on_disk->entries.size() &&
      on_disk->entries[s.id].generation == new_generation) {
    return Status::OK();  // landed: the error hit after the commit point
  }
  manifest_.entries[s.id].generation = previous;
  if (!on_disk.ok()) {
    // Cannot tell which generation recovery would pick. Accepting further
    // writes into the old journal could lose them if the new (empty)
    // journal turns out to be authoritative — stop writes until a recovery
    // re-resolves against the manifest.
    s.journal.reset();
    s.SetError("manifest commit unverifiable: " + saved.ToString());
    s.SetState(ShardState::kDegraded);
  }
  return saved;
}

Status ShardedArchive::SnapshotShard(uint32_t shard_id) {
  if (shard_id >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_id));
  }
  Shard& s = *shards_[shard_id];
  ShardState state = s.State();
  if (state != ShardState::kHealthy && state != ShardState::kDegraded) {
    return Status::Unavailable("shard " + std::to_string(shard_id) + " is " +
                               ShardStateName(state) + "; cannot snapshot");
  }
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.db == nullptr) {
    return Status::Unavailable("shard " + std::to_string(shard_id) +
                               " became unavailable");
  }
  const uint64_t old_gen = s.generation;
  const uint64_t new_gen = old_gen + 1;

  // 1. Snapshot the serving copy under the next generation (atomic write;
  //    the current generation's files are untouched).
  VQLDB_RETURN_NOT_OK(BinaryFormat::Save(*s.db, SnapshotPath(s, new_gen),
                                         env_));

  // 2. Create the next generation's empty journal. Remove first: a leftover
  //    from an interrupted rotation must not contribute stale records.
  const std::string new_journal_path = JournalPath(s, new_gen);
  VQLDB_RETURN_NOT_OK(env_->RemoveFile(new_journal_path));
  Journal::Options jopts;
  jopts.durability = options_.durability;
  jopts.env = env_;
  Result<Journal> new_journal = Journal::Open(new_journal_path, jopts);
  if (!new_journal.ok()) {
    (void)env_->RemoveFile(SnapshotPath(s, new_gen));
    return new_journal.status();
  }
  VQLDB_RETURN_NOT_OK(env_->SyncDir(new_journal_path));

  // 3. Commit: once the manifest names new_gen, recovery uses the fresh
  //    snapshot + empty journal. Until then the old pair stays authoritative
  //    — the old journal is never touched before this point.
  Status committed = CommitGeneration(s, new_gen);
  if (!committed.ok()) {
    // Leave the new generation's files in place: deleting them here could
    // race a manifest rename that landed despite the reported error, and
    // recovery GCs uncommitted neighbor generations anyway.
    return committed;
  }
  s.generation = new_gen;
  s.journal.reset();  // close the old generation's journal
  s.journal.emplace(std::move(*new_journal));
  if (s.State() == ShardState::kDegraded) {
    // The rotation gave the shard a working journal again.
    s.SetError("");
    s.SetState(ShardState::kHealthy);
  }

  // 4. Garbage-collect the superseded generation (best-effort; recovery
  //    also sweeps neighbors of the committed generation).
  (void)env_->RemoveFile(SnapshotPath(s, old_gen));
  (void)env_->RemoveFile(JournalPath(s, old_gen));
  (void)env_->SyncDir(JournalPath(s, old_gen));
  return Status::OK();
}

Status ShardedArchive::SnapshotAll() {
  Status first;
  for (const auto& shard : shards_) {
    ShardState state = shard->State();
    if (state != ShardState::kHealthy && state != ShardState::kDegraded) {
      continue;
    }
    Status st = SnapshotShard(shard->id);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

// --------------------------------------------------------------- queries

const ShardedArchive::Shard* ShardedArchive::FirstUnavailable() const {
  for (const auto& shard : shards_) {
    const ShardState state = shard->State();
    if (state != ShardState::kHealthy && state != ShardState::kDegraded) {
      return shard.get();
    }
  }
  return nullptr;
}

Result<ShardedArchive::ArchiveQueryResult> ShardedArchive::Query(
    std::string_view query_text) {
  return Query(query_text, QueryOptions());
}

Result<ShardedArchive::ArchiveQueryResult> ShardedArchive::Query(
    std::string_view query_text, const QueryOptions& options) {
  VQLDB_ASSIGN_OR_RETURN(struct Query query, Parser::ParseQuery(query_text));
  return Query(query, options);
}

Result<ShardedArchive::ArchiveQueryResult> ShardedArchive::Query(
    const struct Query& query, const QueryOptions& options) {
  ArchiveQueryResult result;
  result.columns = GoalColumns(query);
  result.reports.reserve(shards_.size());
  // Each answering shard's rows, rendered shard-side (oids are shard-local)
  // in merge order. A cached answer is stored in that order, so a repeated
  // scan renders and sorts nothing; an answer that bypasses the cache
  // (sys_* goals, an entry over budget) is rendered in it for this scan
  // alone. An entry is keyed on its shard's epochs alone: the shard's
  // complete answer, whatever its siblings' health.
  std::vector<std::shared_ptr<const RenderedRows>> runs;
  runs.reserve(shards_.size());

  // Pre-scan shard health before touching any session: in strict mode a
  // doomed scatter fails up front, before any shard runs.
  const Shard* down = FirstUnavailable();
  if (down != nullptr && !options.allow_partial) {
    return Status::Unavailable(down->UnavailableMessage(down->State()));
  }

  for (const auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    ShardReport report;
    report.shard_id = s.id;
    ShardState state = s.State();
    report.state = ShardStateName(state);

    if (state != ShardState::kHealthy && state != ShardState::kDegraded) {
      ++result.shards_targeted;
      std::string message = s.UnavailableMessage(state);
      if (!options.allow_partial) {
        return Status::Unavailable(message);
      }
      result.partial = true;
      report.error = std::move(message);
      result.reports.push_back(std::move(report));
      continue;
    }

    std::lock_guard<std::mutex> lock(s.mu);
    if (s.session == nullptr) {
      ++result.shards_targeted;
      std::string message =
          "shard " + std::to_string(s.id) + " became unavailable";
      if (!options.allow_partial) return Status::Unavailable(message);
      result.partial = true;
      report.error = std::move(message);
      result.reports.push_back(std::move(report));
      continue;
    }

    if (CannotMatch(*s.db, query)) {
      ++result.shards_pruned;
      report.pruned = true;
      result.reports.push_back(std::move(report));
      continue;
    }

    ++result.shards_targeted;
    // Layer the caller's deadline/cancel onto the shard session for this
    // scatter only; the session keeps its own options afterwards.
    EvalOptions* session_options = s.session->mutable_options();
    const auto saved_deadline = session_options->deadline;
    const auto saved_cancel = session_options->cancel;
    if (options.deadline.has_value()) session_options->deadline = options.deadline;
    if (options.cancel != nullptr) session_options->cancel = options.cancel;
    Result<std::shared_ptr<const RenderedRows>> answer =
        s.session->RunRendered(query);
    session_options = s.session->mutable_options();
    session_options->deadline = saved_deadline;
    session_options->cancel = saved_cancel;
    if (!answer.ok()) {
      if (answer.status().IsNotFound()) {
        // Shard-local vocabulary miss (e.g. a relation only other tenants
        // use): provably empty contribution, not an availability problem.
        report.answered = true;
        result.reports.push_back(std::move(report));
        ++result.shards_answered;
        continue;
      }
      std::string message = "shard " + std::to_string(s.id) + ": " +
                            answer.status().ToString();
      if (!options.allow_partial) {
        return answer.status().WithContext("shard " + std::to_string(s.id));
      }
      result.partial = true;
      report.error = std::move(message);
      result.reports.push_back(std::move(report));
      continue;
    }

    Gather(std::move(*answer), &report, &result, &runs);
    result.reports.push_back(std::move(report));
  }

  // Deterministic merge: answers are independent of shard order, recovery
  // history, and (for replicated seeds like sys_shards) shard count.
  result.rendered = MergeRuns(runs, result.columns.size());
  return result;
}

std::optional<ShardedArchive::ArchiveQueryResult> ShardedArchive::CachedQuery(
    const struct Query& query) {
  // A read while a shard cannot answer is a worker's: it fails strictly or
  // comes back PARTIAL with its completeness report.
  if (FirstUnavailable() != nullptr) return std::nullopt;
  ArchiveQueryResult result;
  result.columns = GoalColumns(query);
  result.reports.reserve(shards_.size());
  // The targeted shard's lock is held from its prune check through its
  // cache lookup; every other shard's only for its prune check.
  Shard* target = nullptr;
  size_t target_report = 0;
  std::unique_lock<std::mutex> target_lock;
  for (const auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
    if (!lock.owns_lock() || s.session == nullptr) return std::nullopt;
    ShardReport report;
    report.shard_id = s.id;
    report.state = ShardStateName(s.State());
    if (CannotMatch(*s.db, query)) {
      ++result.shards_pruned;
      report.pruned = true;
    } else if (target != nullptr) {
      return std::nullopt;  // a scan: it merges two or more shards
    } else {
      target = &s;
      target_report = result.reports.size();
      target_lock = std::move(lock);
    }
    result.reports.push_back(std::move(report));
  }
  if (target == nullptr) return std::nullopt;
  std::shared_ptr<const RenderedRows> answer =
      target->session->CachedRunRendered(query);
  target_lock.unlock();
  if (answer == nullptr) return std::nullopt;

  ++result.shards_targeted;
  std::vector<std::shared_ptr<const RenderedRows>> runs;
  Gather(std::move(answer), &result.reports[target_report], &result, &runs);
  result.rendered = MergeRuns(runs, result.columns.size());
  return result;
}

std::vector<std::vector<std::string>>
ShardedArchive::ArchiveQueryResult::rows() const {
  std::vector<std::vector<std::string>> out(rendered->rows());
  for (size_t r = 0; r < out.size(); ++r) {
    out[r].reserve(rendered->columns());
    for (size_t c = 0; c < rendered->columns(); ++c) {
      out[r].emplace_back(rendered->Cell(r, c));
    }
  }
  return out;
}

std::string ShardedArchive::ArchiveQueryResult::ToString() const {
  std::string out;
  out.reserve(64 + rendered->text().size());
  AppendAnswerHeader(size(), columns, &out);
  if (partial) out.append(" PARTIAL");
  out.push_back('\n');
  out.append(rendered->text());
  if (partial) {
    out.append("partial answer: " + std::to_string(shards_answered) + "/" +
               std::to_string(shards_targeted) +
               " targeted shards answered\n");
    for (const ShardReport& r : reports) {
      if (r.error.empty()) continue;
      out.append("  missing shard " + std::to_string(r.shard_id) + " [" +
                 r.state + "]: " + r.error + "\n");
    }
  }
  return out;
}

Result<std::string> ShardedArchive::Explain(std::string_view query_text,
                                            bool analyze) {
  VQLDB_ASSIGN_OR_RETURN(struct Query query, Parser::ParseQuery(query_text));
  std::ostringstream os;
  os << "sharded archive: " << root_ << " (" << shards_.size()
     << " shards)\n";
  os << "shard storage:\n";
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    os << "  shard " << s.id << " [" << ShardStateName(s.State()) << "] gen "
       << shard_generation(s.id) << ": "
       << s.facts.load(std::memory_order_relaxed) << " facts, replayed "
       << s.replayed.load(std::memory_order_relaxed) << ", dropped "
       << s.dropped.load(std::memory_order_relaxed) << ", recoveries "
       << s.recoveries.load(std::memory_order_relaxed);
    std::string err = s.Error();
    if (!err.empty()) os << " (" << err << ")";
    os << "\n";
  }

  // One representative per-shard plan: the program and options are
  // identical on every shard, so the first available shard's plan stands
  // for all of them.
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    ShardState state = s.State();
    if (state != ShardState::kHealthy && state != ShardState::kDegraded) {
      continue;
    }
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.session == nullptr) continue;
    Result<std::string> plan = s.session->Explain(query_text, false);
    if (!plan.ok()) return plan.status();
    os << "--- plan (shard " << s.id << ", representative) ---\n" << *plan;
    break;
  }

  if (analyze) {
    QueryOptions opts;
    opts.allow_partial = true;
    VQLDB_ASSIGN_OR_RETURN(ArchiveQueryResult result, Query(query, opts));
    os << "--- scatter-gather ---\n";
    os << "targeted " << result.shards_targeted << ", answered "
       << result.shards_answered << ", pruned " << result.shards_pruned
       << (result.partial ? ", PARTIAL" : "") << "\n";
    for (const ShardReport& r : result.reports) {
      os << "  shard " << r.shard_id << " [" << r.state << "]: ";
      if (r.pruned) {
        os << "pruned";
      } else if (r.answered) {
        os << r.rows << " rows";
      } else {
        os << "no answer (" << r.error << ")";
      }
      os << "\n";
    }
    os << result.ToString();
  }
  return os.str();
}

}  // namespace vqldb
