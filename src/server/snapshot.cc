#include "src/server/snapshot.h"

#include <algorithm>
#include <utility>

#include "src/common/string_util.h"
#include "src/storage/binary_format.h"

namespace vqldb {
namespace server {

namespace {

// Whether evaluating `rules` under `options` may write to the database.
// Only VideoDatabase::Concatenate does, and the evaluator calls it for
// constructive (++) heads and for the extended active domain alone; a
// governed rollback with nothing materialized is a no-op.
bool EvaluationMayWrite(const std::vector<Rule>& rules,
                        const EvalOptions& options) {
  return options.extended_active_domain ||
         std::any_of(rules.begin(), rules.end(),
                     [](const Rule& rule) { return rule.IsConstructive(); });
}

}  // namespace

// ---------------------------------------------------------------- the lease

SessionLease& SessionLease::operator=(SessionLease&& other) noexcept {
  if (this != &other) {
    if (snapshot_ != nullptr) snapshot_->ReturnSlot(slot_);
    snapshot_ = std::move(other.snapshot_);
    slot_ = other.slot_;
    session_ = other.session_;
    db_ = other.db_;
    other.snapshot_ = nullptr;
    other.session_ = nullptr;
    other.db_ = nullptr;
  }
  return *this;
}

SessionLease::~SessionLease() {
  if (snapshot_ != nullptr) snapshot_->ReturnSlot(slot_);
}

uint64_t SessionLease::db_epoch() const {
  return snapshot_ == nullptr ? 0 : snapshot_->db_epoch();
}

uint64_t SessionLease::rules_epoch() const {
  return snapshot_ == nullptr ? 0 : snapshot_->rules_epoch();
}

// ------------------------------------------------------------- the snapshot

DbSnapshot::DbSnapshot(uint64_t db_epoch, uint64_t rules_epoch,
                       std::unique_ptr<VideoDatabase> db,
                       std::vector<Rule> rules, EvalOptions options,
                       size_t max_sessions)
    : db_epoch_(db_epoch),
      rules_epoch_(rules_epoch),
      db_(std::move(db)),
      rules_(std::move(rules)),
      options_(std::move(options)),
      max_sessions_(max_sessions == 0 ? 1 : max_sessions),
      cache_(EvaluationMayWrite(rules_, options_)
                 ? nullptr
                 : std::make_shared<QueryCache>()) {}

const std::string& DbSnapshot::bytes() const {
  std::call_once(bytes_once_, [this] {
    auto image = BinaryFormat::Serialize(*db_);
    if (image.ok()) bytes_ = std::move(*image);
  });
  return bytes_;
}

Result<SessionLease> DbSnapshot::Acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!free_.empty()) {
      size_t slot = free_.back();
      free_.pop_back();
      return LeaseLocked(slot);
    }
    if (slots_.size() + building_ < max_sessions_) {
      // Build the session outside the lock (a private copy, when the
      // generation needs one, is O(db)); other leases keep flowing.
      ++building_;
      lock.unlock();
      auto built = std::make_unique<Slot>();
      VideoDatabase* db = db_.get();
      if (!shared()) {
        built->db = std::make_unique<VideoDatabase>(*db_);
        db = built->db.get();
      }
      built->session = std::make_unique<QuerySession>(db, options_, cache_);
      Status build_status;
      for (const Rule& rule : rules_) {
        Status st = built->session->AddRule(rule);
        if (!st.ok()) {
          build_status = st.WithContext("snapshot rules");
          break;
        }
      }
      lock.lock();
      --building_;
      if (!build_status.ok()) {
        free_cv_.notify_one();  // the capacity this build held is free again
        return build_status;
      }
      slots_.push_back(std::move(built));
      return LeaseLocked(slots_.size() - 1);
    }
    free_cv_.wait(lock, [&] {
      return !free_.empty() || slots_.size() + building_ < max_sessions_;
    });
  }
}

SessionLease DbSnapshot::TryAcquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) return SessionLease();
  size_t slot = free_.back();
  free_.pop_back();
  return LeaseLocked(slot);
}

SessionLease DbSnapshot::LeaseLocked(size_t slot) {
  QuerySession* session = slots_[slot]->session.get();
  return SessionLease(shared_from_this(), slot, session, session->database());
}

size_t DbSnapshot::sessions_built() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void DbSnapshot::ReturnSlot(size_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(slot);
  free_cv_.notify_one();
}

// -------------------------------------------------------------- the manager

SnapshotManager::SnapshotManager(VideoDatabase* db, EvalOptions options,
                                 size_t sessions_per_snapshot)
    : db_(db),
      options_(std::move(options)),
      sessions_per_snapshot_(sessions_per_snapshot == 0
                                 ? 4
                                 : sessions_per_snapshot),
      write_session_(db, options_) {}

Status SnapshotManager::Apply(std::string_view statement_text) {
  std::string_view trimmed = Trim(statement_text);
  if (StartsWith(trimmed, "?-") || StartsWith(trimmed, "explain")) {
    return Status::InvalidArgument(
        "queries are read-path requests; Apply takes statements only");
  }
  std::lock_guard<std::mutex> lock(mu_);
  return write_session_.Load(trimmed);
}

Result<std::shared_ptr<DbSnapshot>> SnapshotManager::Current() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t db_epoch = db_->epoch();
  uint64_t rules_epoch = write_session_.rules().size();
  if (current_ != nullptr && current_->db_epoch() == db_epoch &&
      current_->rules_epoch() == rules_epoch) {
    return current_;
  }
  // The one copy every session of the generation reads. Its temporal index
  // is built here, so that concurrent readers never rebuild it.
  auto frozen = std::make_unique<VideoDatabase>(*db_);
  frozen->PrepareTemporalIndex();
  current_ = std::make_shared<DbSnapshot>(
      db_epoch, rules_epoch, std::move(frozen), write_session_.rules(),
      options_, sessions_per_snapshot_);
  ++built_;
  return current_;
}

Result<SessionLease> SnapshotManager::AcquireSession() {
  auto snapshot = Current();
  if (!snapshot.ok()) return snapshot.status();
  return (*snapshot)->Acquire();
}

std::shared_ptr<DbSnapshot> SnapshotManager::CurrentIfBuilt() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock() || current_ == nullptr ||
      current_->db_epoch() != db_->epoch() ||
      current_->rules_epoch() != write_session_.rules().size()) {
    return nullptr;
  }
  return current_;
}

uint64_t SnapshotManager::rules_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_session_.rules().size();
}

uint64_t SnapshotManager::snapshots_built() const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_;
}

std::vector<Rule> SnapshotManager::rules() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_session_.rules();
}

}  // namespace server
}  // namespace vqldb
