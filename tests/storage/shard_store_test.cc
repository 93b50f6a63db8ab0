#include "src/storage/shard_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

#include "src/lang/parser.h"
#include "src/storage/binary_format.h"
#include "src/storage/journal.h"

namespace vqldb {
namespace {

/// An Env that lets the first `budget` mutating operations through and then
/// fails every mutating operation — the filesystem as a crashed process
/// left it. Reads always pass through, so recovery can run against the
/// same env. Budget -1 = unlimited.
class FailAfterEnv : public Env {
 public:
  explicit FailAfterEnv(Env* base) : base_(base) {}

  void set_budget(int64_t budget) { budget_.store(budget); }
  int64_t mutations() const { return mutations_.load(); }

  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    VQLDB_RETURN_NOT_OK(Gate());
    VQLDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                           base_->NewAppendableFile(path));
    return std::unique_ptr<WritableFile>(
        new GatedFile(this, std::move(file)));
  }
  Result<std::unique_ptr<WritableFile>> NewTruncatedFile(
      const std::string& path) override {
    VQLDB_RETURN_NOT_OK(Gate());
    VQLDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                           base_->NewTruncatedFile(path));
    return std::unique_ptr<WritableFile>(
        new GatedFile(this, std::move(file)));
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    VQLDB_RETURN_NOT_OK(Gate());
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    VQLDB_RETURN_NOT_OK(Gate());
    return base_->RemoveFile(path);
  }
  Status CreateDir(const std::string& path) override {
    VQLDB_RETURN_NOT_OK(Gate());
    return base_->CreateDir(path);
  }
  Status SyncDir(const std::string& path_in_dir) override {
    VQLDB_RETURN_NOT_OK(Gate());
    return base_->SyncDir(path_in_dir);
  }

 private:
  class GatedFile : public WritableFile {
   public:
    GatedFile(FailAfterEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      VQLDB_RETURN_NOT_OK(env_->Gate());
      return base_->Append(data);
    }
    Status Sync() override {
      VQLDB_RETURN_NOT_OK(env_->Gate());
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    FailAfterEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  Status Gate() {
    mutations_.fetch_add(1);
    int64_t budget = budget_.load();
    if (budget < 0) return Status::OK();
    if (budget == 0) return Status::IOError("injected: budget exhausted");
    budget_.fetch_sub(1);
    return Status::OK();
  }

  Env* base_;
  std::atomic<int64_t> budget_{-1};
  std::atomic<int64_t> mutations_{0};
};

class ShardStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each test as its own process, possibly
    // in parallel, so a shared directory would race.
    root_ = ::testing::TempDir() + "/shard_store_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// Fast deterministic options: bounded retries, no real sleeping.
  static ShardedArchive::Options FastOptions(size_t shards = 4) {
    ShardedArchive::Options options;
    options.shard_count = shards;
    options.backoff.initial_ms = 1;
    options.backoff.max_ms = 2;
    options.backoff.max_attempts = 2;
    options.backoff.seed = 7;
    options.sleep_between_retries = false;
    options.recovery_threads = 2;
    return options;
  }

  static std::unique_ptr<ShardedArchive> MustOpen(
      const std::string& root, ShardedArchive::Options options) {
    auto archive = ShardedArchive::Open(root, std::move(options));
    EXPECT_TRUE(archive.ok()) << archive.status();
    return archive.ok() ? std::move(*archive) : nullptr;
  }

  /// A tenant key that routes to `shard` (probed; routing is stable).
  static std::string TenantFor(const ShardedArchive& archive, uint32_t shard) {
    for (int i = 0;; ++i) {
      std::string tenant = "tenant" + std::to_string(i);
      if (archive.ShardIdFor(tenant) == shard) return tenant;
    }
  }

  /// Serving-copy bytes of one shard (for byte-identity assertions).
  static std::string ShardBytes(ShardedArchive& archive, uint32_t shard) {
    VideoDatabase* db = archive.shard_db(shard);
    EXPECT_NE(db, nullptr);
    auto bytes = BinaryFormat::Serialize(*db);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    return bytes.ok() ? *bytes : std::string();
  }

  /// Seeds every shard with one entity (sym<id>) and one fact over it.
  static void SeedEveryShard(ShardedArchive& archive) {
    for (uint32_t id = 0; id < archive.shard_count(); ++id) {
      std::string tenant = TenantFor(archive, id);
      std::string sym = "sym" + std::to_string(id);
      ASSERT_TRUE(
          archive.Apply(tenant, "object " + sym + " { }.").ok());
      ASSERT_TRUE(archive.Apply(tenant, "tagged(" + sym + ").").ok());
    }
  }

  std::string root_;
};

TEST_F(ShardStoreTest, FreshArchiveCreatesLayoutAndRecoversHealthy) {
  auto archive = MustOpen(root_, FastOptions(3));
  ASSERT_NE(archive, nullptr);
  EXPECT_EQ(archive->shard_count(), 3u);
  EXPECT_TRUE(std::filesystem::exists(root_ + "/MANIFEST"));
  for (uint32_t id = 0; id < 3; ++id) {
    EXPECT_TRUE(std::filesystem::is_directory(root_ + "/shard_" +
                                              std::to_string(id)));
    EXPECT_EQ(archive->shard_state(id), ShardedArchive::ShardState::kHealthy);
    EXPECT_EQ(archive->shard_generation(id), 0u);
  }
}

TEST_F(ShardStoreTest, ManifestWinsOverRequestedShardCountOnReopen) {
  { auto archive = MustOpen(root_, FastOptions(2)); ASSERT_NE(archive, nullptr); }
  auto reopened = MustOpen(root_, FastOptions(8));  // ignored: manifest says 2
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->shard_count(), 2u);
}

TEST_F(ShardStoreTest, TenantRoutingIsStableAndInRange) {
  auto archive = MustOpen(root_, FastOptions(4));
  ASSERT_NE(archive, nullptr);
  std::set<uint32_t> hit;
  for (int i = 0; i < 64; ++i) {
    std::string tenant = "t" + std::to_string(i);
    uint32_t shard = archive->ShardIdFor(tenant);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(archive->ShardIdFor(tenant), shard);  // stable
    EXPECT_EQ(TenantHash(tenant) % 4, shard);       // the documented formula
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 4u);  // 64 tenants spread over all 4 shards
}

TEST_F(ShardStoreTest, ApplyJournalsAndEveryShardRecoversOnReopen) {
  {
    auto archive = MustOpen(root_, FastOptions(4));
    ASSERT_NE(archive, nullptr);
    SeedEveryShard(*archive);
  }
  auto reopened = MustOpen(root_, FastOptions(4));
  ASSERT_NE(reopened, nullptr);
  for (uint32_t id = 0; id < 4; ++id) {
    EXPECT_EQ(reopened->shard_state(id),
              ShardedArchive::ShardState::kHealthy);
    RecoveryReport report = reopened->shard_recovery_report(id);
    EXPECT_EQ(report.records_replayed, 2u) << "shard " << id;
    EXPECT_EQ(report.records_dropped, 0u);
    EXPECT_EQ(reopened->shard_db(id)->fact_count(), 1u);
  }
  auto result = reopened->Query("?- tagged(X).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 4u);  // one row per shard, merged
  EXPECT_FALSE(result->partial);
}

TEST_F(ShardStoreTest, ScatterGatherMergesSortedAndDeduped) {
  auto archive = MustOpen(root_, FastOptions(4));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  auto result = archive->Query("?- tagged(X).");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->columns, std::vector<std::string>{"X"});
  const std::vector<std::vector<std::string>> rows = result->rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_EQ(rows[0], std::vector<std::string>{"sym0"});
  EXPECT_EQ(result->shards_targeted, 4u);
  EXPECT_EQ(result->shards_answered, 4u);
  EXPECT_EQ(result->shards_pruned, 0u);
  EXPECT_FALSE(result->partial);
}

TEST_F(ShardStoreTest, ConstantSymbolPrunesForeignShards) {
  auto archive = MustOpen(root_, FastOptions(4));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  // sym2 is shard 2's local symbol: every other shard is provably empty.
  auto result = archive->Query("?- tagged(sym2).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1u);
  EXPECT_EQ(result->shards_pruned, 3u);
  EXPECT_EQ(result->shards_targeted, 1u);
  EXPECT_EQ(result->shards_answered, 1u);
  // Pruned shards still show up in the per-shard report.
  size_t pruned_reports = 0;
  for (const auto& r : result->reports) pruned_reports += r.pruned ? 1 : 0;
  EXPECT_EQ(pruned_reports, 3u);
}

TEST_F(ShardStoreTest, UndeclaredRelationIsEmptyNotAnError) {
  auto archive = MustOpen(root_, FastOptions(2));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  auto result = archive->Query("?- never_declared(X, Y).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->empty());
  EXPECT_FALSE(result->partial);
  EXPECT_EQ(result->shards_answered, 2u);
}

TEST_F(ShardStoreTest, RulesInstallArchiveWideAndDeriveAcrossShards) {
  auto archive = MustOpen(root_, FastOptions(4));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  ASSERT_TRUE(archive->Apply("anyone", "marked(X) <- tagged(X).").ok());
  auto result = archive->Query("?- marked(X).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 4u);  // the rule fired on every shard
}

TEST_F(ShardStoreTest, ApplyRejectsQueries) {
  auto archive = MustOpen(root_, FastOptions(2));
  ASSERT_NE(archive, nullptr);
  Status st = archive->Apply("t", "?- tagged(X).");
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
}

TEST_F(ShardStoreTest, TornJournalTailIsolatesToOneShard) {
  std::vector<std::string> reference;
  {
    auto archive = MustOpen(root_, FastOptions(4));
    ASSERT_NE(archive, nullptr);
    SeedEveryShard(*archive);
    for (uint32_t id = 0; id < 4; ++id) {
      reference.push_back(ShardBytes(*archive, id));
    }
  }
  // Tear shard 1's journal tail by hand: a record cut mid-payload.
  {
    std::string torn = Journal::FrameRecord("object late { }.");
    torn.resize(torn.size() - 4);
    std::ofstream raw(root_ + "/shard_1/journal-0.wal",
                      std::ios::binary | std::ios::app);
    raw.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }
  auto reopened = MustOpen(root_, FastOptions(4));
  ASSERT_NE(reopened, nullptr);
  for (uint32_t id = 0; id < 4; ++id) {
    EXPECT_EQ(reopened->shard_state(id),
              ShardedArchive::ShardState::kHealthy);
    // Every shard — including the torn one — recovers to exactly the
    // acknowledged state; the torn record contributes nothing.
    EXPECT_EQ(ShardBytes(*reopened, id), reference[id]) << "shard " << id;
  }
  RecoveryReport torn_report = reopened->shard_recovery_report(1);
  EXPECT_TRUE(torn_report.truncated);
  EXPECT_EQ(torn_report.records_dropped, 1u);
  for (uint32_t id : {0u, 2u, 3u}) {
    EXPECT_FALSE(reopened->shard_recovery_report(id).truncated);
  }
}

TEST_F(ShardStoreTest, MissingShardDirectoryFailsOnlyThatShard) {
  {
    auto archive = MustOpen(root_, FastOptions(4));
    ASSERT_NE(archive, nullptr);
    SeedEveryShard(*archive);
  }
  std::filesystem::remove_all(root_ + "/shard_2");
  auto reopened = MustOpen(root_, FastOptions(4));
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->shard_state(2), ShardedArchive::ShardState::kFailed);
  for (uint32_t id : {0u, 1u, 3u}) {
    EXPECT_EQ(reopened->shard_state(id),
              ShardedArchive::ShardState::kHealthy);
  }

  // Strict: the failed shard fails the whole query.
  auto strict = reopened->Query("?- tagged(X).");
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsUnavailable()) << strict.status();

  // Partial: the healthy shards answer and the gap is reported — never a
  // silently complete answer.
  ShardedArchive::QueryOptions partial_opts;
  partial_opts.allow_partial = true;
  auto partial = reopened->Query("?- tagged(X).", partial_opts);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(partial->partial);
  EXPECT_EQ(partial->size(), 3u);
  EXPECT_EQ(partial->shards_answered, 3u);
  ASSERT_EQ(partial->reports.size(), 4u);
  EXPECT_EQ(partial->reports[2].state, "failed");
  EXPECT_FALSE(partial->reports[2].error.empty());
  EXPECT_NE(partial->ToString().find("PARTIAL"), std::string::npos);

  // Writes to the failed shard are refused; other shards still accept.
  std::string failed_tenant = TenantFor(*reopened, 2);
  EXPECT_TRUE(reopened->Apply(failed_tenant, "object x { }.")
                  .IsUnavailable());
  std::string live_tenant = TenantFor(*reopened, 0);
  EXPECT_TRUE(reopened->Apply(live_tenant, "object x { }.").ok());
}

TEST_F(ShardStoreTest, KillAndRecoverShardRoundTrip) {
  auto archive = MustOpen(root_, FastOptions(4));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);

  archive->KillShard(1);
  EXPECT_EQ(archive->shard_state(1), ShardedArchive::ShardState::kFailed);
  EXPECT_EQ(archive->shard_db(1), nullptr);
  EXPECT_TRUE(archive->Query("?- tagged(X).").status().IsUnavailable());

  ShardedArchive::QueryOptions partial_opts;
  partial_opts.allow_partial = true;
  auto partial = archive->Query("?- tagged(X).", partial_opts);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(partial->partial);
  EXPECT_EQ(partial->size(), 3u);

  // Durable state is untouched: recovery restores the shard completely.
  ASSERT_TRUE(archive->RecoverShard(1).ok());
  EXPECT_EQ(archive->shard_state(1), ShardedArchive::ShardState::kHealthy);
  auto full = archive->Query("?- tagged(X).");
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->size(), 4u);
  EXPECT_FALSE(full->partial);
}

// Kill -> partial scatters -> a shard failing mid-scatter -> recover: the
// per-shard answers cached along the way are kept, and every answer served
// afterwards, by a strict scatter or a cache-only lookup, equals the same
// query on a freshly opened archive over the same root. A shard's entry is
// keyed on that shard's own epochs, so it is that shard's complete answer
// whatever its siblings' health; a scatter's completeness comes from shard
// health at scatter time, never from a cache.
TEST_F(ShardStoreTest, DegradedEraCacheEntriesServeCompleteAnswers) {
  ShardedArchive::Options options = FastOptions(4);
  options.eval_options.strict_types = true;
  // Every shard's box holds a set except shard 2's, where `1 in S` meets a
  // non-set: a type error under strict types, on that shard alone.
  const std::string rule = "boxed(O) <- box(O, S), 1 in S.";
  auto archive = MustOpen(root_, options);
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  for (uint32_t id = 0; id < archive->shard_count(); ++id) {
    const std::string box = "box(sym" + std::to_string(id) +
                            (id == 2 ? ", 5)." : ", {1, 2}).");
    ASSERT_TRUE(archive->Apply(TenantFor(*archive, id), box).ok());
  }
  ASSERT_TRUE(archive->Apply(TenantFor(*archive, 0), rule).ok());
  ShardedArchive::QueryOptions partial_opts;
  partial_opts.allow_partial = true;

  // 1. Degraded scatters while shard 1 is down: each reports the gap, and
  // the live shards cache their parts.
  archive->KillShard(1);
  const std::vector<std::string> lookups = {
      "?- tagged(sym0).", "?- tagged(sym3).", "?- boxed(sym3)."};
  auto scan = archive->Query("?- tagged(X).", partial_opts);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->partial);
  EXPECT_EQ(scan->size(), 3u);
  for (const std::string& goal : lookups) {
    auto lookup = archive->Query(goal, partial_opts);
    ASSERT_TRUE(lookup.ok()) << goal << ": " << lookup.status();
    EXPECT_TRUE(lookup->partial) << goal;
    EXPECT_EQ(lookup->size(), 1u) << goal;
  }

  // 2. Shard 2 fails mid-scatter, after shard 0 answered, both while
  // shard 1 is down and once every shard is up again.
  auto degraded = archive->Query("?- boxed(O).", partial_opts);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->partial);
  EXPECT_NE(degraded->reports[2].error.find("non-set"), std::string::npos)
      << degraded->reports[2].error;
  // 3. Recovery.
  ASSERT_TRUE(archive->RecoverShard(1).ok());
  auto failed = archive->Query("?- boxed(O).", partial_opts);
  ASSERT_TRUE(failed.ok()) << failed.status();
  EXPECT_TRUE(failed->partial);
  EXPECT_EQ(failed->size(), 3u);  // sym0, sym1, sym3

  // 4. The degraded-era lookups were kept and are now cache-only hits,
  // reported complete.
  std::vector<std::string> hits;
  for (const std::string& goal : lookups) {
    auto query = Parser::ParseQuery(goal);
    ASSERT_TRUE(query.ok()) << query.status();
    auto hit = archive->CachedQuery(*query);
    ASSERT_TRUE(hit.has_value()) << goal << " was not kept";
    EXPECT_FALSE(hit->partial) << goal;
    hits.push_back(hit->ToString());
  }
  // Strict scatters: their answer, or their error.
  auto answer = [](ShardedArchive& a, const std::string& goal) {
    auto result = a.Query(goal);
    return result.ok() ? result->ToString() : result.status().ToString();
  };
  const std::vector<std::string> strict_goals = {
      "?- tagged(X).", "?- tagged(sym0).", "?- tagged(sym1).",
      "?- boxed(sym3).", "?- boxed(O)."};
  std::vector<std::string> strict_answers;
  for (const std::string& goal : strict_goals) {
    strict_answers.push_back(answer(*archive, goal));
  }
  EXPECT_NE(strict_answers.back().find("non-set"), std::string::npos)
      << strict_answers.back();
  archive.reset();

  // 5. The reference: a fresh archive over the same root, with the rules
  // (which are not journaled) installed again.
  auto fresh = MustOpen(root_, options);
  ASSERT_NE(fresh, nullptr);
  ASSERT_TRUE(fresh->Apply(TenantFor(*fresh, 0), rule).ok());
  for (size_t i = 0; i < lookups.size(); ++i) {
    EXPECT_EQ(hits[i], answer(*fresh, lookups[i])) << lookups[i];
  }
  for (size_t i = 0; i < strict_goals.size(); ++i) {
    EXPECT_EQ(strict_answers[i], answer(*fresh, strict_goals[i]))
        << strict_goals[i];
  }
}

TEST_F(ShardStoreTest, RecoveryRetriesWithBackoffUntilTheFaultClears) {
  {
    auto archive = MustOpen(root_, FastOptions(2));
    ASSERT_NE(archive, nullptr);
    SeedEveryShard(*archive);
  }
  // The shard directory is gone; the third recovery attempt "repairs" the
  // disk (as an operator would), so retries must carry the shard through.
  std::string victim_dir = root_ + "/shard_0";
  std::filesystem::path saved = root_ + "_saved_shard";
  std::filesystem::rename(victim_dir, saved);

  std::atomic<int> attempts{0};
  ShardedArchive::Options options = FastOptions(2);
  options.defer_recovery = true;
  options.backoff.max_attempts = 5;
  options.recovery_hook = [&](uint32_t shard_id) {
    if (shard_id != 0) return;
    if (attempts.fetch_add(1) + 1 == 3) {
      std::filesystem::rename(saved, victim_dir);
    }
  };
  auto archive = MustOpen(root_, std::move(options));
  ASSERT_NE(archive, nullptr);
  EXPECT_EQ(archive->shard_state(0),
            ShardedArchive::ShardState::kRecovering);
  ASSERT_TRUE(archive->RecoverAll().ok());
  EXPECT_EQ(archive->shard_state(0), ShardedArchive::ShardState::kHealthy);
  EXPECT_EQ(attempts.load(), 3);
  auto result = archive->Query("?- tagged(X).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 2u);
}

TEST_F(ShardStoreTest, JournalAppendFaultDegradesShardToReadOnly) {
  {
    auto archive = MustOpen(root_, FastOptions(4));
    ASSERT_NE(archive, nullptr);
    SeedEveryShard(*archive);
  }
  // Every write to shard 3's journal tears; everything else is clean.
  FaultOptions faults;
  faults.seed = 3;
  faults.write_fault_p = 1.0;
  faults.path_substring = "shard_3/journal";
  FaultInjectingEnv env(Env::Default(), faults);
  ShardedArchive::Options options = FastOptions(4);
  options.env = &env;
  auto archive = MustOpen(root_, std::move(options));
  ASSERT_NE(archive, nullptr);
  EXPECT_EQ(archive->shard_state(3), ShardedArchive::ShardState::kHealthy);

  std::string tenant = TenantFor(*archive, 3);
  Status st = archive->Apply(tenant, "object fresh { }.");
  EXPECT_TRUE(st.IsIOError()) << st;
  EXPECT_EQ(archive->shard_state(3), ShardedArchive::ShardState::kDegraded);

  // Read-only: further writes refuse, queries still answer in full (a
  // degraded shard serves; it only cannot log).
  EXPECT_TRUE(archive->Apply(tenant, "object again { }.").IsUnavailable());
  auto result = archive->Query("?- tagged(X).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 4u);
  EXPECT_FALSE(result->partial);
  std::string other_tenant = TenantFor(*archive, 0);
  EXPECT_TRUE(archive->Apply(other_tenant, "object fine { }.").ok());
}

TEST_F(ShardStoreTest, SnapshotRotatesGenerationAndTruncatesJournal) {
  auto archive = MustOpen(root_, FastOptions(2));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);

  ASSERT_TRUE(archive->SnapshotShard(0).ok());
  EXPECT_EQ(archive->shard_generation(0), 1u);
  EXPECT_TRUE(std::filesystem::exists(root_ + "/shard_0/snapshot-1.vqdb"));
  EXPECT_TRUE(std::filesystem::exists(root_ + "/shard_0/journal-1.wal"));
  EXPECT_FALSE(std::filesystem::exists(root_ + "/shard_0/journal-0.wal"));
  EXPECT_EQ(std::filesystem::file_size(root_ + "/shard_0/journal-1.wal"),
            0u);  // truncation: the journal restarts empty

  // Post-rotation writes land in the new journal and survive reopen.
  std::string tenant = TenantFor(*archive, 0);
  ASSERT_TRUE(archive->Apply(tenant, "object post { }.").ok());
  std::string reference = ShardBytes(*archive, 0);
  archive.reset();

  auto reopened = MustOpen(root_, FastOptions(2));
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->shard_generation(0), 1u);
  RecoveryReport report = reopened->shard_recovery_report(0);
  EXPECT_EQ(report.records_replayed, 1u);  // only the post-rotation record
  EXPECT_EQ(ShardBytes(*reopened, 0), reference);
}

TEST_F(ShardStoreTest, SnapshotAllRotatesEveryShard) {
  auto archive = MustOpen(root_, FastOptions(3));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  ASSERT_TRUE(archive->SnapshotAll().ok());
  for (uint32_t id = 0; id < 3; ++id) {
    EXPECT_EQ(archive->shard_generation(id), 1u);
  }
}

// The rotation crash-point sweep: fail the filesystem after exactly k
// mutating operations, for every k from 0 until the rotation runs clean.
// At every crash point the reopened shard must hold exactly the
// acknowledged facts — the generation protocol never has a window where a
// crash loses the journal and the snapshot at once.
TEST_F(ShardStoreTest, RotationCrashPointsNeverLoseAcknowledgedData) {
  bool completed = false;
  for (int64_t k = 0; k < 64 && !completed; ++k) {
    std::filesystem::remove_all(root_);
    FailAfterEnv env(Env::Default());
    ShardedArchive::Options options = FastOptions(2);
    options.env = &env;
    std::string reference;
    Status rotated;
    {
      auto archive = MustOpen(root_, std::move(options));
      ASSERT_NE(archive, nullptr);
      SeedEveryShard(*archive);
      reference = ShardBytes(*archive, 0);
      env.set_budget(k);
      rotated = archive->SnapshotShard(0);
    }
    auto reopened = MustOpen(root_, FastOptions(2));
    ASSERT_NE(reopened, nullptr) << "crash point k=" << k;
    EXPECT_EQ(reopened->shard_state(0),
              ShardedArchive::ShardState::kHealthy)
        << "crash point k=" << k;
    EXPECT_EQ(ShardBytes(*reopened, 0), reference) << "crash point k=" << k;
    if (rotated.ok()) {
      EXPECT_EQ(reopened->shard_generation(0), 1u);
      completed = true;  // the whole protocol fit in the budget
    } else {
      EXPECT_EQ(reopened->shard_generation(0), 0u)
          << "crash point k=" << k << ": " << rotated;
    }
  }
  EXPECT_TRUE(completed) << "rotation never succeeded within the op budget";
}

TEST_F(ShardStoreTest, HealthyShardsServeWhileAnotherRecovers) {
  {
    auto archive = MustOpen(root_, FastOptions(4));
    ASSERT_NE(archive, nullptr);
    SeedEveryShard(*archive);
  }
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool victim_entered = false;

  ShardedArchive::Options options = FastOptions(4);
  options.defer_recovery = true;
  options.recovery_threads = 4;
  options.recovery_hook = [&](uint32_t shard_id) {
    if (shard_id != 0) return;
    std::unique_lock<std::mutex> lock(mu);
    victim_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  auto archive = MustOpen(root_, std::move(options));
  ASSERT_NE(archive, nullptr);

  std::thread recovery([&] { (void)archive->RecoverAll(); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return victim_entered; });
  }
  // Shard 0 is pinned in kRecovering; wait for the other three to finish.
  for (uint32_t id : {1u, 2u, 3u}) {
    while (archive->shard_state(id) !=
           ShardedArchive::ShardState::kHealthy) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(archive->shard_state(0),
            ShardedArchive::ShardState::kRecovering);

  // The archive answers (partially) while the victim recovers.
  ShardedArchive::QueryOptions partial_opts;
  partial_opts.allow_partial = true;
  auto during = archive->Query("?- tagged(X).", partial_opts);
  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_TRUE(during->partial);
  EXPECT_EQ(during->size(), 3u);
  ASSERT_EQ(during->reports.size(), 4u);
  EXPECT_EQ(during->reports[0].state, "recovering");

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  recovery.join();
  EXPECT_EQ(archive->shard_state(0), ShardedArchive::ShardState::kHealthy);
  auto after = archive->Query("?- tagged(X).");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->size(), 4u);
  EXPECT_FALSE(after->partial);
}

// Scatters run concurrently: the archive holds no lock of its own around
// reads, only the shard locks. Readers mix strict and partial scatters with
// cache-only lookups while a writer invalidates every shard in turn (with
// facts of a relation no goal reads) and an operator kills and recovers a
// shard. Answers to the goals never change: strict ones are complete or
// Unavailable, partial ones complete or flagged partial over a subset of
// the rows, and a cache-only lookup is complete or declines.
TEST_F(ShardStoreTest, ConcurrentScattersWritesAndRecovery) {
  ShardedArchive::Options options = FastOptions(4);
  options.durability = Journal::Durability::kFlush;
  auto archive = MustOpen(root_, std::move(options));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  for (uint32_t id = 0; id < 4; ++id) {
    const std::string sym = "sym" + std::to_string(id);
    ASSERT_TRUE(archive
                    ->Apply(TenantFor(*archive, id),
                            "link(" + sym + ", " + sym + "). note(" + sym +
                                ", 0).")
                    .ok());
  }
  const std::vector<std::string> goals = {
      "?- tagged(sym1).", "?- link(sym2, Y).", "?- tagged(sym3).",
      "?- link(X, sym0).", "?- tagged(X).", "?- link(X, Y)."};
  std::vector<std::string> expected;
  std::vector<Query> parsed;
  for (const std::string& goal : goals) {
    auto result = archive->Query(goal);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(result->ToString());
    auto query = Parser::ParseQuery(goal);
    ASSERT_TRUE(query.ok()) << query.status();
    parsed.push_back(std::move(*query));
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int k = 1; !done.load(); ++k) {
      const uint32_t id = static_cast<uint32_t>(k) % 4;
      const std::string text = "note(sym" + std::to_string(id) + ", " +
                               std::to_string(k) + ").";
      Status st = archive->Apply(TenantFor(*archive, id), text);
      EXPECT_TRUE(st.ok() || st.IsUnavailable()) << st;
    }
  });
  std::thread operator_thread([&] {
    for (int cycle = 0; cycle < 6; ++cycle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      archive->KillShard(2);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      EXPECT_TRUE(archive->RecoverShard(2).ok());
    }
  });
  std::atomic<size_t> complete{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const size_t g = static_cast<size_t>(i * 5 + t) % goals.size();
        SCOPED_TRACE(goals[g]);
        if (i % 3 == 2) {
          auto hit = archive->CachedQuery(parsed[g]);
          if (hit.has_value()) {
            EXPECT_EQ(hit->ToString(), expected[g]);
          }
          continue;
        }
        ShardedArchive::QueryOptions query_options;
        query_options.allow_partial = i % 3 == 1;
        auto got = archive->Query(parsed[g], query_options);
        if (!got.ok()) {
          EXPECT_FALSE(query_options.allow_partial) << got.status();
          EXPECT_TRUE(got.status().IsUnavailable()) << got.status();
          continue;
        }
        if (!got->partial) {
          EXPECT_EQ(got->ToString(), expected[g]);
          ++complete;
          continue;
        }
        EXPECT_TRUE(query_options.allow_partial);
        EXPECT_LT(got->shards_answered, got->shards_targeted);
        // Every row it has is a row of the complete answer.
        const std::string& rows = got->rendered->text();
        for (size_t at = 0; at < rows.size();) {
          const size_t end = rows.find('\n', at) + 1;
          EXPECT_NE(expected[g].find("\n" + rows.substr(at, end - at)),
                    std::string::npos)
              << got->ToString();
          at = end;
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  operator_thread.join();
  done.store(true);
  writer.join();

  EXPECT_GT(complete.load(), 0u);
  // Quiet again: every answer is the first one, and the one-shard lookups
  // (the first four goals) are served from the cache.
  for (size_t g = 0; g < goals.size(); ++g) {
    auto result = archive->Query(goals[g]);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->ToString(), expected[g]) << goals[g];
    auto hit = archive->CachedQuery(parsed[g]);
    EXPECT_EQ(hit.has_value(), g < 4) << goals[g];
    if (hit.has_value()) {
      EXPECT_EQ(hit->ToString(), expected[g]);
    }
  }
}

TEST_F(ShardStoreTest, SysShardsReportsEveryShardThroughArchiveQueries) {
  auto archive = MustOpen(root_, FastOptions(3));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  archive->KillShard(1);

  // Every shard's session seeds the same archive-wide rows, so the merged
  // (deduped) answer is exactly one row per shard.
  ShardedArchive::QueryOptions partial_opts;
  partial_opts.allow_partial = true;
  auto result =
      archive->Query("?- sys_shards(S, St, F, R, D, Rec, E).", partial_opts);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 3u);
  std::set<std::string> states;
  for (const auto& row : result->rows()) {
    ASSERT_EQ(row.size(), 7u);
    states.insert(row[1]);
  }
  EXPECT_TRUE(states.count("\"healthy\"") || states.count("healthy"));
  EXPECT_TRUE(states.count("\"failed\"") || states.count("failed"));

  // The provider itself (what the rows are built from) matches.
  std::vector<ShardInfoRow> info = archive->ShardInfo();
  ASSERT_EQ(info.size(), 3u);
  EXPECT_EQ(info[1].state, "failed");
  EXPECT_EQ(info[1].last_error, "killed");
  EXPECT_EQ(info[0].state, "healthy");
  EXPECT_EQ(info[0].facts, 1);
}

TEST_F(ShardStoreTest, ExplainAnalyzeShowsScatterGatherBreakdown) {
  auto archive = MustOpen(root_, FastOptions(2));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  auto plain = archive->Explain("?- tagged(X).", false);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_NE(plain->find("sharded archive:"), std::string::npos);
  EXPECT_NE(plain->find("shard storage:"), std::string::npos);
  EXPECT_NE(plain->find("shard 0 [healthy]"), std::string::npos);
  EXPECT_EQ(plain->find("scatter-gather"), std::string::npos);

  auto analyzed = archive->Explain("?- tagged(X).", true);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed->find("scatter-gather"), std::string::npos);
  EXPECT_NE(analyzed->find("targeted 2, answered 2"), std::string::npos);
  EXPECT_NE(analyzed->find("(2 answers)"), std::string::npos);
}

TEST_F(ShardStoreTest, ShardRecoveriesCounterAndGaugeMove) {
  auto archive = MustOpen(root_, FastOptions(2));
  ASSERT_NE(archive, nullptr);
  SeedEveryShard(*archive);
  std::vector<ShardInfoRow> before = archive->ShardInfo();
  archive->KillShard(0);
  ASSERT_TRUE(archive->RecoverShard(0).ok());
  std::vector<ShardInfoRow> after = archive->ShardInfo();
  EXPECT_EQ(after[0].recoveries, before[0].recoveries + 1);
}

}  // namespace
}  // namespace vqldb
