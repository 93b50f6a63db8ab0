// The archive scatter's merge against a reference kept here: the algorithm
// the scatter used before it merged pre-sorted shard renderings. Every
// answering shard's rows are evaluated on a private, uncached session over
// that shard's database, every cell is rendered to a std::string, the cell
// vectors are std::sort-ed and std::unique-d, and the result is printed.
// Seeded random archives of 1-4 shards hold rows duplicated across shards,
// cells with ' ', ',' and '"', numbers whose text order differs from their
// numeric order, and shards that hold nothing; each goal is asked twice
// (shard caches miss, then hit), also with a shard killed under
// allow_partial (a degraded scatter, whose live shards keep caching). The
// cache-only lookup the server answers on its IO thread (CachedQuery) must
// give Query()'s bytes for every goal pruned to one shard, and nothing
// otherwise; it and a one-shard scatter share the shard cache entry's rows.
// The block merge itself (MergeRuns) is checked against the same reference
// over 1-8 seeded runs of every shape a scan can meet.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/storage/shard_store.h"

namespace vqldb {
namespace {

constexpr const char* kRules[] = {
    "pair(O, L, N) <- tag(O, L), num(O, N).",
    "dup(O, L) <- tag(O, L).",
    "dup(O, L) <- alias(O, L).",
};

constexpr const char* kGoals[] = {
    "?- tag(O, L).",
    "?- tag(O, \"a b\").",
    "?- tag(o1, L).",
    "?- tag(o1, \"a\").",
    "?- tag(o9, \"zz\").",
    "?- num(O, N).",
    "?- pair(O, L, N).",
    "?- dup(O, L).",
    "?- dup(O, O).",
    "?- alias(X, Y).",
    "?- never_declared(X).",
};

// Labels sort differently as cells than as joined lines: "a" < "a b" as
// cells, but "a, x" > "a b, x" as lines.
constexpr const char* kLabels[] = {
    "\"a\"",    "\"a b\"", "\"a, b\"", "\"a,b\"", "\"say \\\"hi\\\"\"",
    "\"b\"",    "\"\"",    "\"a b,\"", "\" a\"",
};
constexpr const char* kSymbols[] = {"o1", "o10", "o2", "o1x", "oa", "o9"};
constexpr const char* kNumbers[] = {"1", "10", "2", "-3", "2.5", "100"};

std::string TenantFor(const ShardedArchive& archive, uint32_t shard) {
  for (int i = 0;; ++i) {
    std::string tenant = "tenant" + std::to_string(i);
    if (archive.ShardIdFor(tenant) == shard) return tenant;
  }
}

/// The pre-merge algorithm: every cell of every live shard's answer
/// rendered to a string, then sort, unique and print.
std::string ReferenceBody(ShardedArchive& archive, const std::string& goal,
                          const std::vector<uint32_t>& dead) {
  // Columns come from the goal (its distinct variables in order), since no
  // shard need answer.
  std::vector<std::string> columns;
  auto query = Parser::ParseQuery(goal);
  EXPECT_TRUE(query.ok()) << query.status();
  for (const Term& t : query->goal.args) {
    if (t.kind == Term::Kind::kVariable &&
        std::find(columns.begin(), columns.end(), t.variable) ==
            columns.end()) {
      columns.push_back(t.variable);
    }
  }
  std::vector<std::vector<std::string>> rows;
  bool partial = false;
  for (uint32_t id = 0; id < archive.shard_count(); ++id) {
    if (std::find(dead.begin(), dead.end(), id) != dead.end()) {
      partial = true;
      continue;
    }
    VideoDatabase* db = archive.shard_db(id);
    QuerySession session(db);
    session.set_cache_enabled(false);
    for (const char* rule : kRules) EXPECT_TRUE(session.AddRule(rule).ok());
    auto answer = session.Query(goal);
    if (!answer.ok()) {
      // A symbol or relation the shard never saw: provably empty.
      EXPECT_TRUE(answer.status().IsNotFound()) << answer.status();
      continue;
    }
    EXPECT_EQ(answer->columns, columns);
    for (const auto& row : answer->rows) {
      std::vector<std::string> cells;
      for (const Value& v : row) {
        cells.push_back(v.is_oid() ? db->DisplayName(v.oid_value())
                                   : v.ToString());
      }
      rows.push_back(std::move(cells));
    }
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::string out = "(" + std::to_string(rows.size()) +
                    (rows.size() == 1 ? " answer)" : " answers)");
  if (!columns.empty()) {
    out += " [";
    for (size_t i = 0; i < columns.size(); ++i) {
      out += (i ? ", " : "") + columns[i];
    }
    out += "]";
  }
  out += partial ? " PARTIAL\n" : "\n";
  for (const auto& row : rows) {
    out += "  ";
    for (size_t i = 0; i < row.size(); ++i) out += (i ? ", " : "") + row[i];
    out += "\n";
  }
  return out;
}

class ArchiveMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/archive_merge_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  static ShardedArchive::Options Options(size_t shards) {
    ShardedArchive::Options options;
    options.shard_count = shards;
    options.durability = Journal::Durability::kFlush;
    options.backoff.initial_ms = 1;
    options.backoff.max_ms = 2;
    options.backoff.max_attempts = 2;
    options.sleep_between_retries = false;
    options.recovery_threads = 2;
    return options;
  }

  /// Fills every shard but the last (which stays empty when there are
  /// several) with random facts over shard-local symbols. The pools are
  /// small, so the same rows land on several shards.
  static void Populate(ShardedArchive& archive, uint32_t seed) {
    std::mt19937 rng(seed);
    auto pick = [&](const auto& pool) {
      return std::string(pool[rng() % std::size(pool)]);
    };
    const uint32_t filled = archive.shard_count() == 1
                                ? 1
                                : static_cast<uint32_t>(archive.shard_count()) - 1;
    for (uint32_t id = 0; id < filled; ++id) {
      const std::string tenant = TenantFor(archive, id);
      std::string program;
      for (const char* sym : kSymbols) {
        if (rng() % 4 != 0) program += "object " + std::string(sym) + " { }. ";
      }
      ASSERT_TRUE(archive.Apply(tenant, program).ok()) << program;
      auto resolves = [&](const std::string& sym) {
        return archive.shard_db(id)->Resolve(sym).ok();
      };
      for (int i = 0; i < 12; ++i) {
        const std::string sym = pick(kSymbols);
        if (!resolves(sym)) continue;
        std::string text;
        switch (rng() % 3) {
          case 0:
            text = "tag(" + sym + ", " + pick(kLabels) + ").";
            break;
          case 1:
            text = "num(" + sym + ", " + pick(kNumbers) + ").";
            break;
          default: {
            std::string other = pick(kSymbols);
            if (!resolves(other)) other = sym;
            text = "alias(" + sym + ", " + other + ").";
            break;
          }
        }
        ASSERT_TRUE(archive.Apply(tenant, text).ok()) << text;
      }
    }
    for (const char* rule : kRules) {
      ASSERT_TRUE(archive.Apply("rules", rule).ok()) << rule;
    }
  }

  /// Asks every goal twice and compares each answer with the reference.
  static void ExpectEveryGoalMatches(ShardedArchive& archive,
                                     const std::vector<uint32_t>& dead) {
    ShardedArchive::QueryOptions options;
    options.allow_partial = !dead.empty();
    for (const char* goal : kGoals) {
      SCOPED_TRACE(goal);
      const std::string want = ReferenceBody(archive, goal, dead);
      for (int ask = 0; ask < 2; ++ask) {
        auto got = archive.Query(goal, options);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got->partial, !dead.empty());
        const std::string body = got->ToString();
        // A partial answer ends with its completeness report.
        EXPECT_EQ(body.substr(0, want.size()), want) << "ask " << ask;
        EXPECT_EQ(body.size() > want.size(), !dead.empty()) << body;
        // The decoded cells agree with the text.
        const auto rows = got->rows();
        ASSERT_EQ(rows.size(), got->size());
        EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
        EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end());
      }
    }
  }

  /// Asks every goal of kGoals and a sys_* goal once through CachedQuery()
  /// before Query() and once after: nothing before (the shard caches are
  /// cold), and after, Query()'s result exactly when the goal targets one
  /// shard that can evaluate it. Returns how many goals it served.
  static size_t ExpectCachedLookupsMatch(ShardedArchive& archive) {
    std::vector<std::string> goals(std::begin(kGoals), std::end(kGoals));
    goals.push_back("?- sys_shards(S, St, F, R, D, Rec, E).");
    obs::Counter* misses = obs::MetricsRegistry::Global().GetCounter(
        "vqldb_query_cache_misses_total", "");
    size_t served = 0;
    for (const std::string& goal : goals) {
      SCOPED_TRACE(goal);
      auto query = Parser::ParseQuery(goal);
      EXPECT_TRUE(query.ok()) << query.status();
      if (!query.ok()) continue;
      const uint64_t misses_before = misses->value();
      EXPECT_FALSE(archive.CachedQuery(*query).has_value());
      EXPECT_EQ(misses->value(), misses_before);  // a declined lookup counts
                                                  // nothing
      auto got = archive.Query(goal);
      EXPECT_TRUE(got.ok()) << got.status();
      if (!got.ok()) continue;
      // Servable: one shard targeted, the goal not sys_*, and that shard
      // evaluates it (a relation it never saw is NotFound, never cached).
      bool servable = got->shards_targeted == 1 &&
                      goal.find("sys_") == std::string::npos;
      for (const auto& report : got->reports) {
        if (!servable || report.pruned) continue;
        QuerySession probe(archive.shard_db(report.shard_id));
        probe.set_cache_enabled(false);
        for (const char* rule : kRules) EXPECT_TRUE(probe.AddRule(rule).ok());
        servable = probe.Query(goal).ok();
      }
      auto cached = archive.CachedQuery(*query);
      EXPECT_EQ(cached.has_value(), servable) << got->ToString();
      if (!cached.has_value() || !servable) continue;
      ++served;
      EXPECT_EQ(cached->ToString(), got->ToString());
      EXPECT_EQ(cached->columns, got->columns);
      EXPECT_EQ(cached->rows(), got->rows());
      EXPECT_FALSE(cached->partial);
      EXPECT_EQ(cached->shards_targeted, 1u);
      EXPECT_EQ(cached->shards_answered, got->shards_answered);
      EXPECT_EQ(cached->shards_pruned, got->shards_pruned);
      EXPECT_EQ(cached->reports.size(), got->reports.size());
      for (size_t i = 0; i < got->reports.size() &&
                         i < cached->reports.size();
           ++i) {
        EXPECT_EQ(cached->reports[i].shard_id, got->reports[i].shard_id);
        EXPECT_EQ(cached->reports[i].state, got->reports[i].state);
        EXPECT_EQ(cached->reports[i].pruned, got->reports[i].pruned);
        EXPECT_EQ(cached->reports[i].answered, got->reports[i].answered);
        EXPECT_EQ(cached->reports[i].rows, got->reports[i].rows);
      }
    }
    return served;
  }

  std::string root_;
};

TEST_F(ArchiveMergeTest, MergedAnswersMatchTheSortAndUniqueReference) {
  for (size_t shards = 1; shards <= 4; ++shards) {
    for (uint32_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", seed " +
                   std::to_string(seed));
      std::filesystem::remove_all(root_);
      auto archive = ShardedArchive::Open(root_, Options(shards));
      ASSERT_TRUE(archive.ok()) << archive.status();
      Populate(**archive, seed * 101 + static_cast<uint32_t>(shards));
      ExpectEveryGoalMatches(**archive, {});
    }
  }
}

TEST_F(ArchiveMergeTest, KilledShardUnderAllowPartialMatchesTheReference) {
  for (size_t shards = 2; shards <= 4; ++shards) {
    for (uint32_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", seed " +
                   std::to_string(seed));
      std::filesystem::remove_all(root_);
      auto archive = ShardedArchive::Open(root_, Options(shards));
      ASSERT_TRUE(archive.ok()) << archive.status();
      ShardedArchive& a = **archive;
      Populate(a, seed * 7 + static_cast<uint32_t>(shards));
      // Warm the shard caches with complete scatters first.
      ExpectEveryGoalMatches(a, {});
      // A degraded scatter: the live shards answer from and fill their
      // caches as in a complete one.
      a.KillShard(0);
      ExpectEveryGoalMatches(a, {0});
      ASSERT_TRUE(a.RecoverShard(0).ok());
      ExpectEveryGoalMatches(a, {});
    }
  }
}

TEST_F(ArchiveMergeTest, RowsOrderByCellsNotByJoinedLines) {
  // The language only makes identifier symbols, but a database binds any
  // non-empty symbol. With cells "a" and "a b", the cell tuples order
  // (a, z) first, while the joined lines "a, z" and "a b, y" order the
  // other way round (',' sorts after ' ').
  auto archive = ShardedArchive::Open(root_, Options(2));
  ASSERT_TRUE(archive.ok()) << archive.status();
  ShardedArchive& a = **archive;
  auto seed = [&](uint32_t shard, const std::vector<std::string>& row) {
    VideoDatabase* db = a.shard_db(shard);
    std::vector<Value> args;
    for (const std::string& symbol : row) {
      auto id = db->Resolve(symbol);
      args.push_back(
          Value::Oid(id.ok() ? *id : *db->CreateEntity(symbol)));
    }
    ASSERT_TRUE(db->AssertFact("rel", args).ok());
  };
  seed(0, {"a b", "y"});
  seed(0, {"a", "z"});
  seed(1, {"a", "z"});
  seed(1, {"a!", "x"});
  seed(1, {"a b", "y"});
  const std::string want = ReferenceBody(a, "?- rel(X, Y).", {});
  EXPECT_EQ(want, "(3 answers) [X, Y]\n  a, z\n  a b, y\n  a!, x\n");
  for (int ask = 0; ask < 2; ++ask) {
    auto got = a.Query("?- rel(X, Y).");
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->ToString(), want) << "ask " << ask;
  }
}

TEST_F(ArchiveMergeTest, CachedLookupsMatchTheScatterOnOneShardGoals) {
  size_t served = 0;
  size_t declined = 0;
  for (size_t shards = 1; shards <= 4; ++shards) {
    for (uint32_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", seed " +
                   std::to_string(seed));
      std::filesystem::remove_all(root_);
      auto archive = ShardedArchive::Open(root_, Options(shards));
      ASSERT_TRUE(archive.ok()) << archive.status();
      ShardedArchive& a = **archive;
      Populate(a, seed * 101 + static_cast<uint32_t>(shards));
      const size_t n = ExpectCachedLookupsMatch(a);
      served += n;
      declined += std::size(kGoals) + 1 - n;
      // Every goal is cached where it can be now, but while any shard is
      // down the lookup serves nothing: a worker answers, strictly or
      // PARTIAL.
      a.KillShard(static_cast<uint32_t>(shards) - 1);
      for (const char* goal : kGoals) {
        auto query = Parser::ParseQuery(goal);
        ASSERT_TRUE(query.ok());
        EXPECT_FALSE(a.CachedQuery(*query).has_value()) << goal;
      }
    }
  }
  // Both outcomes occur: one-shard lookups, and scans, misses and sys_*.
  EXPECT_GT(served, 20u);
  EXPECT_GT(declined, 20u);
}

TEST_F(ArchiveMergeTest, CachedLookupServesTheMergeOrder) {
  // k1 resolves only on shard 1, whose rows were created a, z, a!, x,
  // a b, y: their value order (a, a!, a b) is not their cell order
  // (a, a b, a!), which is the order Query() merges into.
  auto archive = ShardedArchive::Open(root_, Options(2));
  ASSERT_TRUE(archive.ok()) << archive.status();
  ShardedArchive& a = **archive;
  VideoDatabase* db = a.shard_db(1);
  for (const std::vector<std::string>& row :
       std::vector<std::vector<std::string>>{
           {"k1", "a", "z"}, {"k1", "a!", "x"}, {"k1", "a b", "y"}}) {
    std::vector<Value> args;
    for (const std::string& symbol : row) {
      auto id = db->Resolve(symbol);
      args.push_back(Value::Oid(id.ok() ? *id : *db->CreateEntity(symbol)));
    }
    ASSERT_TRUE(db->AssertFact("rel", args).ok());
  }
  const std::string want = "(3 answers) [X, Y]\n  a, z\n  a b, y\n  a!, x\n";
  auto query = Parser::ParseQuery("?- rel(k1, X, Y).");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_FALSE(a.CachedQuery(*query).has_value());
  auto got = a.Query(*query, {});
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->ToString(), want);
  EXPECT_EQ(got->shards_pruned, 1u);
  auto cached = a.CachedQuery(*query);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->ToString(), want);
}

TEST_F(ArchiveMergeTest, OneShardAnswersShareTheCacheEntrysRows) {
  // k1 lives on shard 1 only; rel(X, Y, Z) spans both shards.
  auto archive = ShardedArchive::Open(root_, Options(2));
  ASSERT_TRUE(archive.ok()) << archive.status();
  ShardedArchive& a = **archive;
  for (uint32_t shard : {0u, 1u}) {
    VideoDatabase* db = a.shard_db(shard);
    const std::string key = shard == 0 ? "k0" : "k1";
    for (const char* cell : {"a", "a b", "a!"}) {
      std::vector<Value> args;
      for (const std::string& symbol : {key, std::string(cell)}) {
        auto id = db->Resolve(symbol);
        args.push_back(
            Value::Oid(id.ok() ? *id : *db->CreateEntity(symbol)));
      }
      args.push_back(Value::Int(static_cast<int64_t>(shard)));
      ASSERT_TRUE(db->AssertFact("rel", args).ok());
    }
  }
  auto lookup = Parser::ParseQuery("?- rel(k1, X, N).");
  ASSERT_TRUE(lookup.ok()) << lookup.status();
  // A worker's one-shard scatter, missing then hitting, and the IO
  // thread's cache-only lookup all hand out the one cached object: no row
  // is compared or copied.
  auto missed = a.Query(*lookup, {});
  ASSERT_TRUE(missed.ok()) << missed.status();
  EXPECT_EQ(missed->ToString(),
            "(3 answers) [X, N]\n  a, 1\n  a b, 1\n  a!, 1\n");
  auto hit = a.Query(*lookup, {});
  ASSERT_TRUE(hit.ok()) << hit.status();
  auto cached = a.CachedQuery(*lookup);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(hit->rendered.get(), missed->rendered.get());
  EXPECT_EQ(cached->rendered.get(), missed->rendered.get());
  EXPECT_EQ(cached->ToString(), missed->ToString());

  // A scan merges two shard entries into rows of its own.
  auto scan = Parser::ParseQuery("?- rel(K, X, N).");
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto scanned = a.Query(*scan, {});
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_EQ(scanned->size(), 6u);
  EXPECT_NE(scanned->rendered.get(), missed->rendered.get());

  // The scan cached a merge-ordered entry on shard 0, the representative
  // EXPLAIN plans on: its cache line reports the hit.
  auto explained = a.Explain("?- rel(K, X, N).", false);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->find("query cache: hit"), std::string::npos)
      << *explained;
  explained = a.Explain("?- rel(k0, X, N).", false);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->find("query cache: miss"), std::string::npos)
      << *explained;
}

TEST(MergeRunsTest, BlockMergeMatchesTheSortAndUniqueReference) {
  // Cells that are prefixes of one another or hold ", " order differently
  // as cells than as joined lines.
  VideoDatabase db;
  const std::vector<std::string> shared = {"a", "a b", "a!", "a, b", "ab",
                                           "b", "o1", "o10", "o2"};
  std::vector<Value> shared_oids;
  for (const std::string& symbol : shared) {
    shared_oids.push_back(Value::Oid(*db.CreateEntity(symbol)));
  }
  std::vector<std::vector<Value>> tenant_oids(8);
  for (size_t t = 0; t < tenant_oids.size(); ++t) {
    for (int i = 0; i < 40; ++i) {
      tenant_oids[t].push_back(Value::Oid(*db.CreateEntity(
          "t" + std::to_string(t) + "_o" + std::to_string(i))));
    }
  }
  const std::vector<Value> scalars = {Value::Int(-3), Value::Int(2),
                                      Value::Int(10), Value::String("a"),
                                      Value::String("a b")};
  auto cell_of = [&](const Value& v) {
    return v.is_oid() ? db.DisplayName(v.oid_value()) : v.ToString();
  };

  enum Shape { kPartitioned, kInterleaved, kRepeated, kShapes };
  std::mt19937 rng(2027);
  size_t shared_merges = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Shape shape = static_cast<Shape>(trial % kShapes);
    const size_t run_count = 1 + rng() % 8;
    const size_t columns = rng() % 6 == 0 ? 0 : 1 + rng() % 3;
    SCOPED_TRACE("trial " + std::to_string(trial) + ", shape " +
                 std::to_string(shape) + ", " + std::to_string(run_count) +
                 " runs of " + std::to_string(columns) + " columns");
    // kRepeated: every run holds the same rows.
    std::vector<std::vector<Value>> repeated;
    std::vector<std::shared_ptr<const RenderedRows>> runs;
    std::vector<std::vector<std::string>> reference;
    for (size_t r = 0; r < run_count; ++r) {
      std::vector<std::vector<Value>> rows;
      const size_t row_count = rng() % 5 == 0 ? 0 : rng() % 60;
      for (size_t i = 0; i < row_count; ++i) {
        std::vector<Value> row;
        for (size_t c = 0; c < columns; ++c) {
          // Partitioned runs lead with their tenant's symbols, so long
          // stretches of one run merge as a block; interleaved runs draw
          // from one pool, so rows alternate run by run and repeat.
          if (c == 0 && shape == kPartitioned) {
            row.push_back(tenant_oids[r][rng() % tenant_oids[r].size()]);
          } else if (rng() % 3 == 0) {
            row.push_back(scalars[rng() % scalars.size()]);
          } else {
            row.push_back(shared_oids[rng() % shared_oids.size()]);
          }
        }
        rows.push_back(std::move(row));
      }
      if (shape == kRepeated) {
        if (r == 0) repeated = rows;
        rows = repeated;
      }
      for (const auto& row : rows) {
        std::vector<std::string> cells;
        for (const Value& v : row) cells.push_back(cell_of(v));
        reference.push_back(std::move(cells));
      }
      runs.push_back(std::make_shared<const RenderedRows>(rows, columns, &db,
                                                          RowOrder::kCells));
    }
    std::sort(reference.begin(), reference.end());
    reference.erase(std::unique(reference.begin(), reference.end()),
                    reference.end());
    std::string want;
    for (const auto& row : reference) {
      want += "  ";
      for (size_t c = 0; c < row.size(); ++c) {
        want += (c ? ", " : "") + row[c];
      }
      want += "\n";
    }

    const auto merged = MergeRuns(runs, columns);
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->text(), want);
    ASSERT_EQ(merged->rows(), reference.size());
    ASSERT_EQ(merged->columns(), columns);
    // The shifted cell offsets of every block decode the same cells.
    for (size_t r = 0; r < reference.size(); ++r) {
      for (size_t c = 0; c < columns; ++c) {
        ASSERT_EQ(merged->Cell(r, c), reference[r][c]) << r << ", " << c;
      }
    }
    if (run_count == 1) {
      EXPECT_EQ(merged, runs.front());  // one run is the answer as it is
    } else {
      ++shared_merges;
    }
  }
  EXPECT_GT(shared_merges, 300u);
}

TEST_F(ArchiveMergeTest, SystemGoalsBypassShardCachesAndStillMerge) {
  auto archive = ShardedArchive::Open(root_, Options(3));
  ASSERT_TRUE(archive.ok()) << archive.status();
  Populate(**archive, 5);
  // Every shard seeds the same sys_shards rows; the merge keeps one copy.
  for (int ask = 0; ask < 2; ++ask) {
    auto got = (*archive)->Query("?- sys_shards(S, St, F, R, D, Rec, E).");
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->size(), 3u);
    const auto rows = got->rows();
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  }
}

}  // namespace
}  // namespace vqldb
