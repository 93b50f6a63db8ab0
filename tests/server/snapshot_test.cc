#include "src/server/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/model/database.h"
#include "src/obs/metrics.h"

namespace vqldb {
namespace server {
namespace {

size_t RowCount(SessionLease& lease, const std::string& text) {
  auto result = lease.session()->Query(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->rows.size() : 0;
}

TEST(SnapshotManagerTest, ApplyAdvancesEpochAndCurrentRebuilds) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);

  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  auto first = manager.Current();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(manager.snapshots_built(), 1u);

  // No change: Current() must serve the cached snapshot, not rebuild.
  auto again = manager.Current();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->get(), again->get());
  EXPECT_EQ(manager.snapshots_built(), 1u);

  ASSERT_TRUE(manager.Apply("object c { }. e(b, c).").ok());
  auto second = manager.Current();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->get(), second->get());
  EXPECT_EQ(manager.snapshots_built(), 2u);
  EXPECT_GT((*second)->db_epoch(), (*first)->db_epoch());
}

TEST(SnapshotManagerTest, RejectsQueriesOnTheWritePath) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 1);
  EXPECT_FALSE(manager.Apply("?- p(X).").ok());
  EXPECT_FALSE(manager.Apply("explain ?- p(X).").ok());
  EXPECT_FALSE(manager.Apply("  explain analyze ?- p(X).").ok());
}

TEST(SnapshotManagerTest, RuleChangesRebuildWithoutDbEpochChange) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 1);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  uint64_t built_before = 0;
  {
    auto lease = manager.AcquireSession();
    ASSERT_TRUE(lease.ok());
    EXPECT_EQ(RowCount(*lease, "?- p(X, Y)."), 0u);
    built_before = manager.snapshots_built();
  }
  ASSERT_TRUE(manager.Apply("p(X, Y) <- e(X, Y).").ok());
  auto lease = manager.AcquireSession();
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(RowCount(*lease, "?- p(X, Y)."), 1u);
  EXPECT_GT(manager.snapshots_built(), built_before);
}

TEST(SnapshotManagerTest, InFlightLeaseIsIsolatedFromLaterWrites) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());

  auto lease = manager.AcquireSession();
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(RowCount(*lease, "?- e(X, Y)."), 1u);

  // A write after the lease was taken must be invisible to it...
  ASSERT_TRUE(manager.Apply("object c { }. e(b, c). e(a, c).").ok());
  EXPECT_EQ(RowCount(*lease, "?- e(X, Y)."), 1u);
  EXPECT_LT(lease->db_epoch(), manager.live_epoch());

  // ...while a fresh lease sees the new generation.
  auto fresh = manager.AcquireSession();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(RowCount(*fresh, "?- e(X, Y)."), 3u);
}

TEST(SnapshotManagerTest, LeasesAreExclusiveAndRecycled) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());

  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());
  {
    auto one = (*snapshot)->Acquire();
    auto two = (*snapshot)->Acquire();
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(two.ok());
    EXPECT_NE(one->session(), two->session());
    EXPECT_EQ((*snapshot)->sessions_built(), 2u);
  }
  // Pool exhausted (2 sessions max) -> returned leases are reused, not
  // rebuilt.
  auto three = (*snapshot)->Acquire();
  ASSERT_TRUE(three.ok());
  EXPECT_EQ((*snapshot)->sessions_built(), 2u);
}

TEST(SnapshotManagerTest, CurrentIfBuiltNeverBuilds) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  EXPECT_EQ(manager.CurrentIfBuilt(), nullptr);  // nothing built yet
  EXPECT_EQ(manager.snapshots_built(), 0u);

  auto built = manager.Current();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(manager.CurrentIfBuilt(), *built);

  // A fact write and a rule write each leave the built generation stale.
  ASSERT_TRUE(manager.Apply("object c { }. e(b, c).").ok());
  EXPECT_EQ(manager.CurrentIfBuilt(), nullptr);
  auto rebuilt = manager.Current();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(manager.CurrentIfBuilt(), *rebuilt);
  ASSERT_TRUE(manager.Apply("p(X, Y) <- e(X, Y).").ok());
  EXPECT_EQ(manager.CurrentIfBuilt(), nullptr);
  EXPECT_EQ(manager.snapshots_built(), 2u);
}

TEST(SnapshotManagerTest, TryAcquireHandsOutOnlyFreeBuiltSessions) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());

  // A fresh generation has no session yet, and TryAcquire builds none.
  EXPECT_FALSE((*snapshot)->TryAcquire().valid());
  EXPECT_EQ((*snapshot)->sessions_built(), 0u);
  QuerySession* built = nullptr;
  {
    auto held = (*snapshot)->Acquire();
    ASSERT_TRUE(held.ok());
    built = held->session();
    // The one built session is leased: the pool has room for another, but
    // TryAcquire neither builds it nor waits.
    EXPECT_FALSE((*snapshot)->TryAcquire().valid());
    EXPECT_EQ((*snapshot)->sessions_built(), 1u);
  }
  SessionLease lease = (*snapshot)->TryAcquire();
  ASSERT_TRUE(lease.valid());
  EXPECT_EQ(lease.session(), built);
  EXPECT_EQ(lease.db_epoch(), (*snapshot)->db_epoch());
  EXPECT_EQ(RowCount(lease, "?- e(X, Y)."), 1u);
  EXPECT_EQ((*snapshot)->sessions_built(), 1u);
}

TEST(SnapshotManagerTest, BoundedPoolBlocksUntilReturnNotForever) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 1);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());

  auto held = manager.AcquireSession();
  ASSERT_TRUE(held.ok());

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    *held = SessionLease();  // return the lease
  });
  auto next = manager.AcquireSession();  // must block, then succeed
  releaser.join();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(RowCount(*next, "?- e(X, Y)."), 1u);
}

TEST(SnapshotManagerTest, ConcurrentAcquireBuildsAtMostPoolSize) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 4);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto lease = manager.AcquireSession();
        ASSERT_TRUE(lease.ok());
        EXPECT_EQ(RowCount(*lease, "?- e(X, Y)."), 1u);
      }
    });
  }
  for (auto& t : threads) t.join();

  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_LE((*snapshot)->sessions_built(), 4u);
  EXPECT_EQ(manager.snapshots_built(), 1u);
}

TEST(SnapshotManagerTest, LeasesOfOneGenerationShareTheCopyAndTheCache) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(
      manager.Apply("object a { }. object b { }. e(a, b). p(X, Y) <- e(X, Y).")
          .ok());

  auto one = manager.AcquireSession();
  auto two = manager.AcquireSession();
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  EXPECT_NE(one->session(), two->session());
  EXPECT_EQ(one->db(), two->db());
  EXPECT_NE(one->db(), &db);  // a copy, never the live database

  // An answer one lease computes is a hit on the other.
  EXPECT_EQ(RowCount(*one, "?- p(a, Y)."), 1u);
  EXPECT_FALSE(one->session()->last_exec_info().cache_hit);
  EXPECT_EQ(RowCount(*two, "?- p(a, Y)."), 1u);
  EXPECT_TRUE(two->session()->last_exec_info().cache_hit);

  // A write starts a generation whose first run of that goal misses.
  ASSERT_TRUE(manager.Apply("object c { }. e(a, c).").ok());
  auto three = manager.AcquireSession();
  ASSERT_TRUE(three.ok());
  EXPECT_NE(three->db(), one->db());
  EXPECT_EQ(RowCount(*three, "?- p(a, Y)."), 2u);
  EXPECT_FALSE(three->session()->last_exec_info().cache_hit);
  // The older generation still answers from its own state.
  EXPECT_EQ(RowCount(*one, "?- p(a, Y)."), 1u);
  EXPECT_TRUE(one->session()->last_exec_info().cache_hit);
}

TEST(SnapshotManagerTest, SessionJoiningAGenerationKeepsItsCache) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(
      manager.Apply("object a { }. object b { }. e(a, b). p(X, Y) <- e(X, Y).")
          .ok());
  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());

  auto first = (*snapshot)->Acquire();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(RowCount(*first, "?- p(a, Y)."), 1u);
  ASSERT_EQ(first->session()->query_cache_size(), 1u);

  // Held leases force a second session to be built; installing the
  // generation's rules in it must not clear what the first one stored.
  auto second = (*snapshot)->Acquire();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*snapshot)->sessions_built(), 2u);
  EXPECT_EQ(second->session()->query_cache_size(), 1u);
  EXPECT_EQ(RowCount(*second, "?- p(a, Y)."), 1u);
  EXPECT_TRUE(second->session()->last_exec_info().cache_hit);
}

TEST(SnapshotManagerTest, ConstructiveRulesGiveEachLeaseAPrivateCopy) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager
                  .Apply("interval gi1 { duration: (t > 0 and t < 5) }.\n"
                         "interval gi2 { duration: (t > 5 and t < 9) }.\n"
                         "seg(gi1). seg(gi2).\n"
                         "combo(G1 ++ G2) <- seg(G1), seg(G2).\n")
                  .ok());
  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE((*snapshot)->shared());

  auto one = (*snapshot)->Acquire();
  auto two = (*snapshot)->Acquire();
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  EXPECT_NE(one->db(), two->db());

  // gi1 ++ gi2 materializes a derived interval in the first lease's copy
  // only: neither the other lease nor the live database sees it, and the
  // fixpoint and the answer land in the first lease's cache alone.
  auto combo = one->session()->Query("?- combo(G).");
  ASSERT_TRUE(combo.ok()) << combo.status().ToString();
  EXPECT_EQ(combo->rows.size(), 3u);  // gi1, gi2 and gi1 ++ gi2
  EXPECT_EQ(one->db()->derived_interval_count(), 1u);
  EXPECT_EQ(two->db()->derived_interval_count(), 0u);
  EXPECT_EQ(db.derived_interval_count(), 0u);
  EXPECT_EQ(one->session()->query_cache_size(), 2u);
  EXPECT_EQ(two->session()->query_cache_size(), 0u);

  auto again = two->session()->Query("?- combo(G).");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(two->session()->last_exec_info().cache_hit);
  EXPECT_EQ(again->rows, combo->rows);

  // The extended active domain materializes too, rules or not.
  VideoDatabase other;
  EvalOptions extended;
  extended.extended_active_domain = true;
  SnapshotManager ext(&other, extended, 1);
  ASSERT_TRUE(ext.Apply("object a { }. e(a).").ok());
  auto ext_snapshot = ext.Current();
  ASSERT_TRUE(ext_snapshot.ok());
  EXPECT_FALSE((*ext_snapshot)->shared());
}

/// A small news timeline with the browse rules, and goals over it.
struct NewsTimeline {
  std::string program;
  std::vector<std::string> goals;
};

NewsTimeline MakeNewsTimeline() {
  std::string program =
      "appears(O, G) <- Interval(G), Object(O), O in G.entities.\n"
      "cooccur(O1, O2, G) <- Interval(G), Object(O1), Object(O2), "
      "O1 in G.entities, O2 in G.entities, O1 != O2.\n"
      "contains(G1, G2) <- Interval(G1), Interval(G2), "
      "G2.duration => G1.duration.\n";
  constexpr int kEntities = 6;
  constexpr int kScenes = 16;
  for (int e = 0; e < kEntities; ++e) {
    program += "object e" + std::to_string(e) + " { }.\n";
  }
  for (int k = 0; k < kScenes; ++k) {
    const int begin = k * 5;
    const int end = begin + (k % 4 == 0 ? 30 : 8);
    const std::string a = "e" + std::to_string(k % kEntities);
    const std::string b = "e" + std::to_string((k * 7 + 1) % kEntities);
    program += "interval s" + std::to_string(k) + " { duration: (t >= " +
               std::to_string(begin) + " and t <= " + std::to_string(end) +
               "), entities: {" + a + ", " + b + "} }.\n";
    if (k % 2 == 0) {
      program += "interviews(" + a + ", " + b + ", s" + std::to_string(k) +
                 ").\n";
    }
  }
  std::vector<std::string> goals;
  for (int e = 0; e < kEntities; ++e) {
    const std::string key = "e" + std::to_string(e);
    goals.push_back("?- appears(" + key + ", G).");
    goals.push_back("?- cooccur(" + key + ", O, G).");
    goals.push_back("?- interviews(" + key + ", O, G).");
  }
  for (int k = 0; k < kScenes; k += 3) {
    goals.push_back("?- contains(s" + std::to_string(k) + ", G).");
  }
  return {program, goals};
}

TEST(SnapshotManagerTest, ConcurrentReadersOfOneGenerationMatchSerialAnswers) {
  // Every reader thread must get the single-threaded answer, whether it
  // evaluates over the shared copy or hits the shared cache.
  const auto [program, goals] = MakeNewsTimeline();

  VideoDatabase serial_db;
  QuerySession serial(&serial_db);
  ASSERT_TRUE(serial.Load(program).ok());
  std::vector<std::string> expected;
  for (const std::string& goal : goals) {
    auto result = serial.Query(goal);
    ASSERT_TRUE(result.ok()) << goal << ": " << result.status().ToString();
    expected.push_back(result->ToString(&serial_db));
  }

  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 4);
  ASSERT_TRUE(manager.Apply(program).ok());
  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE((*snapshot)->shared());

  const EvalStrategy strategies[] = {EvalStrategy::kAuto, EvalStrategy::kQsqr,
                                     EvalStrategy::kMagic,
                                     EvalStrategy::kFixpoint};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < goals.size(); ++i) {
          const size_t g = (i + static_cast<size_t>(t) * 5) % goals.size();
          auto lease = (*snapshot)->Acquire();
          ASSERT_TRUE(lease.ok());
          QuerySession* session = lease->session();
          // Odd threads bypass the cache so that evaluation itself runs
          // concurrently over the shared copy, under every strategy.
          const EvalStrategy saved = session->options().strategy;
          session->mutable_options()->strategy = strategies[t % 4];
          session->set_cache_enabled(t % 2 == 0);
          auto result = session->Query(goals[g]);
          session->set_cache_enabled(true);
          session->mutable_options()->strategy = saved;
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          if (result->ToString(lease->db()) != expected[g]) ++mismatches;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE((*snapshot)->sessions_built(), 4u);
  EXPECT_EQ(manager.snapshots_built(), 1u);
}

TEST(SnapshotManagerTest, FixpointReadersOfOneGenerationShareOneFixpoint) {
  // Under full materialization the fixpoint is an entry of the
  // generation's shared cache: once one query has stored it, four sessions
  // answering distinct goals from four threads all read it, run no
  // fixpoint round, and answer as a serial session does.
  const auto [program, goals] = MakeNewsTimeline();
  VideoDatabase serial_db;
  QuerySession serial(&serial_db);
  ASSERT_TRUE(serial.Load(program).ok());
  std::vector<std::string> expected;
  for (const std::string& goal : goals) {
    auto result = serial.Query(goal);
    ASSERT_TRUE(result.ok()) << goal << ": " << result.status().ToString();
    expected.push_back(result->ToString(&serial_db));
  }

  EvalOptions options;
  options.strategy = EvalStrategy::kFixpoint;
  VideoDatabase db;
  SnapshotManager manager(&db, options, 4);
  ASSERT_TRUE(manager.Apply(program).ok());
  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE((*snapshot)->shared());
  {
    auto lease = (*snapshot)->Acquire();
    ASSERT_TRUE(lease.ok());
    ASSERT_TRUE(lease->session()->Query(goals[0]).ok());
  }

  obs::Counter* rounds = obs::MetricsRegistry::Global().GetCounter(
      "vqldb_eval_rounds_total", "");
  const uint64_t rounds_before = rounds->value();
  constexpr size_t kThreads = 4;
  std::atomic<int> mismatches{0};
  std::atomic<size_t> leased{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread holds its own lease, so four distinct sessions read.
      auto lease = (*snapshot)->Acquire();
      leased.fetch_add(1);
      while (leased.load() < kThreads) {
      }
      ASSERT_TRUE(lease.ok());
      for (size_t g = 1 + t; g < goals.size(); g += kThreads) {
        auto result = lease->session()->Query(goals[g]);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(lease->session()->last_exec_info().strategy, "fixpoint");
        if (result->ToString(lease->db()) != expected[g]) ++mismatches;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ((*snapshot)->sessions_built(), kThreads);
  EXPECT_EQ(rounds->value(), rounds_before);
}

TEST(SnapshotManagerTest, ConcurrentRenderedReadersOfOneGenerationMatchSerial) {
  // Eight threads read one generation through the rendered path and share
  // its cache entries: every body must be the serial ToString bytes. Then
  // all eight ask for the merge-ordered answers at once, so each
  // merge-ordered entry is first stored by several threads together, and
  // every thread must see cell-tuple order: the serial rows' cells sorted
  // and deduplicated.
  const auto [program, goals] = MakeNewsTimeline();
  VideoDatabase serial_db;
  QuerySession serial(&serial_db);
  ASSERT_TRUE(serial.Load(program).ok());
  std::vector<std::string> expected;
  std::vector<std::string> expected_merged;
  std::vector<Query> parsed;
  for (const std::string& goal : goals) {
    auto result = serial.Query(goal);
    ASSERT_TRUE(result.ok()) << goal << ": " << result.status().ToString();
    expected.push_back(result->ToString(&serial_db));
    const RenderedRows rendered(result->rows, result->columns.size(),
                                &serial_db);
    std::vector<std::vector<std::string>> cells(rendered.rows());
    for (size_t r = 0; r < cells.size(); ++r) {
      for (size_t c = 0; c < rendered.columns(); ++c) {
        cells[r].emplace_back(rendered.Cell(r, c));
      }
    }
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    std::string merged;
    for (const auto& row : cells) {
      merged += "  ";
      for (size_t c = 0; c < row.size(); ++c) {
        merged += (c ? ", " : "") + row[c];
      }
      merged += "\n";
    }
    expected_merged.push_back(std::move(merged));
    auto query = Parser::ParseQuery(goal);
    ASSERT_TRUE(query.ok());
    parsed.push_back(*query);
  }

  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 8);
  ASSERT_TRUE(manager.Apply(program).ok());
  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE((*snapshot)->shared());

  std::atomic<int> mismatches{0};
  std::atomic<int> misordered{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Misses and hits interleave: threads start at different goals.
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < goals.size(); ++i) {
          const size_t g = (i + static_cast<size_t>(t) * 5) % goals.size();
          auto lease = (*snapshot)->Acquire();
          ASSERT_TRUE(lease.ok());
          auto body = lease->session()->QueryRendered(goals[g]);
          ASSERT_TRUE(body.ok()) << body.status().ToString();
          if (*body != expected[g]) ++mismatches;
        }
      }
      // Every value-ordered entry is cached; all threads now ask for the
      // merge-ordered answers in the same sequence.
      ready.fetch_add(1);
      while (ready.load() < 8) {
      }
      for (size_t g = 0; g < goals.size(); ++g) {
        auto lease = (*snapshot)->Acquire();
        ASSERT_TRUE(lease.ok());
        auto rendered = lease->session()->RunRendered(parsed[g]);
        ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
        const RenderedRows& rows = **rendered;
        if (rows.text() != expected_merged[g]) ++misordered;
        for (size_t k = 1; k < rows.rows(); ++k) {
          if (RenderedRows::CompareRows(rows, k - 1, rows, k) >= 0) {
            ++misordered;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(misordered.load(), 0);
  EXPECT_EQ(manager.snapshots_built(), 1u);
}

}  // namespace
}  // namespace server
}  // namespace vqldb
