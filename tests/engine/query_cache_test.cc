// The memoizing query cache: hits without re-evaluation, epoch-based
// invalidation on database mutation (direct and via journal replay),
// canonical variable renaming, the LRU capacity bound, the epoch subtlety
// of constructive evaluation, one cache shared by two sessions, a goal's
// value-ordered and merge-ordered entries side by side, and the byte
// accounting of entries that carry their rendering.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/model/term_dict.h"
#include "src/obs/metrics.h"
#include "src/storage/journal.h"

namespace vqldb {
namespace {

uint64_t CounterValue(const char* name) {
  auto* c = obs::MetricsRegistry::Global().GetCounter(name, "");
  return c->value();
}

const char* kChainProgram =
    "object a {}. object b {}. object c {}.\n"
    "edge(a, b). edge(b, c).\n"
    "path(X, Y) <- edge(X, Y).\n"
    "path(X, Z) <- path(X, Y), edge(Y, Z).\n";

class QueryCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<QuerySession>(&db_);
    ASSERT_TRUE(session_->Load(kChainProgram).ok());
  }

  VideoDatabase db_;
  std::unique_ptr<QuerySession> session_;
};

// Under `strategy`, asks path(a, Y), lets `mutate` add the edge c -> d to
// the database with no call to the session, and expects every later read
// to see it: the goal asked before, a goal not asked before, and that goal
// again under kAuto, which must not be served an answer stored under the
// new epoch but computed from the old state.
void ExpectEdgeSeenAfter(EvalStrategy strategy,
                         const std::function<void(VideoDatabase*)>& mutate) {
  SCOPED_TRACE(EvalStrategyName(strategy));
  VideoDatabase db;
  QuerySession session(&db);
  session.mutable_options()->strategy = strategy;
  ASSERT_TRUE(session.Load(kChainProgram).ok());
  auto before = session.Query("?- path(a, Y).");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows.size(), 2u);  // b, c

  mutate(&db);
  auto after = session.Query("?- path(a, Y).");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(session.last_exec_info().cache_hit);
  EXPECT_EQ(after->rows.size(), 3u);  // b, c, d
  auto other = session.Query("?- path(b, Y).");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->rows.size(), 2u);  // c, d
  session.mutable_options()->strategy = EvalStrategy::kAuto;
  auto again = session.Query("?- path(b, Y).");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows, other->rows);
}

TEST_F(QueryCacheTest, SecondIdenticalQueryHitsWithoutEvaluation) {
  uint64_t hits0 = CounterValue("vqldb_query_cache_hits_total");
  auto first = session_->Query("?- path(a, Y).");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
  EXPECT_EQ(session_->query_cache_size(), 1u);

  size_t iterations_before = session_->last_stats().iterations;
  auto second = session_->Query("?- path(a, Y).");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(session_->last_exec_info().cache_hit);
  // A hit performs no evaluation: last_stats is untouched.
  EXPECT_EQ(session_->last_stats().iterations, iterations_before);
  EXPECT_EQ(first->rows, second->rows);
  EXPECT_EQ(CounterValue("vqldb_query_cache_hits_total"), hits0 + 1);
}

TEST_F(QueryCacheTest, HitAcrossVariableRenaming) {
  auto first = session_->Query("?- path(a, Y).");
  ASSERT_TRUE(first.ok());
  auto renamed = session_->Query("?- path(a, Answer).");
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(session_->last_exec_info().cache_hit);
  EXPECT_EQ(renamed->rows, first->rows);
  // Columns carry the new query's variable names.
  ASSERT_EQ(renamed->columns.size(), 1u);
  EXPECT_EQ(renamed->columns[0], "Answer");
}

TEST_F(QueryCacheTest, DistinctPatternsDoNotCollide) {
  ASSERT_TRUE(session_->Query("?- path(X, Y).").ok());
  auto repeated = session_->Query("?- path(X, X).");
  ASSERT_TRUE(repeated.ok());
  // p(X, X) canonicalizes differently from p(X, Y): never a false hit.
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
  EXPECT_TRUE(repeated->rows.empty());
}

TEST_F(QueryCacheTest, DirectDatabaseMutationInvalidatesViaEpoch) {
  // Mutate the database directly. The epoch in every cache key, the
  // materialized fixpoint's included, changes, so the next queries miss
  // and see the new fact.
  for (EvalStrategy strategy : {EvalStrategy::kAuto, EvalStrategy::kFixpoint}) {
    ExpectEdgeSeenAfter(strategy, [](VideoDatabase* db) {
      ObjectId d = *db->CreateEntity("d");
      ASSERT_TRUE(db->AssertFact("edge", {Value::Oid(*db->Resolve("c")),
                                          Value::Oid(d)})
                      .ok());
    });
  }
}

TEST_F(QueryCacheTest, JournalReplayInvalidatesViaEpoch) {
  // Write a journal carrying a new object + edge fact, then replay it into
  // the live database. Replay goes through the ordinary mutators, so the
  // epoch advances and the cached entries can no longer be reached.
  std::string path = ::testing::TempDir() + "/query_cache_journal.vqlog";
  for (EvalStrategy strategy : {EvalStrategy::kAuto, EvalStrategy::kFixpoint}) {
    ExpectEdgeSeenAfter(strategy, [&path](VideoDatabase* db) {
      std::remove(path.c_str());
      {
        auto journal = Journal::Open(path, {});
        ASSERT_TRUE(journal.ok()) << journal.status();
        ASSERT_TRUE(journal->Append("object d {}.").ok());
        ASSERT_TRUE(journal->Append("edge(c, d).").ok());
        ASSERT_TRUE(journal->Sync().ok());
      }
      auto report = Journal::Replay(path, db);
      ASSERT_TRUE(report.ok()) << report.status();
    });
  }
  std::remove(path.c_str());
}

TEST_F(QueryCacheTest, AddRuleInvalidates) {
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  ASSERT_TRUE(session_->AddRule("path(X, Y) <- edge(Y, X).").ok());
  auto after = session_->Query("?- path(a, Y).");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
  EXPECT_EQ(after->rows.size(), 2u);  // still b, c (reverse adds none from a)
}

TEST_F(QueryCacheTest, CapacityBoundEvictsLru) {
  uint64_t evictions0 = CounterValue("vqldb_query_cache_evictions_total");
  // Distinct integer-bound goals produce distinct keys; the store is
  // bounded, so well past capacity the size plateaus and evictions rise.
  ASSERT_TRUE(session_->AddRule("num(1, 2).").ok());
  ASSERT_TRUE(session_->AddRule("succ(X, Y) <- num(X, Y).").ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        session_->Query("?- succ(" + std::to_string(i) + ", Y).").ok());
  }
  EXPECT_LE(session_->query_cache_size(), 256u);
  EXPECT_GT(CounterValue("vqldb_query_cache_evictions_total"), evictions0);
}

TEST_F(QueryCacheTest, DisabledCacheNeverHitsOrStores) {
  session_->set_cache_enabled(false);
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  EXPECT_EQ(session_->query_cache_size(), 0u);
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
}

TEST_F(QueryCacheTest, ClearQueryCacheForcesReevaluation) {
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  session_->ClearQueryCache();
  EXPECT_EQ(session_->query_cache_size(), 0u);
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
}

TEST_F(QueryCacheTest, ByteBudgetEvictsLruBeforeEntryCap) {
  // Entries are accounted in bytes: a tight byte budget evicts LRU entries
  // long before the 256-entry secondary cap is reached, and the accounted
  // total never exceeds the budget.
  uint64_t bytes_evicted0 = CounterValue("vqldb_cache_bytes_evicted_total");
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  ASSERT_GT(session_->query_cache_bytes(), 0u);
  // Room for only a couple of answers of this size.
  session_->set_cache_max_bytes(session_->query_cache_bytes() * 2 + 1);

  ASSERT_TRUE(session_->Query("?- path(b, Y).").ok());
  ASSERT_TRUE(session_->Query("?- path(X, c).").ok());
  ASSERT_TRUE(session_->Query("?- path(X, b).").ok());
  EXPECT_LE(session_->query_cache_bytes(), session_->cache_max_bytes());
  EXPECT_LT(session_->query_cache_size(), 4u);  // something was evicted
  EXPECT_GT(CounterValue("vqldb_cache_bytes_evicted_total"), bytes_evicted0);

  // The surviving (most recent) entry still hits.
  ASSERT_TRUE(session_->Query("?- path(X, b).").ok());
  EXPECT_TRUE(session_->last_exec_info().cache_hit);
}

TEST_F(QueryCacheTest, AnswerLargerThanByteBudgetIsNotCached) {
  session_->set_cache_max_bytes(1);
  auto result = session_->Query("?- path(X, Y).");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // the answer itself is unaffected
  EXPECT_EQ(session_->query_cache_size(), 0u);
  EXPECT_EQ(session_->query_cache_bytes(), 0u);
}

TEST_F(QueryCacheTest, ByteAccountingTracksStoresAndClear) {
  ASSERT_TRUE(session_->Query("?- path(a, Y).").ok());
  size_t one = session_->query_cache_bytes();
  ASSERT_GT(one, 0u);
  ASSERT_TRUE(session_->Query("?- path(X, c).").ok());
  EXPECT_GT(session_->query_cache_bytes(), one);
  session_->ClearQueryCache();
  EXPECT_EQ(session_->query_cache_bytes(), 0u);
}

TEST_F(QueryCacheTest, DomainRebuiltAtRecycledAddressDoesNotReviveAnswers) {
  // Regression: OptionsFingerprint used to hash options_.concrete_domain by
  // pointer, so a domain rebuilt at a recycled address silently revived
  // answers computed against the old predicate table. Force the recycled
  // address with placement new and require a miss plus the new semantics.
  ASSERT_TRUE(session_->AddRule("num(1, 0).").ok());
  ASSERT_TRUE(session_->AddRule("num(5, 0).").ok());
  ASSERT_TRUE(session_->AddRule("tiny(X) <- num(X, Y), small(X).").ok());

  alignas(ConcreteDomain) unsigned char buf[sizeof(ConcreteDomain)];
  auto* v1 = new (buf) ConcreteDomain("v1");
  v1->RegisterPredicate("small", 1, [](const std::vector<DomainValue>& a) {
    return a[0].sort == DomainValue::Sort::kNumber && a[0].number < 3;
  });
  session_->mutable_options()->concrete_domain = v1;
  auto first = session_->Query("?- tiny(X).");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->rows.size(), 1u);  // only num 1 is small

  v1->~ConcreteDomain();
  auto* v2 = new (buf) ConcreteDomain("v2");
  ASSERT_EQ(static_cast<void*>(v2), static_cast<void*>(v1));
  v2->RegisterPredicate("small", 1, [](const std::vector<DomainValue>& a) {
    return a[0].sort == DomainValue::Sort::kNumber && a[0].number > 3;
  });
  session_->mutable_options()->concrete_domain = v2;
  auto second = session_->Query("?- tiny(X).");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
  ASSERT_EQ(second->rows.size(), 1u);  // now only num 5 qualifies
  EXPECT_NE(first->rows, second->rows);

  session_->mutable_options()->concrete_domain = nullptr;
  session_->ClearQueryCache();
  v2->~ConcreteDomain();
}

TEST_F(QueryCacheTest, ConstructiveEvaluationStoresPostEpoch) {
  // Answering the first query materializes derived intervals, advancing the
  // database epoch mid-query. The entry must be stored under the
  // post-evaluation epoch so the identical follow-up query still hits.
  ASSERT_TRUE(session_
                  ->Load("interval gi1 { duration: (t > 0 and t < 5) }.\n"
                         "interval gi2 { duration: (t > 5 and t < 9) }.\n"
                         "seg(gi1). seg(gi2).\n"
                         "combo(G1 ++ G2) <- seg(G1), seg(G2).\n")
                  .ok());
  auto first = session_->Query("?- combo(G).");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
  auto second = session_->Query("?- combo(G).");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(session_->last_exec_info().cache_hit);
  EXPECT_EQ(first->rows, second->rows);
}

TEST(SharedQueryCacheTest, SessionsShareOneCacheWithExactBytes) {
  // A 30-node chain: evaluating path(X, Y) takes long enough that two
  // sessions started together both miss and both store.
  constexpr int kNodes = 30;
  std::string program;
  for (int i = 0; i < kNodes; ++i) {
    program += "object n" + std::to_string(i) + " {}.\n";
  }
  for (int i = 0; i + 1 < kNodes; ++i) {
    program += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
               ").\n";
  }
  VideoDatabase db;
  ASSERT_TRUE(QuerySession(&db).Load(program).ok());
  const char* kRules[] = {"path(X, Y) <- edge(X, Y).",
                          "path(X, Z) <- path(X, Y), edge(Y, Z)."};
  auto cache = std::make_shared<QueryCache>();
  QuerySession one(&db, {}, cache);
  QuerySession two(&db, {}, cache);
  QuerySession solo(&db);  // private cache: the reference footprint
  for (const char* rule : kRules) {
    ASSERT_TRUE(one.AddRule(rule).ok());
    ASSERT_TRUE(two.AddRule(rule).ok());
    ASSERT_TRUE(solo.AddRule(rule).ok());
  }
  auto first = one.Query("?- path(n0, Y).");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(one.last_exec_info().cache_hit);
  auto second = two.Query("?- path(n0, Y).");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(two.last_exec_info().cache_hit);
  EXPECT_EQ(first->rows, second->rows);
  EXPECT_EQ(two.query_cache_size(), 1u);
  EXPECT_EQ(solo.query_cache_size(), 0u);

  ASSERT_TRUE(solo.Query("?- path(X, Y).").ok());
  const size_t entry_bytes = solo.query_cache_bytes();
  ASSERT_GT(entry_bytes, 0u);

  // Both sessions miss on the same key at once and both store it: the
  // first store wins and the second must not count its bytes again.
  for (int round = 0; round < 50; ++round) {
    // Drops the shared cache, so that both evaluate again.
    one.ClearQueryCache();
    std::atomic<int> ready{0};
    auto run = [&](QuerySession* session) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      auto result = session->Query("?- path(X, Y).");
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->rows.size(), size_t{kNodes * (kNodes - 1) / 2});
    };
    std::thread a(run, &one);
    std::thread b(run, &two);
    a.join();
    b.join();
    ASSERT_EQ(cache->size(), 1u);
    ASSERT_EQ(one.query_cache_bytes(), entry_bytes) << "round " << round;
  }
}

// ------------------------------------------------------ byte accounting

TEST(QueryCacheOrderTest, EachRenderedCallGetsItsOwnOrder) {
  // Numbers order differently as values (2 < 10) and as cells ("10" <
  // "2"). Run() and QueryRendered() share the value-ordered entry;
  // RunRendered() stores and reads a merge-ordered one beside it.
  VideoDatabase db;
  auto cache = std::make_shared<QueryCache>();
  QuerySession session(&db, {}, cache);
  ASSERT_TRUE(session.Load("num(10). num(2). num(-3). twice(X) <- num(X).")
                  .ok());
  auto query = Parser::ParseQuery("?- twice(N).");
  ASSERT_TRUE(query.ok());
  const std::string value_body = "(3 answers) [N]\n  -3\n  2\n  10\n";

  auto ran = session.Run(*query);
  ASSERT_TRUE(ran.ok());
  EXPECT_EQ(ran->ToString(&db), value_body);
  EXPECT_EQ(cache->size(), 1u);
  const size_t value_bytes = cache->bytes();

  auto merged = session.RunRendered(*query);
  ASSERT_TRUE(merged.ok());
  EXPECT_FALSE(session.last_exec_info().cache_hit);
  EXPECT_EQ((*merged)->text(), "  -3\n  10\n  2\n");
  EXPECT_EQ(cache->size(), 2u);
  // Both entries count, the merge-ordered one with its rendering.
  EXPECT_GE(cache->bytes(), value_bytes + (*merged)->bytes());

  auto body = session.QueryRendered(*query);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(session.last_exec_info().cache_hit);
  EXPECT_EQ(*body, value_body);
  auto again = session.RunRendered(*query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(session.last_exec_info().cache_hit);
  EXPECT_EQ(*again, *merged);  // the entry's own rows
  EXPECT_EQ(session.CachedRunRendered(*query), *merged);
  auto decoded = session.Run(*query);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(session.last_exec_info().cache_hit);
  EXPECT_EQ(decoded->rows, ran->rows);
  EXPECT_EQ(cache->size(), 2u);

  // EXPLAIN reports a hit for either order.
  auto explained = session.Explain("?- twice(N).", false);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("query cache: hit"), std::string::npos);
  cache->Clear();
  ASSERT_TRUE(session.RunRendered(*query).ok());
  explained = session.Explain("?- twice(N).", false);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("query cache: hit"), std::string::npos)
      << *explained;
}

QueryCache::Key KeyFor(const std::string& predicate,
                       RowOrder order = RowOrder::kValue) {
  QueryCache::Key key;
  key.predicate = predicate;
  key.order = order;
  key.pattern = "v0";
  key.db_epoch = 1;
  return key;
}

/// `n` one-column rows over fresh entities of `db` named `prefix<i>`, their
/// values already interned so that storing them adds no dictionary bytes.
std::vector<std::vector<Value>> EntityRows(VideoDatabase* db,
                                           const std::string& prefix,
                                           int n) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; ++i) {
    Value v = Value::Oid(*db->CreateEntity(prefix + std::to_string(i)));
    TermDict::Global().Intern(v);
    rows.push_back({v});
  }
  return rows;
}

TEST(QueryCacheAccountingTest, EntryBytesIncludeRenderingAndMergeOrder) {
  // Two databases bind the same oids to short and to long symbols, so the
  // same ids render to texts of different lengths.
  VideoDatabase short_db;
  VideoDatabase long_db;
  const auto rows = EntityRows(&short_db, "s", 50);
  ASSERT_EQ(EntityRows(&long_db, "a_much_longer_symbol_", 50), rows);

  QueryCache cache;
  const QueryCache::Key short_key = KeyFor("short");
  const QueryCache::Key long_key = KeyFor("long");
  auto short_answer = cache.Store(short_key, rows, 1, &short_db);
  auto long_answer = cache.Store(long_key, rows, 1, &long_db);
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(short_answer->text().substr(0, 10), "  s0\n  s1\n");
  EXPECT_EQ(long_answer->Cell(49, 0), "a_much_longer_symbol_49");

  // The entries differ only in their renderings, and so do their bytes.
  const size_t short_bytes = cache.entry_bytes(short_key);
  const size_t long_bytes = cache.entry_bytes(long_key);
  EXPECT_EQ(long_bytes - short_bytes,
            long_answer->bytes() - short_answer->bytes());
  EXPECT_GE(long_bytes - short_bytes, 50u * 20);
  EXPECT_GE(short_answer->bytes(),
            short_answer->text().size() + 50 * sizeof(uint32_t));
  EXPECT_EQ(cache.bytes(), short_bytes + long_bytes);

  // The merge-ordered entry of the same rows is rendered once, in cell
  // order, and keeps no ids: the value-ordered entry's bytes less its 4
  // bytes per cell, with its own rendering in place of the other.
  const QueryCache::Key merge_key = KeyFor("short", RowOrder::kCells);
  auto merged = cache.Store(merge_key, rows, 1, &short_db);
  ASSERT_EQ(cache.size(), 3u);
  EXPECT_NE(merged, short_answer);
  EXPECT_EQ(merged->text().substr(0, 16), "  s0\n  s1\n  s10\n");
  EXPECT_EQ(merged->text().size(), short_answer->text().size());
  EXPECT_EQ(cache.entry_bytes(merge_key), short_bytes -
                                              50 * sizeof(uint32_t) -
                                              short_answer->bytes() +
                                              merged->bytes());
  // Nothing is built later: a lookup of either order charges nothing.
  ASSERT_EQ(cache.LookupRendered(merge_key), merged);
  ASSERT_EQ(cache.LookupRendered(short_key), short_answer);
  EXPECT_EQ(cache.entry_bytes(short_key), short_bytes);
  EXPECT_EQ(cache.bytes(),
            short_bytes + long_bytes + cache.entry_bytes(merge_key));
}

TEST(QueryCacheAccountingTest, BytesAreTheSumOverEntriesThroughEveryChange) {
  VideoDatabase db;
  QueryCache cache;
  std::vector<QueryCache::Key> keys;
  auto sum = [&] {
    size_t total = 0;
    for (const auto& key : keys) total += cache.entry_bytes(key);
    return total;
  };
  // Entries of both orders, a value-ordered and a merge-ordered one per
  // predicate for every other predicate.
  for (int i = 0; i < 8; ++i) {
    const auto rows =
        EntityRows(&db, "e" + std::to_string(i) + "_", 10 + i);
    keys.push_back(KeyFor("p" + std::to_string(i)));
    cache.Store(keys.back(), rows, 1, &db);
    EXPECT_EQ(cache.bytes(), sum()) << "store " << i;
    if (i % 2 != 0) continue;
    keys.push_back(KeyFor("p" + std::to_string(i), RowOrder::kCells));
    cache.Store(keys.back(), rows, 1, &db);
    EXPECT_EQ(cache.bytes(), sum()) << "merge-ordered store " << i;
  }
  for (const auto& key : keys) {
    if (key.order == RowOrder::kValue) {
      std::vector<std::vector<Value>> decoded;
      ASSERT_TRUE(cache.Lookup(key, &decoded));
    }
    ASSERT_NE(cache.LookupRendered(key), nullptr);
    EXPECT_EQ(cache.bytes(), sum());
  }

  // Eviction: a budget of half the bytes evicts LRU entries on the next
  // store, of either order.
  cache.set_max_bytes(cache.bytes() / 2);
  keys.push_back(KeyFor("late"));
  cache.Store(keys.back(), EntityRows(&db, "late", 40), 1, &db);
  EXPECT_LT(cache.size(), keys.size());
  EXPECT_LE(cache.bytes(), cache.max_bytes());
  EXPECT_EQ(cache.bytes(), sum());
  const size_t before = cache.size();
  cache.set_max_bytes(cache.bytes() + 8);
  keys.push_back(KeyFor("late", RowOrder::kCells));
  cache.Store(keys.back(), EntityRows(&db, "later", 40), 1, &db);
  EXPECT_LE(cache.bytes(), cache.max_bytes());
  EXPECT_NE(cache.entry_bytes(keys.back()), 0u);
  EXPECT_LE(cache.size(), before);
  EXPECT_EQ(cache.bytes(), sum());

  const size_t held = cache.bytes();
  EXPECT_EQ(cache.Shed(), held);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(sum(), 0u);
}

TEST(QueryCacheAccountingTest, GovernorReservationReturnsToZeroAfterClear) {
  auto governor = std::make_shared<ResourceBudget>();
  VideoDatabase db;
  QueryCache cache;
  cache.set_governor(governor);
  for (int i = 0; i < 4; ++i) {
    const QueryCache::Key key = KeyFor(
        "g" + std::to_string(i), i % 2 == 0 ? RowOrder::kCells
                                            : RowOrder::kValue);
    cache.Store(key, EntityRows(&db, "g" + std::to_string(i) + "_", 20), 1,
                &db);
    ASSERT_NE(cache.LookupRendered(key), nullptr);
  }
  EXPECT_GT(governor->bytes_reserved(), 0u);
  EXPECT_EQ(governor->bytes_reserved(), cache.bytes());
  cache.Clear();
  EXPECT_EQ(governor->bytes_reserved(), 0u);
}

}  // namespace
}  // namespace vqldb
