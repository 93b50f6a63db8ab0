// The rendered read path, QuerySession::QueryRendered. Every goal is asked
// twice: the first ask misses and renders its answer into the cache, the
// second is served from that rendering without decoding. Both bodies must
// equal what QueryResult::ToString prints for an evaluation that never
// touched the cache, and the decoded Run() path must still agree. The
// cache-only CachedRendered must do nothing at all on a miss, and on a hit
// return, count and record exactly what QueryRendered does.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"

namespace vqldb {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "")->value();
}

// How many queries the statistics collector recorded under `fingerprint`.
uint64_t RecordedCount(const std::string& fingerprint) {
  for (const obs::QueryStatView& view :
       obs::StatsCollector::Global().Snapshot().queries) {
    if (view.fingerprint == fingerprint) return view.count;
  }
  return 0;
}

struct Counts {
  uint64_t hits = CounterValue("vqldb_query_cache_hits_total");
  uint64_t misses = CounterValue("vqldb_query_cache_misses_total");
};

Query Parsed(const std::string& text) {
  auto query = Parser::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status();
  return query.ok() ? *query : Query{};
}

// Covers oids with and without symbols (the ++ rule derives unnamed
// intervals), strings holding ", " and quotes, temporal and set values,
// ints and doubles.
constexpr const char* kProgram = R"(
object a { }. object b { }.
interval gi1 { duration: (t > 0 and t < 5) }.
interval gi2 { duration: (t > 6 and t < 9) }.
span(a, (t > 1 and t < 3)). span(b, (t > 2 and t < 4)).
members(a, {a, b}).
label(a, "x, y"). label(b, "say \"hi\", ok"). label(b, "plain").
score(a, 3). score(b, 2.5). score(a, 10).
same(a, a). same(a, b).
seg(gi1). seg(gi2).
combo(G1 ++ G2) <- seg(G1), seg(G2).
)";

class RenderedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<QuerySession>(&db_);
    ASSERT_TRUE(session_->Load(kProgram).ok());
  }

  /// An evaluation with the cache off, rendered by QueryResult::ToString.
  std::string Reference(const std::string& goal) {
    session_->set_cache_enabled(false);
    auto result = session_->Query(goal);
    session_->set_cache_enabled(true);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->ToString(session_->database()) : "";
  }

  /// Asks `goal` through the rendered path twice, a miss and then a hit,
  /// and then through Run(); all three must print the reference. Returns
  /// the reference.
  std::string ExpectRenderedTwice(const std::string& goal) {
    SCOPED_TRACE(goal);
    const std::string want = Reference(goal);
    auto miss = session_->QueryRendered(goal);
    EXPECT_TRUE(miss.ok()) << miss.status();
    EXPECT_FALSE(session_->last_exec_info().cache_hit);
    if (miss.ok()) EXPECT_EQ(*miss, want);
    auto hit = session_->QueryRendered(goal);
    EXPECT_TRUE(hit.ok()) << hit.status();
    EXPECT_TRUE(session_->last_exec_info().cache_hit);
    if (hit.ok()) EXPECT_EQ(*hit, want);
    auto decoded = session_->Query(goal);
    EXPECT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(session_->last_exec_info().cache_hit);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->ToString(session_->database()), want);
    }
    return want;
  }

  VideoDatabase db_;
  std::unique_ptr<QuerySession> session_;
};

TEST_F(RenderedQueryTest, OidsPrintByTheirSymbols) {
  EXPECT_EQ(ExpectRenderedTwice("?- same(X, Y)."),
            "(2 answers) [X, Y]\n  a, a\n  a, b\n");
  EXPECT_EQ(ExpectRenderedTwice("?- seg(G)."),
            "(2 answers) [G]\n  gi1\n  gi2\n");
}

TEST_F(RenderedQueryTest, OidWithoutASymbolPrintsByItsId) {
  const std::string body = ExpectRenderedTwice("?- combo(G).");
  // gi1 ++ gi2 is a derived interval nobody named.
  EXPECT_NE(body.find("\n  id"), std::string::npos) << body;
}

TEST_F(RenderedQueryTest, StringsKeepTheirSeparatorsAndQuotes) {
  EXPECT_EQ(ExpectRenderedTwice("?- label(X, L)."),
            "(3 answers) [X, L]\n  a, \"x, y\"\n  b, \"plain\"\n"
            "  b, \"say \\\"hi\\\", ok\"\n");
}

TEST_F(RenderedQueryTest, TemporalAndSetValues) {
  EXPECT_EQ(ExpectRenderedTwice("?- span(X, T)."),
            "(2 answers) [X, T]\n  a, (t > 1 and t < 3)\n"
            "  b, (t > 2 and t < 4)\n");
  // Set members print by Value::ToString, as they always have.
  const std::string sets = ExpectRenderedTwice("?- members(X, S).");
  EXPECT_EQ(sets.rfind("(1 answer) [X, S]\n  a, {", 0), 0u) << sets;
}

TEST_F(RenderedQueryTest, IntsAndDoubles) {
  EXPECT_EQ(ExpectRenderedTwice("?- score(X, N)."),
            "(3 answers) [X, N]\n  a, 3\n  a, 10\n  b, 2.5\n");
}

TEST_F(RenderedQueryTest, ZeroAndOneAnswers) {
  EXPECT_EQ(ExpectRenderedTwice("?- score(X, 7)."), "(0 answers) [X]\n");
  EXPECT_EQ(ExpectRenderedTwice("?- score(X, 2.5)."),
            "(1 answer) [X]\n  b\n");
}

TEST_F(RenderedQueryTest, GroundGoalPrintsOneEmptyRow) {
  EXPECT_EQ(ExpectRenderedTwice("?- score(a, 3)."), "(1 answer)\n  \n");
  EXPECT_EQ(ExpectRenderedTwice("?- score(a, 4)."), "(0 answers)\n");
}

TEST_F(RenderedQueryTest, RepeatedVariable) {
  EXPECT_EQ(ExpectRenderedTwice("?- same(X, X)."), "(1 answer) [X]\n  a\n");
}

TEST_F(RenderedQueryTest, RenamedGoalsShareAnEntryWithTheirOwnHeaders) {
  auto first = session_->QueryRendered("?- score(X, N).");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(session_->last_exec_info().cache_hit);
  const size_t entries = session_->query_cache_size();
  const size_t bytes = session_->query_cache_bytes();

  auto renamed = session_->QueryRendered("?- score(Who, Points).");
  ASSERT_TRUE(renamed.ok()) << renamed.status();
  EXPECT_TRUE(session_->last_exec_info().cache_hit);
  EXPECT_EQ(session_->query_cache_size(), entries);
  EXPECT_EQ(session_->query_cache_bytes(), bytes);
  EXPECT_EQ(*first, "(3 answers) [X, N]\n  a, 3\n  a, 10\n  b, 2.5\n");
  EXPECT_EQ(*renamed,
            "(3 answers) [Who, Points]\n  a, 3\n  a, 10\n  b, 2.5\n");
  auto decoded = session_->Query("?- score(Who, Points).");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ToString(session_->database()), *renamed);
}

TEST_F(RenderedQueryTest, UncachedAnswersRenderTheSame) {
  // Cache off, and an answer over the byte budget: neither is stored, and
  // both render for the caller alone.
  const std::string want = Reference("?- label(X, L).");
  session_->set_cache_enabled(false);
  auto off = session_->QueryRendered("?- label(X, L).");
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_EQ(*off, want);
  session_->set_cache_enabled(true);
  session_->set_cache_max_bytes(1);
  auto over = session_->QueryRendered("?- label(X, L).");
  ASSERT_TRUE(over.ok()) << over.status();
  EXPECT_EQ(*over, want);
  EXPECT_EQ(session_->query_cache_size(), 0u);
  EXPECT_EQ(session_->query_cache_bytes(), 0u);
}

TEST_F(RenderedQueryTest, CacheOnlyMissDoesNothing) {
  const Query goal = Parsed("?- score(X, N).");
  const Counts before;
  const uint64_t recorded = RecordedCount("score($0, $1)");
  EXPECT_FALSE(session_->CachedRendered(goal, 3).has_value());
  const Counts after;
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(RecordedCount("score($0, $1)"), recorded);
  EXPECT_EQ(session_->query_cache_size(), 0u);
  // The full call after it counts the one miss and records the one query.
  ASSERT_TRUE(session_->QueryRendered(goal, 3).ok());
  EXPECT_EQ(Counts().misses, before.misses + 1);
  EXPECT_EQ(RecordedCount("score($0, $1)"), recorded + 1);

  // Goals the cache never holds come back empty too.
  EXPECT_FALSE(
      session_->CachedRendered(Parsed("?- sys_queries(F, C, P, Q, R, S)."))
          .has_value());
  session_->set_cache_enabled(false);
  EXPECT_FALSE(session_->CachedRendered(goal).has_value());
}

TEST_F(RenderedQueryTest, CacheOnlyHitEqualsQueryRendered) {
  const std::vector<std::string> goals = {
      "?- same(X, Y).", "?- combo(G).",      "?- label(X, L).",
      "?- span(X, T).", "?- score(X, 2.5).", "?- score(a, 3).",
      "?- same(X, X)."};
  for (const std::string& text : goals) {
    SCOPED_TRACE(text);
    const Query goal = Parsed(text);
    auto stored = session_->QueryRendered(goal);
    ASSERT_TRUE(stored.ok()) << stored.status();
    const Counts before;
    const uint64_t recorded = RecordedCount(QueryFingerprint(goal.goal));
    auto cached = session_->CachedRendered(goal);
    ASSERT_TRUE(cached.has_value());
    EXPECT_TRUE(session_->last_exec_info().cache_hit);
    const Counts after;
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(RecordedCount(QueryFingerprint(goal.goal)), recorded + 1);
    auto hit = session_->QueryRendered(goal);
    ASSERT_TRUE(hit.ok()) << hit.status();
    EXPECT_EQ(*cached, *hit);
    EXPECT_EQ(*cached, *stored);
  }
  // A renamed goal shares the entry and keeps its own header.
  auto renamed = session_->CachedRendered(Parsed("?- score(Who, Points)."));
  EXPECT_FALSE(renamed.has_value());  // score(X, N) was never stored
  ASSERT_TRUE(session_->QueryRendered("?- score(X, N).").ok());
  renamed = session_->CachedRendered(Parsed("?- score(Who, Points)."));
  ASSERT_TRUE(renamed.has_value());
  EXPECT_EQ(*renamed, *session_->QueryRendered("?- score(Who, Points)."));
}

TEST_F(RenderedQueryTest, ErrorsMatchQuery) {
  auto parse = session_->QueryRendered("?- score(X");
  EXPECT_FALSE(parse.ok());
  auto unknown = session_->QueryRendered("?- score(nobody, N).");
  auto reference = session_->Query("?- score(nobody, N).");
  ASSERT_EQ(unknown.ok(), reference.ok());
  if (!unknown.ok()) {
    EXPECT_EQ(unknown.status().ToString(), reference.status().ToString());
  }
}

}  // namespace
}  // namespace vqldb
