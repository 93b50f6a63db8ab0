#include "src/shell/repl.h"

#include "src/common/cancel.h"
#include "src/obs/stats.h"
#include "src/server/wire.h"
#include "src/storage/journal.h"

#include <gtest/gtest.h>

#include <filesystem>

namespace vqldb {
namespace {

class ReplTest : public ::testing::Test {
 protected:
  VideoDatabase db_;
  Repl repl_{&db_};
};

TEST_F(ReplTest, EmptyLineNoOutput) {
  EXPECT_EQ(repl_.Execute(""), "");
  EXPECT_EQ(repl_.Execute("   "), "");
  EXPECT_FALSE(repl_.done());
}

TEST_F(ReplTest, DeclarationThenQuery) {
  EXPECT_EQ(repl_.Execute("object o1 { name: \"David\" }."), "ok\n");
  EXPECT_EQ(repl_.Execute(
                "interval gi1 { duration: (t > 0 and t < 9), "
                "entities: {o1} }."),
            "ok\n");
  std::string out = repl_.Execute("?- Interval(G).");
  EXPECT_NE(out.find("1 answer"), std::string::npos);
  EXPECT_NE(out.find("gi1"), std::string::npos);
}

TEST_F(ReplTest, MultiLineStatementBuffers) {
  EXPECT_EQ(repl_.Execute("object o1 {"), "");
  EXPECT_TRUE(repl_.pending());
  EXPECT_EQ(repl_.Execute("  name: \"David\""), "");
  EXPECT_EQ(repl_.Execute("}."), "ok\n");
  EXPECT_FALSE(repl_.pending());
}

TEST_F(ReplTest, ClearBufDiscardsPartialInput) {
  EXPECT_EQ(repl_.Execute("object broken {"), "");
  EXPECT_TRUE(repl_.pending());
  // Meta commands do not run while buffering — the input joins the buffer
  // unless it is .clearbuf... actually meta commands only act when the
  // buffer is empty, so flush first.
  repl_.Execute("}.");  // complete the statement (may error, fine)
  EXPECT_FALSE(repl_.pending());
  EXPECT_EQ(repl_.Execute(".clearbuf"), "input buffer cleared\n");
}

TEST_F(ReplTest, RuleAndQuery) {
  repl_.Execute("object o1 { name: \"x\" }.");
  repl_.Execute(
      "interval g { duration: (t >= 0 and t <= 5), entities: {o1} }.");
  EXPECT_EQ(repl_.Execute("q(G) <- Interval(G), o1 in G.entities."), "ok\n");
  std::string out = repl_.Execute("?- q(G).");
  EXPECT_NE(out.find("g"), std::string::npos);
}

TEST_F(ReplTest, ErrorsAreReportedNotFatal) {
  std::string out = repl_.Execute("?- undefined(X.");
  EXPECT_NE(out.find("error:"), std::string::npos);
  out = repl_.Execute("q(X) <- .");
  EXPECT_NE(out.find("error:"), std::string::npos);
  // Shell still usable.
  EXPECT_EQ(repl_.Execute("object ok {}."), "ok\n");
}

TEST_F(ReplTest, StatsAndObjects) {
  repl_.Execute("object o1 {}.");
  repl_.Execute(
      "interval g { duration: (t >= 0 and t <= 1), entities: {o1} }.");
  std::string stats = repl_.Execute(".stats");
  EXPECT_NE(stats.find("1 entities"), std::string::npos);
  EXPECT_NE(stats.find("1 base intervals"), std::string::npos);
  std::string objects = repl_.Execute(".objects");
  EXPECT_NE(objects.find("object   o1"), std::string::npos);
  EXPECT_NE(objects.find("interval g"), std::string::npos);
}

TEST_F(ReplTest, SlowlogShowsEntriesAndResets) {
  obs::StatsCollector::Global().Reset();
  obs::StatsCollector::Global().set_slow_threshold_us(0);  // log everything
  repl_.Execute("object o1 {}.");
  repl_.Execute("object o2 {}.");
  repl_.Execute("edge(o1, o2).");
  repl_.Execute("p(X, Y) <- edge(X, Y).");
  repl_.Execute("?- p(X, Y).");
  std::string out = repl_.Execute(".slowlog");
  EXPECT_NE(out.find("slow-query log"), std::string::npos);
  EXPECT_NE(out.find("p($0, $1)"), std::string::npos) << out;
  EXPECT_NE(out.find("total "), std::string::npos);
  // A bounded listing still shows the newest entry.
  out = repl_.Execute(".slowlog 1");
  EXPECT_NE(out.find("p($0, $1)"), std::string::npos);

  EXPECT_EQ(repl_.Execute(".slowlog reset"), "slow-query log reset\n");
  out = repl_.Execute(".slowlog");
  EXPECT_NE(out.find("(empty)"), std::string::npos);

  EXPECT_NE(repl_.Execute(".slowlog nonsense").find("usage:"),
            std::string::npos);
  EXPECT_NE(repl_.Execute(".slowlog 0").find("usage:"), std::string::npos);
  obs::StatsCollector::Global().set_slow_threshold_us(
      obs::StatsCollector::kDefaultSlowThresholdUs);
  obs::StatsCollector::Global().Reset();
}

TEST_F(ReplTest, StatsResetClearsTheCollectorAtomically) {
  obs::StatsCollector::Global().Reset();
  repl_.Execute("object o1 {}.");
  repl_.Execute("object o2 {}.");
  repl_.Execute("edge(o1, o2).");
  repl_.Execute("p(X, Y) <- edge(X, Y).");
  repl_.Execute("?- p(X, Y).");
  obs::StatsSnapshot before = obs::StatsCollector::Global().Snapshot();
  EXPECT_GT(before.total_queries, 0u);
  EXPECT_FALSE(before.columns.empty());

  EXPECT_EQ(repl_.Execute(".stats reset"), "metrics reset\n");
  obs::StatsSnapshot after = obs::StatsCollector::Global().Snapshot();
  EXPECT_EQ(after.total_queries, 0u);
  EXPECT_TRUE(after.columns.empty());
  EXPECT_TRUE(after.queries.empty());
  EXPECT_TRUE(after.slow.empty());
}

TEST_F(ReplTest, StrategyCommandSwitchesAndReports) {
  EXPECT_EQ(repl_.Execute(".strategy"), "strategy: auto\n");
  EXPECT_EQ(repl_.Execute(".strategy qsqr"), "strategy: qsqr\n");
  EXPECT_EQ(repl_.Execute(".strategy"), "strategy: qsqr\n");
  EXPECT_NE(repl_.Execute(".strategy nope").find("usage"), std::string::npos);
  // Answers are strategy-independent.
  repl_.Execute("object o1 {}.");
  repl_.Execute("object o2 {}.");
  repl_.Execute("edge(o1, o2).");
  repl_.Execute("p(X, Y) <- edge(X, Y).");
  std::string qsqr_out = repl_.Execute("?- p(o1, Y).");
  EXPECT_EQ(repl_.Execute(".strategy fixpoint"), "strategy: fixpoint\n");
  EXPECT_EQ(repl_.Execute("?- p(o1, Y)."), qsqr_out);
}

TEST_F(ReplTest, ReorderCommandTogglesAndReports) {
  std::string off = repl_.Execute(".reorder");
  EXPECT_NE(off.find("off"), std::string::npos);
  EXPECT_NE(repl_.Execute(".reorder on").find("on"), std::string::npos);
  EXPECT_NE(repl_.Execute(".reorder").find("on"), std::string::npos);
  EXPECT_NE(repl_.Execute(".reorder nope").find("usage"), std::string::npos);
  // Reordering is a pure access-path change.
  repl_.Execute("object o1 {}.");
  repl_.Execute("object o2 {}.");
  repl_.Execute("edge(o1, o2).");
  repl_.Execute("tagged(o2).");
  repl_.Execute("hit(X, Y) <- edge(X, Y), tagged(Y).");
  std::string on_out = repl_.Execute("?- hit(X, Y).");
  EXPECT_NE(on_out.find("1 answer"), std::string::npos);
  EXPECT_NE(repl_.Execute(".reorder off").find("off"), std::string::npos);
  EXPECT_EQ(repl_.Execute("?- hit(X, Y)."), on_out);
}

TEST_F(ReplTest, RulesListing) {
  EXPECT_EQ(repl_.Execute(".rules"), "(no rules)\n");
  repl_.Execute("object o1 {}.");
  repl_.Execute("q(X) <- p(X).");
  std::string rules = repl_.Execute(".rules");
  EXPECT_NE(rules.find("q(X) <- p(X)."), std::string::npos);
}

TEST_F(ReplTest, LoadLibraries) {
  EXPECT_EQ(repl_.Execute(".lib std"), "library loaded\n");
  EXPECT_EQ(repl_.Execute(".lib taxonomy"), "library loaded\n");
  EXPECT_NE(repl_.Execute(".lib nope").find("usage"), std::string::npos);
  std::string rules = repl_.Execute(".rules");
  EXPECT_NE(rules.find("contains(G1, G2)"), std::string::npos);
  EXPECT_NE(rules.find("kind_of"), std::string::npos);
}

TEST_F(ReplTest, SaveAndLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/repl_archive.vql";
  repl_.Execute("object o1 { name: \"David\" }.");
  repl_.Execute(
      "interval g { duration: (t >= 0 and t <= 5), entities: {o1} }.");
  EXPECT_EQ(repl_.Execute(".save " + path), "saved " + path + "\n");

  VideoDatabase fresh;
  Repl other(&fresh);
  std::string out = other.Execute(".load " + path);
  EXPECT_NE(out.find("loaded"), std::string::npos);
  EXPECT_EQ(fresh.Entities().size(), 1u);
  std::filesystem::remove(path);
}

TEST_F(ReplTest, SaveBinary) {
  std::string path = ::testing::TempDir() + "/repl_archive.vqdb";
  repl_.Execute("object o1 {}.");
  EXPECT_EQ(repl_.Execute(".save " + path), "saved " + path + "\n");
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST_F(ReplTest, QuitSetsDone) {
  EXPECT_FALSE(repl_.done());
  repl_.Execute(".quit");
  EXPECT_TRUE(repl_.done());
}

TEST_F(ReplTest, UnknownMetaCommand) {
  EXPECT_NE(repl_.Execute(".bogus").find("unknown command"),
            std::string::npos);
}

TEST_F(ReplTest, HelpMentionsEveryCommand) {
  std::string help = repl_.Execute(".help");
  for (const char* cmd : {".stats", ".slowlog", ".rules", ".objects", ".lib",
                          ".load", ".save", ".quit"}) {
    EXPECT_NE(help.find(cmd), std::string::npos) << cmd;
  }
}


TEST_F(ReplTest, JournalMirrorsDataStatements) {
  std::string path = ::testing::TempDir() + "/repl_journal.log";
  std::filesystem::remove(path);
  EXPECT_NE(repl_.Execute(".journal " + path).find("journaling"),
            std::string::npos);
  EXPECT_EQ(repl_.Execute("object o1 { name: \"x\" }."), "ok\n");
  EXPECT_EQ(repl_.Execute("q(X) <- p(X)."), "ok\n");  // rule: not journaled
  EXPECT_NE(repl_.Execute(".journal").find(path), std::string::npos);
  EXPECT_EQ(repl_.Execute(".journal off"), "journaling off\n");

  VideoDatabase fresh;
  auto replayed = Journal::Replay(path, &fresh);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->statements_replayed, 1u);  // only the declaration
  EXPECT_FALSE(replayed->truncated);
  EXPECT_EQ(fresh.Entities().size(), 1u);
  std::filesystem::remove(path);
}

TEST_F(ReplTest, LastStatusTracksOutcomesForExitCodes) {
  // The vql exit code comes from last_status() via ExitCodeForStatus: a
  // script can tell a parse error (2) from success (0).
  repl_.Execute("object o1 { }.");
  EXPECT_TRUE(repl_.last_status().ok());

  repl_.Execute("?- p(X.");  // parse error
  EXPECT_TRUE(repl_.last_status().IsParseError());
  EXPECT_EQ(ExitCodeForStatus(repl_.last_status()), 2);

  repl_.Execute("?- Object(X).");
  EXPECT_TRUE(repl_.last_status().ok());
  EXPECT_EQ(ExitCodeForStatus(repl_.last_status()), 0);

  repl_.Execute(".nonsense");  // meta-command errors count too
  EXPECT_FALSE(repl_.last_status().ok());
}

TEST_F(ReplTest, CancelTokenInterruptsQueries) {
  auto token = std::make_shared<CancelToken>();
  repl_.InstallCancelToken(token);
  EXPECT_EQ(repl_.Execute("object a { }."), "ok\n");
  token->Cancel();
  std::string out = repl_.Execute("?- Object(X).");
  EXPECT_NE(out.find("Cancelled"), std::string::npos) << out;
  EXPECT_TRUE(repl_.last_status().IsCancelled());
  token->Reset();
  out = repl_.Execute("?- Object(X).");
  EXPECT_NE(out.find("1 answer"), std::string::npos) << out;
}

TEST_F(ReplTest, FlushJournalSyncsTheMirror) {
  // No journal attached: flushing is a no-op, not an error.
  EXPECT_TRUE(repl_.FlushJournal().ok());

  std::string path = ::testing::TempDir() + "/repl_flush_journal.log";
  std::filesystem::remove(path);
  repl_.Execute(".journal " + path);
  repl_.Execute("object o1 { name: \"x\" }.");
  // The signal-exit path: flush without detaching, then replay what's on
  // disk — the statement must be durable.
  EXPECT_TRUE(repl_.FlushJournal().ok());
  VideoDatabase fresh;
  auto replayed = Journal::Replay(path, &fresh);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->statements_replayed, 1u);
  repl_.Execute(".journal off");
  std::filesystem::remove(path);
}

TEST_F(ReplTest, ThreadsRejectsMalformedNumbers) {
  // The old strtol path silently accepted trailing garbage and wrapped on
  // overflow; all of these must be usage errors now.
  EXPECT_EQ(repl_.Execute(".threads 4x"),
            "usage: .threads <N>=1|auto  (1 = serial engine)\n");
  EXPECT_EQ(repl_.Execute(".threads -2"),
            "usage: .threads <N>=1|auto  (1 = serial engine)\n");
  EXPECT_EQ(repl_.Execute(".threads 0"),
            "usage: .threads <N>=1|auto  (1 = serial engine)\n");
  EXPECT_EQ(repl_.Execute(".threads 99999999999999999999"),
            "usage: .threads <N>=1|auto  (1 = serial engine)\n");
  EXPECT_EQ(repl_.Execute(".threads 2"), "fixpoint threads: 2\n");
  EXPECT_EQ(repl_.Execute(".threads auto"),
            "fixpoint threads: auto (hardware concurrency)\n");
}

TEST_F(ReplTest, TimeoutRejectsMalformedNumbers) {
  EXPECT_EQ(repl_.Execute(".timeout 100ms"), "usage: .timeout <ms>|off\n");
  EXPECT_EQ(repl_.Execute(".timeout -5"), "usage: .timeout <ms>|off\n");
  // Overflow must not wrap into a bogus (possibly negative) deadline.
  EXPECT_EQ(repl_.Execute(".timeout 99999999999999999999"),
            "usage: .timeout <ms>|off\n");
  EXPECT_EQ(repl_.Execute(".timeout 250"), "query timeout: 250 ms\n");
  EXPECT_EQ(repl_.Execute(".timeout"), "query timeout: 250 ms\n");
  EXPECT_EQ(repl_.Execute(".timeout off"), "query timeout: off\n");
}

TEST_F(ReplTest, MagicStrategyRoundTrips) {
  // .strategy is the one strategy switch: .magic is no command.
  EXPECT_EQ(repl_.Execute(".magic off"),
            "unknown command .magic (try .help)\n");
  EXPECT_EQ(repl_.Execute(".strategy magic"), "strategy: magic\n");
  EXPECT_EQ(repl_.Execute(".strategy fixpoint"), "strategy: fixpoint\n");
  EXPECT_EQ(repl_.Execute(".strategy magic"), "strategy: magic\n");
  // Queries still run after switching.
  EXPECT_EQ(repl_.Execute("object a {}."), "ok\n");
  EXPECT_EQ(repl_.Execute("p(a)."), "ok\n");
  EXPECT_NE(repl_.Execute("?- p(X).").find("a"), std::string::npos);
}

TEST_F(ReplTest, CacheCommandReportsTogglesAndClears) {
  EXPECT_EQ(repl_.Execute(".cache"), "query cache: on (0 entries)\n");
  EXPECT_EQ(repl_.Execute("object a {}."), "ok\n");
  EXPECT_EQ(repl_.Execute("p(a)."), "ok\n");
  EXPECT_NE(repl_.Execute("?- p(X).").find("a"), std::string::npos);
  EXPECT_EQ(repl_.Execute(".cache"), "query cache: on (1 entries)\n");
  EXPECT_EQ(repl_.Execute(".cache clear"), "query cache cleared\n");
  EXPECT_EQ(repl_.Execute(".cache"), "query cache: on (0 entries)\n");
  EXPECT_EQ(repl_.Execute(".cache off"), "query cache: off\n");
  EXPECT_EQ(repl_.Execute(".cache maybe"), "usage: .cache [on|off|clear]\n");
  EXPECT_EQ(repl_.Execute(".cache on"), "query cache: on\n");
}

class ReplArchiveTest : public ReplTest {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/repl_archive_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ReplArchiveTest, OpenRouteQueryAndClose) {
  EXPECT_NE(repl_.Execute(".archive"), "");  // usage hint, not a crash
  std::string out = repl_.Execute(".archive open " + dir_ + " 2");
  EXPECT_NE(out.find("archive " + dir_ + " open (2 shards)"),
            std::string::npos)
      << out;

  // Statements route through the archive under the active tenant.
  out = repl_.Execute(".tenant alice");
  EXPECT_NE(out.find("tenant: alice (shard "), std::string::npos);
  out = repl_.Execute("object a1 { }.");
  EXPECT_NE(out.find("ok (tenant alice -> shard "), std::string::npos);
  EXPECT_EQ(repl_.Execute("tagged(a1)."),
            out);  // same tenant, same shard
  repl_.Execute(".tenant bob");
  EXPECT_NE(repl_.Execute("object b1 { }.")
                .find("ok (tenant bob -> shard "),
            std::string::npos);
  repl_.Execute("tagged(b1).");

  // Queries scatter-gather over every shard.
  out = repl_.Execute("?- tagged(X).");
  EXPECT_NE(out.find("2 answers"), std::string::npos) << out;
  EXPECT_NE(out.find("a1"), std::string::npos);
  EXPECT_NE(out.find("b1"), std::string::npos);

  // Shard introspection.
  out = repl_.Execute(".shards");
  EXPECT_NE(out.find("shard 0 [healthy]"), std::string::npos) << out;
  EXPECT_NE(out.find("shard 1 [healthy]"), std::string::npos);

  EXPECT_EQ(repl_.Execute(".archive close"), "archive closed\n");
  // Back to plain single-database mode.
  EXPECT_EQ(repl_.Execute("object local { }."), "ok\n");
}

TEST_F(ReplArchiveTest, KilledShardStrictThenPartialThenRecovered) {
  repl_.Execute(".archive open " + dir_ + " 2");
  repl_.Execute(".tenant alice");
  repl_.Execute("object a1 { }.");
  repl_.Execute("tagged(a1).");
  repl_.Execute(".tenant bob");
  repl_.Execute("object b1 { }.");
  repl_.Execute("tagged(b1).");

  // Kill the shard alice's data lives on, whichever one routing picked.
  ASSERT_NE(repl_.archive(), nullptr);
  const uint32_t dead = repl_.archive()->ShardIdFor("alice");
  const std::string dead_str = std::to_string(dead);
  std::string out = repl_.Execute(".shard kill " + dead_str);
  EXPECT_NE(out.find("shard " + dead_str + " killed"), std::string::npos);

  // Strict (default): the query refuses rather than answering silently
  // incompletely.
  out = repl_.Execute("?- tagged(X).");
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("unavailable"), std::string::npos) << out;

  // Opt-in partial answers are marked and carry the gap report.
  EXPECT_EQ(repl_.Execute(".partial on"), "partial answers: on\n");
  out = repl_.Execute("?- tagged(X).");
  EXPECT_NE(out.find("PARTIAL"), std::string::npos) << out;
  EXPECT_NE(out.find("1 answer"), std::string::npos);
  EXPECT_NE(out.find("missing shard " + dead_str), std::string::npos);

  // Writes to the dead shard refuse; sys_shards shows the failure.
  repl_.Execute(".tenant alice");
  out = repl_.Execute("object a2 { }.");
  EXPECT_NE(out.find("error:"), std::string::npos);
  out = repl_.Execute("?- sys_shards(S, St, F, R, D, Rec, E).");
  EXPECT_NE(out.find("failed"), std::string::npos) << out;

  out = repl_.Execute(".shard recover " + dead_str);
  EXPECT_NE(out.find("shard " + dead_str + " recovered [healthy]"),
            std::string::npos)
      << out;
  EXPECT_EQ(repl_.Execute(".partial off"), "partial answers: off\n");
  out = repl_.Execute("?- tagged(X).");
  EXPECT_NE(out.find("2 answers"), std::string::npos) << out;
}

TEST_F(ReplArchiveTest, SnapshotRotatesAndExplainShowsShards) {
  repl_.Execute(".archive open " + dir_ + " 2");
  repl_.Execute(".tenant alice");
  repl_.Execute("object a1 { }.");
  std::string out = repl_.Execute(".shard snapshot all");
  EXPECT_EQ(out, "all shards rotated to fresh snapshots\n");
  out = repl_.Execute("explain analyze ?- Object(X).");
  EXPECT_NE(out.find("sharded archive:"), std::string::npos) << out;
  EXPECT_NE(out.find("scatter-gather"), std::string::npos);
}

TEST_F(ReplArchiveTest, ArchivePersistsAcrossReopen) {
  repl_.Execute(".archive open " + dir_ + " 2");
  repl_.Execute(".tenant alice");
  repl_.Execute("object a1 { }.");
  repl_.Execute("tagged(a1).");
  repl_.Execute(".archive close");

  VideoDatabase fresh;
  Repl other(&fresh);
  other.Execute(".archive open " + dir_);
  std::string out = other.Execute("?- tagged(X).");
  EXPECT_NE(out.find("1 answer"), std::string::npos) << out;
  EXPECT_NE(out.find("a1"), std::string::npos);
}

TEST_F(ReplArchiveTest, HelpMentionsArchiveCommands) {
  std::string help = repl_.Execute(".help");
  for (const char* cmd :
       {".archive", ".tenant", ".partial", ".shards", ".shard"}) {
    EXPECT_NE(help.find(cmd), std::string::npos) << cmd;
  }
}

}  // namespace
}  // namespace vqldb
