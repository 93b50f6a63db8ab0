#include "src/shell/repl.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/engine/rule_compiler.h"
#include "src/lang/parser.h"
#include "src/model/term_dict.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "src/storage/binary_format.h"
#include "src/storage/catalog.h"
#include "src/storage/text_format.h"

namespace vqldb {

namespace {

bool IsBinaryPath(std::string_view path) { return EndsWith(path, ".vqdb"); }

// Strips a leading case-insensitive keyword followed by whitespace.
bool EatKeyword(std::string_view* s, std::string_view keyword) {
  if (s->size() <= keyword.size()) return false;
  for (size_t i = 0; i < keyword.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>((*s)[i])) != keyword[i]) {
      return false;
    }
  }
  if (!std::isspace(static_cast<unsigned char>((*s)[keyword.size()]))) {
    return false;
  }
  *s = Trim(s->substr(keyword.size()));
  return true;
}

}  // namespace

Repl::Repl(VideoDatabase* db, EvalOptions options)
    : db_(db), session_(db, options) {}

void Repl::InstallCancelToken(std::shared_ptr<CancelToken> token) {
  cancel_ = std::move(token);
  session_.mutable_options()->cancel = cancel_;
}

Status Repl::FlushJournal() {
  if (!journal_.has_value()) return Status::OK();
  return journal_->Sync();
}

class Repl::DeadlineScope {
 public:
  DeadlineScope(QuerySession* session, int64_t timeout_ms) : session_(session) {
    if (timeout_ms > 0) {
      session_->mutable_options()->deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(timeout_ms);
    }
  }
  ~DeadlineScope() { session_->mutable_options()->deadline.reset(); }

 private:
  QuerySession* session_;
};

std::string Repl::Execute(std::string_view line) {
  std::string trimmed(Trim(line));
  if (trimmed.empty() && buffer_.empty()) return "";

  // Meta-commands act immediately (never buffered).
  if (buffer_.empty() && trimmed.size() > 1 && trimmed[0] == '.' &&
      !std::isdigit(static_cast<unsigned char>(trimmed[1]))) {
    size_t space = trimmed.find(' ');
    std::string command = trimmed.substr(0, space);
    std::string argument =
        space == std::string::npos
            ? ""
            : std::string(Trim(trimmed.substr(space + 1)));
    return Meta(command, argument);
  }

  // Buffer until the statement terminator.
  if (!buffer_.empty()) buffer_ += "\n";
  buffer_ += trimmed;
  if (!EndsWith(Trim(buffer_), ".")) {
    return "";  // continuation expected
  }
  std::string input = std::move(buffer_);
  buffer_.clear();
  return Dispatch(input);
}

std::string Repl::Dispatch(const std::string& input) {
  std::string_view trimmed = Trim(input);
  std::string_view rest = trimmed;
  last_status_ = Status::OK();
  auto fail = [this](const Status& st) {
    last_status_ = st;
    return "error: " + st.ToString() + "\n";
  };
  // A tripped cancel token (SIGINT between inputs) fails the next input
  // up front: the engine only polls the token inside rule evaluation, and
  // an interrupted shell should not start new work at all.
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return fail(Status::Cancelled("interrupted"));
  }
  if (EatKeyword(&rest, "explain")) {
    bool analyze = EatKeyword(&rest, "analyze");
    if (!StartsWith(rest, "?-")) {
      return "usage: explain [analyze] ?- goal.\n";
    }
    if (archive_ != nullptr) {
      auto text = archive_->Explain(rest, analyze);
      if (!text.ok()) return fail(text.status());
      return *text;
    }
    DeadlineScope deadline(&session_, timeout_ms_);
    auto text = session_.Explain(rest, analyze);
    if (!text.ok()) return fail(text.status());
    return *text;
  }
  if (StartsWith(trimmed, "?-")) {
    if (archive_ != nullptr) {
      ShardedArchive::QueryOptions qopts;
      qopts.allow_partial = allow_partial_;
      qopts.cancel = cancel_;
      auto result = archive_->Query(trimmed, qopts);
      if (!result.ok()) return fail(result.status());
      return result->ToString();
    }
    DeadlineScope deadline(&session_, timeout_ms_);
    auto result = session_.Query(trimmed);
    if (!result.ok()) return fail(result.status());
    return result->ToString(db_);
  }
  if (archive_ != nullptr) {
    Status st = archive_->Apply(tenant_, std::string(trimmed));
    if (!st.ok()) return fail(st);
    return "ok (tenant " + tenant_ + " -> shard " +
           std::to_string(archive_->ShardIdFor(tenant_)) + ")\n";
  }
  Status st = session_.Load(trimmed);
  if (!st.ok()) return fail(st);
  if (journal_.has_value()) {
    // Mirror data statements; Append itself rejects rules/queries, which
    // simply stay out of the journal.
    Status jst = journal_->Append(std::string(trimmed));
    if (!jst.ok() && !jst.IsInvalidArgument()) {
      return "ok (journal write failed: " + jst.ToString() + ")\n";
    }
  }
  return "ok\n";
}

std::string Repl::Meta(const std::string& command,
                       const std::string& argument) {
  last_status_ = Status::OK();
  if (command == ".quit" || command == ".exit") {
    done_ = true;
    return "";
  }
  if (command == ".help") return Help();
  if (command == ".stats") {
    if (argument == "reset") {
      obs::MetricsRegistry::Global().ResetAll();
      obs::StatsCollector::Global().Reset();
      return "metrics reset\n";
    }
    if (!argument.empty()) return "usage: .stats [reset]\n";
    return Stats();
  }
  if (command == ".slowlog") {
    if (argument == "reset") {
      obs::StatsCollector::Global().ResetSlowLog();
      return "slow-query log reset\n";
    }
    size_t limit = 10;
    if (!argument.empty()) {
      size_t parsed = 0;
      bool ok = !argument.empty();
      for (char c : argument) {
        if (!std::isdigit(static_cast<unsigned char>(c)) ||
            parsed > 100000) {
          ok = false;
          break;
        }
        parsed = parsed * 10 + static_cast<size_t>(c - '0');
      }
      if (!ok || parsed == 0) return "usage: .slowlog [n|reset]\n";
      limit = parsed;
    }
    return obs::StatsCollector::Global().RenderSlowLogText(limit);
  }
  if (command == ".trace") {
    if (argument == "off") {
      if (!obs::TracingEnabled()) return "tracing already off\n";
      obs::SetTracingEnabled(false);
      std::string out = "tracing off";
      if (!trace_path_.empty()) {
        std::string error;
        if (obs::Tracer::Global().WriteFile(trace_path_, &error)) {
          out += ", " + std::to_string(obs::Tracer::Global().event_count()) +
                 " events written to " + trace_path_;
        } else {
          out += " (trace write failed: " + error + ")";
        }
        trace_path_.clear();
      }
      obs::Tracer::Global().Clear();
      return out + "\n";
    }
    if (argument == "on" || StartsWith(argument, "on ")) {
      std::string path(Trim(std::string_view(argument).substr(2)));
      if (path.empty()) return "usage: .trace on <file> | .trace off\n";
      trace_path_ = path;
      obs::Tracer::Global().Clear();
      obs::SetTracingEnabled(true);
      return "tracing to " + path + " (written on .trace off)\n";
    }
    if (argument.empty()) {
      return obs::TracingEnabled() ? "tracing to " + trace_path_ + "\n"
                                   : "tracing off\n";
    }
    return "usage: .trace on <file> | .trace off\n";
  }
  if (command == ".loglevel") {
    if (argument.empty()) {
      return std::string("log level: ") + LogLevelName(GetLogLevel()) + "\n";
    }
    LogLevel level;
    if (!ParseLogLevel(argument, &level)) {
      return "usage: .loglevel debug|info|warn|error|fatal\n";
    }
    SetLogLevel(level);
    return std::string("log level: ") + LogLevelName(level) + "\n";
  }
  if (command == ".rules") return ListRules();
  if (command == ".objects") return ListObjects();
  if (command == ".lib") {
    const char* text = nullptr;
    if (argument == "std") {
      text = StandardRuleLibrary();
    } else if (argument == "taxonomy") {
      text = TaxonomyRuleLibrary();
    } else {
      return "usage: .lib std|taxonomy\n";
    }
    Status st = session_.Load(text);
    return st.ok() ? "library loaded\n" : "error: " + st.ToString() + "\n";
  }
  if (command == ".load") {
    if (argument.empty()) return "usage: .load <path>\n";
    if (IsBinaryPath(argument)) {
      return "error: binary snapshots restore into a fresh database; start "
             "vql with the snapshot as an argument\n";
    }
    auto loaded = TextFormat::LoadFromFile(argument, db_);
    if (!loaded.ok()) return "error: " + loaded.status().ToString() + "\n";
    for (const Rule& rule : loaded->rules) {
      Status st = session_.AddRule(rule);
      if (!st.ok()) return "error: " + st.ToString() + "\n";
    }
    session_.Invalidate();
    return "loaded " + argument + " (" +
           std::to_string(loaded->rules.size()) + " rules)\n";
  }
  if (command == ".save") {
    if (argument.empty()) return "usage: .save <path[.vql|.vqdb]>\n";
    Status st = IsBinaryPath(argument) ? BinaryFormat::Save(*db_, argument)
                                       : TextFormat::DumpToFile(*db_, argument);
    return st.ok() ? "saved " + argument + "\n"
                   : "error: " + st.ToString() + "\n";
  }
  if (command == ".clearbuf") {
    buffer_.clear();
    return "input buffer cleared\n";
  }
  if (command == ".explain") {
    if (argument.empty()) return "usage: .explain <rule ending with '.'>\n";
    auto rule = Parser::ParseRule(argument);
    if (!rule.ok()) return "error: " + rule.status().ToString() + "\n";
    auto compiled = RuleCompiler::Compile(*rule, *db_);
    if (!compiled.ok()) return "error: " + compiled.status().ToString() + "\n";
    return ExplainRule(*compiled);
  }
  if (command == ".threads") {
    if (argument.empty()) {
      size_t n = session_.options().num_threads;
      return "fixpoint threads: " +
             (n == 0 ? std::string("auto (hardware concurrency)")
                     : std::to_string(n)) +
             "\n";
    }
    if (argument == "auto") {
      session_.mutable_options()->num_threads = 0;
      return "fixpoint threads: auto (hardware concurrency)\n";
    }
    int64_t n = 0;
    if (!ParseNonNegativeInt(argument, &n) || n < 1) {
      return "usage: .threads <N>=1|auto  (1 = serial engine)\n";
    }
    session_.mutable_options()->num_threads = static_cast<size_t>(n);
    return "fixpoint threads: " + std::to_string(n) + "\n";
  }
  if (command == ".timeout") {
    if (argument.empty()) {
      return timeout_ms_ > 0
                 ? "query timeout: " + std::to_string(timeout_ms_) + " ms\n"
                 : "query timeout: off\n";
    }
    if (argument == "off") {
      timeout_ms_ = 0;
      return "query timeout: off\n";
    }
    int64_t ms = 0;
    if (!ParseNonNegativeInt(argument, &ms) || ms < 1) {
      return "usage: .timeout <ms>|off\n";
    }
    timeout_ms_ = ms;
    return "query timeout: " + std::to_string(ms) + " ms\n";
  }
  if (command == ".strategy") {
    if (argument.empty()) {
      return std::string("strategy: ") +
             EvalStrategyName(session_.options().strategy) + "\n";
    }
    EvalStrategy strategy;
    if (argument == "auto") {
      strategy = EvalStrategy::kAuto;
    } else if (argument == "qsqr") {
      strategy = EvalStrategy::kQsqr;
    } else if (argument == "magic") {
      strategy = EvalStrategy::kMagic;
    } else if (argument == "fixpoint") {
      strategy = EvalStrategy::kFixpoint;
    } else {
      return "usage: .strategy [auto|qsqr|magic|fixpoint]\n";
    }
    // Answers are strategy-independent, so cached entries stay valid.
    session_.mutable_options()->strategy = strategy;
    return "strategy: " + argument + "\n";
  }
  if (command == ".reorder") {
    if (argument.empty()) {
      return std::string("body reordering: ") +
             (session_.options().reorder_body ? "on" : "off") + "\n";
    }
    if (argument == "on" || argument == "off") {
      session_.mutable_options()->reorder_body = argument == "on";
      // Rules compile their literal order in; recompile on the next query.
      session_.Invalidate();
      return "body reordering: " + argument + "\n";
    }
    return "usage: .reorder [on|off]\n";
  }
  if (command == ".storage") {
    if (!argument.empty()) return "usage: .storage\n";
    return Storage();
  }
  if (command == ".cache") {
    if (argument.empty()) {
      return std::string("query cache: ") +
             (session_.cache_enabled() ? "on" : "off") + " (" +
             std::to_string(session_.query_cache_size()) + " entries)\n";
    }
    if (argument == "on" || argument == "off") {
      session_.set_cache_enabled(argument == "on");
      return "query cache: " + argument + "\n";
    }
    if (argument == "clear") {
      session_.ClearQueryCache();
      return "query cache cleared\n";
    }
    return "usage: .cache [on|off|clear]\n";
  }
  if (command == ".memlimit") {
    if (argument.empty()) {
      const std::shared_ptr<ResourceBudget>& g = session_.governor();
      if (g == nullptr) return "memory limit: off\n";
      return "memory limit: " + std::to_string(g->limits().max_bytes) +
             " bytes (" + std::to_string(g->bytes_reserved()) +
             " reserved, peak " + std::to_string(g->bytes_peak()) + ")\n";
    }
    if (argument == "off") {
      session_.EnableMemoryGovernor(0);
      return "memory limit: off\n";
    }
    int64_t bytes = 0;
    if (!ParseNonNegativeInt(argument, &bytes) || bytes < 1) {
      return "usage: .memlimit <bytes>|off\n";
    }
    session_.EnableMemoryGovernor(static_cast<size_t>(bytes));
    return "memory limit: " + std::to_string(bytes) + " bytes\n";
  }
  if (command == ".concurrency") {
    if (argument.empty()) {
      const std::shared_ptr<QueryGate>& gate = session_.gate();
      if (gate == nullptr) return "admission control: off\n";
      return "admission control: " +
             std::to_string(gate->options().max_concurrent) + " slots (" +
             std::to_string(gate->admitted_total()) + " admitted, " +
             std::to_string(gate->shed_total()) + " shed)\n";
    }
    if (argument == "off") {
      session_.set_gate(nullptr);
      return "admission control: off\n";
    }
    int64_t slots = 0;
    if (!ParseNonNegativeInt(argument, &slots) || slots < 1) {
      return "usage: .concurrency <slots>|off\n";
    }
    QueryGate::Options gopts;
    gopts.max_concurrent = static_cast<size_t>(slots);
    session_.set_gate(std::make_shared<QueryGate>(gopts));
    return "admission control: " + std::to_string(slots) + " slots\n";
  }
  if (command == ".journal") {
    if (argument == "off") {
      if (journal_.has_value()) {
        Status st = journal_->Sync();  // batched tails reach the disk
        journal_.reset();
        if (!st.ok()) return "journaling off (sync failed: " + st.ToString() + ")\n";
      }
      return "journaling off\n";
    }
    if (argument.empty()) {
      return journal_.has_value() ? "journaling to " + journal_->path() + "\n"
                                  : "journaling off (usage: .journal <path> "
                                    "[flush|fsync|batch])\n";
    }
    size_t space = argument.find(' ');
    std::string path = argument.substr(0, space);
    Journal::Options jopts;
    if (space != std::string::npos) {
      std::string mode(Trim(std::string_view(argument).substr(space + 1)));
      if (mode == "flush") {
        jopts.durability = Journal::Durability::kFlush;
      } else if (mode == "fsync") {
        jopts.durability = Journal::Durability::kFsync;
      } else if (mode == "batch") {
        jopts.durability = Journal::Durability::kBatch;
      } else {
        return "usage: .journal <path> [flush|fsync|batch]\n";
      }
    }
    auto journal = Journal::Open(path, jopts);
    if (!journal.ok()) return "error: " + journal.status().ToString() + "\n";
    journal_ = std::move(*journal);
    return "journaling data statements to " + path + "\n";
  }
  if (command == ".archive") return ArchiveMeta(argument);
  if (command == ".tenant") {
    if (argument.empty()) {
      std::string out = "tenant: " + tenant_;
      if (archive_ != nullptr) {
        out += " (shard " + std::to_string(archive_->ShardIdFor(tenant_)) +
               ")";
      }
      return out + "\n";
    }
    tenant_ = argument;
    std::string out = "tenant: " + tenant_;
    if (archive_ != nullptr) {
      out += " (shard " + std::to_string(archive_->ShardIdFor(tenant_)) + ")";
    }
    return out + "\n";
  }
  if (command == ".partial") {
    if (argument.empty()) {
      return std::string("partial answers: ") +
             (allow_partial_ ? "on" : "off") + "\n";
    }
    if (argument == "on" || argument == "off") {
      allow_partial_ = argument == "on";
      return "partial answers: " + argument + "\n";
    }
    return "usage: .partial [on|off]\n";
  }
  if (command == ".shards") {
    if (archive_ == nullptr) return "no archive attached (.archive open)\n";
    return ListShards();
  }
  if (command == ".shard") return ShardMeta(argument);
  last_status_ = Status::InvalidArgument("unknown command " + command);
  return "unknown command " + command + " (try .help)\n";
}

std::string Repl::ArchiveMeta(const std::string& argument) {
  if (argument.empty()) {
    if (archive_ == nullptr) {
      return "no archive attached (usage: .archive open <dir> [shards])\n";
    }
    return "archive: " + archive_->root() + " (" +
           std::to_string(archive_->shard_count()) + " shards)\n" +
           ListShards();
  }
  std::string_view rest = argument;
  if (rest == "close") {
    if (archive_ == nullptr) return "no archive attached\n";
    archive_.reset();
    return "archive closed\n";
  }
  if (EatKeyword(&rest, "open")) {
    if (rest.empty()) return "usage: .archive open <dir> [shards]\n";
    size_t space = rest.find(' ');
    std::string dir(Trim(rest.substr(0, space)));
    ShardedArchive::Options aopts;
    if (space != std::string_view::npos) {
      int64_t n = 0;
      std::string count(Trim(rest.substr(space + 1)));
      if (!ParseNonNegativeInt(count, &n) || n < 1) {
        return "usage: .archive open <dir> [shards]\n";
      }
      aopts.shard_count = static_cast<size_t>(n);
    }
    auto archive = ShardedArchive::Open(dir, std::move(aopts));
    if (!archive.ok()) return "error: " + archive.status().ToString() + "\n";
    archive_ = std::move(*archive);
    return "archive " + dir + " open (" +
           std::to_string(archive_->shard_count()) + " shards)\n" +
           ListShards();
  }
  return "usage: .archive open <dir> [shards] | .archive close\n";
}

std::string Repl::ShardMeta(const std::string& argument) {
  if (archive_ == nullptr) return "no archive attached (.archive open)\n";
  const std::string usage =
      "usage: .shard snapshot <id>|all | .shard kill <id> | "
      ".shard recover <id>|all\n";
  std::string_view rest = argument;
  auto parse_id = [&](std::string_view arg, int64_t* id) {
    return ParseNonNegativeInt(std::string(Trim(arg)), id) &&
           static_cast<size_t>(*id) < archive_->shard_count();
  };
  if (EatKeyword(&rest, "snapshot")) {
    if (rest == "all") {
      Status st = archive_->SnapshotAll();
      if (!st.ok()) return "error: " + st.ToString() + "\n";
      return "all shards rotated to fresh snapshots\n";
    }
    int64_t id = 0;
    if (!parse_id(rest, &id)) return usage;
    Status st = archive_->SnapshotShard(static_cast<uint32_t>(id));
    if (!st.ok()) return "error: " + st.ToString() + "\n";
    return "shard " + std::to_string(id) + " rotated to generation " +
           std::to_string(archive_->shard_generation(
               static_cast<uint32_t>(id))) +
           "\n";
  }
  if (EatKeyword(&rest, "kill")) {
    int64_t id = 0;
    if (!parse_id(rest, &id)) return usage;
    archive_->KillShard(static_cast<uint32_t>(id));
    return "shard " + std::to_string(id) + " killed (durable state intact; "
           ".shard recover " + std::to_string(id) + " restores it)\n";
  }
  if (EatKeyword(&rest, "recover")) {
    if (rest == "all") {
      Status st = archive_->RecoverAll();
      if (!st.ok()) return "error: " + st.ToString() + "\n";
      return "recovery pass complete\n" + ListShards();
    }
    int64_t id = 0;
    if (!parse_id(rest, &id)) return usage;
    Status st = archive_->RecoverShard(static_cast<uint32_t>(id));
    if (!st.ok()) return "error: " + st.ToString() + "\n";
    return "shard " + std::to_string(id) + " recovered [" +
           ShardedArchive::ShardStateName(
               archive_->shard_state(static_cast<uint32_t>(id))) +
           "]\n";
  }
  return usage;
}

std::string Repl::ListShards() const {
  std::ostringstream os;
  for (const ShardInfoRow& row : archive_->ShardInfo()) {
    os << "  shard " << row.shard_id << " [" << row.state << "] "
       << row.facts << " facts, replayed " << row.records_replayed
       << ", dropped " << row.records_dropped << ", recoveries "
       << row.recoveries;
    if (!row.last_error.empty()) os << " — " << row.last_error;
    os << "\n";
  }
  return os.str();
}

std::string Repl::Help() const {
  return
      "statements end with '.', and may span lines:\n"
      "  object o1 { name: \"David\" }.          declare an entity\n"
      "  interval gi1 { duration: (t > 0 and t < 9), entities: {o1} }.\n"
      "  in(o1, gi1).                           assert a fact\n"
      "  q(G) <- Interval(G), o1 in G.entities. add a rule\n"
      "  ?- q(G).                               run a query\n"
      "  explain ?- q(G).                       show rule plans for a goal\n"
      "  explain analyze ?- q(G).               ... plus measured profile\n"
      "meta commands:\n"
      "  .help             this text\n"
      "  .stats [reset]    database statistics + engine metrics (or reset)\n"
      "  .slowlog [n|reset]\n"
      "                    last n slow/failed queries with per-phase timings\n"
      "  .objects          list named objects\n"
      "  .rules            list session rules\n"
      "  .lib std|taxonomy load a bundled rule library\n"
      "  .load <path>      load a .vql text archive\n"
      "  .save <path>      save archive (.vql text, .vqdb binary)\n"
      "  .explain <rule>   show the execution plan of a rule\n"
      "  .threads <N|auto> fixpoint worker threads (1 = serial engine)\n"
      "  .timeout <ms|off> per-query wall-clock budget (DeadlineExceeded)\n"
      "  .strategy [auto|qsqr|magic|fixpoint]\n"
      "                    execution strategy (auto = by the goal's cone:\n"
      "                    qsqr if non-recursive, magic if recursive)\n"
      "  .reorder [on|off] stats-driven body-literal reordering (default off)\n"
      "  .storage          columnar storage + dictionary statistics\n"
      "  .cache [on|off|clear]\n"
      "                    memoizing query cache (epoch-invalidated)\n"
      "  .memlimit <bytes|off>\n"
      "                    governed memory budget (ResourceExhausted on trip)\n"
      "  .concurrency <n|off>\n"
      "                    admission control: n query slots (Overloaded on shed)\n"
      "  .trace on <file>  record spans; written as Chrome JSON on .trace off\n"
      "  .loglevel <level> debug|info|warn|error|fatal (also env VQLDB_LOG)\n"
      "  .journal <path> [flush|fsync|batch]\n"
      "                    mirror data statements to a crash-safe log\n"
      "  .journal off      stop journaling (syncing any batched tail)\n"
      "  .archive open <dir> [shards]\n"
      "                    attach a sharded archive: statements route to the\n"
      "                    tenant's shard, queries scatter-gather all shards\n"
      "  .archive close    detach (back to the single in-memory database)\n"
      "  .tenant <name>    routing key for subsequent data statements\n"
      "  .partial [on|off] degraded-mode queries: answer from live shards\n"
      "                    and mark the result PARTIAL (default: strict)\n"
      "  .shards           per-shard health (also: ?- sys_shards(...).)\n"
      "  .shard snapshot <id>|all   rotate to a fresh snapshot + empty journal\n"
      "  .shard kill <id>           drop a shard's serving copy (recoverable)\n"
      "  .shard recover <id>|all    re-run per-shard recovery\n"
      "  .clearbuf         discard a half-entered statement\n"
      "  .quit             leave\n";
}

std::string Repl::Stats() const {
  VideoDatabase::Stats s = db_->GetStats();
  std::ostringstream os;
  os << s.entity_count << " entities, " << s.base_interval_count
     << " base intervals, " << s.derived_interval_count
     << " derived intervals, " << s.fact_count << " facts over "
     << s.relation_count << " relations, " << session_.rules().size()
     << " rules\n";
  std::string metrics = obs::MetricsRegistry::Global().RenderCompact();
  if (!metrics.empty()) os << "engine metrics (.stats reset):\n" << metrics;
  return os.str();
}

std::string Repl::Storage() {
  Result<const Interpretation*> interp = session_.Materialize();
  if (!interp.ok()) return "error: " + interp.status().ToString() + "\n";
  Interpretation::StorageStats st = (*interp)->ComputeStorageStats();
  const TermDict& dict = TermDict::Global();
  std::ostringstream os;
  os << "columnar storage (materialized fixpoint):\n"
     << "  tuples:       " << st.rows << " (" << st.sealed_rows
     << " sealed in " << st.segments << " segments)\n"
     << "  columnar:     " << st.columnar_bytes << " bytes";
  if (st.rows > 0) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%.1f",
             static_cast<double>(st.columnar_bytes) /
                 static_cast<double>(st.rows));
    os << " (" << buf << " b/tuple)";
  }
  os << "\n  row-store:    " << st.row_store_bytes << " bytes estimated";
  if (st.columnar_bytes > 0 && st.row_store_bytes > 0) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%.1f",
             static_cast<double>(st.row_store_bytes) /
                 static_cast<double>(st.columnar_bytes));
    os << " (" << buf << "x reduction)";
  }
  os << "\n  dictionary:   " << dict.size() << " terms, " << dict.ApproxBytes()
     << " bytes\n";
  return os.str();
}

std::string Repl::ListRules() const {
  if (session_.rules().empty()) return "(no rules)\n";
  std::string out;
  for (const Rule& rule : session_.rules()) {
    out += rule.ToString();
    out += "\n";
  }
  return out;
}

std::string Repl::ListObjects() const {
  std::ostringstream os;
  for (ObjectId id : db_->Entities()) {
    os << "object   " << db_->DisplayName(id) << "\n";
  }
  for (ObjectId id : db_->BaseIntervals()) {
    auto duration = db_->DurationOf(id);
    os << "interval " << db_->DisplayName(id);
    if (duration.ok()) os << " " << duration->ToString();
    os << "\n";
  }
  if (os.str().empty()) return "(empty database)\n";
  return os.str();
}

}  // namespace vqldb
