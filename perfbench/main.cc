// perfbench: the end-to-end vqlsrv benchmark. One seeded, single-process
// load generator launches the built vqlsrv with its default flags, gives it
// a generated news archive, drives one workload over loopback, checks the
// answers, and prints its metrics; the last line is one JSON object.
//
//   perfbench --vqlsrv <path> --workload browse|ingest|archive --seed <n>
//             --seconds <s> --trace 0|1 [--smoke] [--work-dir <dir>]
//             [--trace-dir <dir>] [--git-sha <sha>] [--inject-mismatch]
//             [--write-rate <r>] [--scan-share <p>]
//
// perfbench/run.py builds this binary and vqlsrv and passes the paths;
// perfbench/README.md describes the workloads and every metric.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/gen.h"
#include "perfbench/inproc.h"
#include "perfbench/proc.h"
#include "perfbench/replay.h"
#include "src/server/client.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using vqldb::Status;
using vqldb::server::Client;

constexpr int kExitUsage = 1;
constexpr int kExitSetup = 2;
constexpr int kExitWrong = 3;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string vqlsrv;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool inject_mismatch = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_dir = ".bench_build/traces";
  std::string git_sha = "unknown";
  double write_rate = -1;  // overrides, for choosing the workloads' rates
  double scan_share = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (flag == "--inject-mismatch") {
      a->inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (flag == "--vqlsrv") {
      a->vqlsrv = v;
    } else if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else if (flag == "--trace-dir") {
      a->trace_dir = v;
    } else if (flag == "--git-sha") {
      a->git_sha = v;
    } else if (flag == "--write-rate") {
      a->write_rate = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--scan-share") {
      a->scan_share = std::strtod(v.c_str(), nullptr);
    } else {
      return false;
    }
  }
  // The rates are medians over the window's whole seconds.
  return !a->vqlsrv.empty() && !a->workload.empty() && a->seconds >= 1;
}

// Latency samples of one kind. Percentiles are nearest-rank.
struct Dist {
  std::vector<double> v;

  void Add(double x) { v.push_back(x); }
  size_t n() const { return v.size(); }
  double Mean() const {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
  }
  double Pct(double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
  }
  // Samples strictly beyond the q-th percentile's rank.
  size_t Beyond(double q) const {
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v.size() - std::min(v.size(), rank);
  }
  void Merge(const Dist& o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
};

// 0 = warm-up, 1 = timed window, 2 = stop.
struct Phase {
  std::atomic<int> value{0};
  Clock::time_point window_start;  // set before value becomes 1
  int get() const { return value.load(std::memory_order_acquire); }
};

struct ReaderResult {
  Dist lookup, scan;
  uint64_t attempted = 0, failed = 0;  // timed window only
  std::vector<uint32_t> per_second;    // timed reads completed, by second
  size_t issued = 0;                    // whole run: the replay's stream
  std::vector<std::pair<std::string, std::string>> samples;  // query, body
  std::string first_error;
};

// A closed-loop reader: one connection, one request in flight, the next
// request sent as soon as the reply is decoded.
void RunReader(const WorkloadSpec& spec, uint64_t seed, size_t reader,
               uint16_t port, bool keep_samples, const Phase* phase,
               ReaderResult* out) {
  ReadGen gen(spec, seed, reader);
  Client::Options copts;
  copts.port = port;
  Client client(copts);
  while (phase->get() < 2) {
    Op op = gen.Next();
    ++out->issued;
    const bool timed = phase->get() == 1;
    const auto t0 = Clock::now();
    auto reply = client.Query(op.text);
    const double ms = MsBetween(t0, Clock::now());
    const bool ok = reply.ok() && reply->ok();
    if (!ok && out->first_error.empty()) {
      out->first_error = op.text + ": " +
                         (reply.ok() ? reply->body : reply.status().ToString());
    }
    if (timed) {
      ++out->attempted;
      if (!ok) ++out->failed;
      if (ok) {
        (op.kind == Op::Kind::kScan ? out->scan : out->lookup).Add(ms);
        const size_t second = static_cast<size_t>(
            std::chrono::duration<double>(Clock::now() - phase->window_start)
                .count());
        if (out->per_second.size() <= second) out->per_second.resize(second + 1);
        ++out->per_second[second];
      }
    }
    if (ok && keep_samples && out->issued % 29 == 0 && out->samples.size() < 64) {
      out->samples.emplace_back(op.text, reply->body);
    }
  }
}

struct WriterResult {
  Dist write;  // scheduled due time -> ack
  Dist lag;    // scheduled due time -> send (lateness against the schedule)
  Dist rtt;    // send -> ack
  uint64_t attempted = 0, failed = 0;  // timed window only
  std::vector<uint32_t> per_second;    // timed writes acked, by second
  std::vector<Op> acked;               // whole run, in order
  uint64_t acked_bytes = 0;
  std::string first_error;
};

// The open-loop writer: write k is due at start + k / rate whatever the
// server's speed; a write that cannot be sent on time is sent late.
void RunWriter(const WorkloadSpec& spec, uint64_t seed, int64_t start_time,
               uint16_t port, const Phase* phase, WriterResult* out) {
  WriteGen gen(spec, seed, start_time);
  Client::Options copts;
  copts.port = port;
  Client client(copts);
  const auto start = Clock::now();
  const auto period = std::chrono::duration<double>(1.0 / spec.write_rate);
  for (uint64_t k = 0;; ++k) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(k));
    while (Clock::now() < due) {
      if (phase->get() == 2) return;
      std::this_thread::sleep_until(
          std::min(due, Clock::now() + std::chrono::milliseconds(20)));
    }
    if (phase->get() == 2) return;
    Op op = gen.Next();
    const bool timed = phase->get() == 1;
    const auto sent = Clock::now();
    auto reply = client.Statement(op.text);
    const auto acked = Clock::now();
    const bool ok = reply.ok() && reply->ok();
    if (ok) {
      out->acked_bytes += op.body.size();
      out->acked.push_back(op);
    } else if (out->first_error.empty()) {
      out->first_error = reply.ok() ? reply->body : reply.status().ToString();
    }
    if (timed) {
      ++out->attempted;
      if (!ok) ++out->failed;
      if (ok) {
        out->write.Add(MsBetween(due, acked));
        out->lag.Add(MsBetween(due, sent));
        out->rtt.Add(MsBetween(sent, acked));
        const size_t second = static_cast<size_t>(
            std::chrono::duration<double>(acked - phase->window_start).count());
        if (out->per_second.size() <= second) out->per_second.resize(second + 1);
        ++out->per_second[second];
      }
    }
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

class Bench {
 public:
  Bench(Args args, WorkloadSpec spec)
      : args_(std::move(args)), spec_(std::move(spec)) {}

  int Run();

 private:
  std::vector<std::string> ServerArgv() const;
  Status Launch(std::unique_ptr<ServerProcess>* out, double* setup_s);
  Status CheckAnswers(uint16_t port);
  void Report(double peak_rss_mb, const ReplayReport* replay,
              double untraced_service_ms);
  std::vector<Op> ReplayStream(size_t* warmup_ops) const;

  const Args args_;
  const WorkloadSpec spec_;
  Archive archive_;
  std::string run_dir_;
  std::string vql_path_;
  std::string shard_dir_;

  std::vector<double> setup_s_;
  Phase phase_;
  double window_s_ = 0;
  std::vector<ReaderResult> readers_;
  WriterResult writer_;
  Counters m0_, m1_;
  double builds0_ = 0, builds1_ = 0;
  std::vector<double> cpu_marks_;  // vqlsrv CPU seconds at each second of the window
  uint64_t disk_bytes_ = 0;
  std::string drain_summary_;
  size_t checked_ = 0;
};

std::vector<std::string> Bench::ServerArgv() const {
  // The defaults: 1 IO thread, 2 workers, 4 admission slots, --threads
  // unset, per-statement fsync. Only the input differs by workload.
  std::vector<std::string> argv = {args_.vqlsrv};
  if (spec_.archive_mode) {
    argv.push_back("--archive=" + shard_dir_);
  } else {
    argv.push_back(vql_path_);
  }
  return argv;
}

// Launch to first successful response: loading the .vql file, or
// recovering the shards and installing the rules.
Status Bench::Launch(std::unique_ptr<ServerProcess>* out, double* setup_s) {
  const auto t0 = Clock::now();
  auto proc =
      ServerProcess::Launch(ServerArgv(), run_dir_ + "/vqlsrv.log", 60'000);
  if (!proc.ok()) return proc.status();
  Client::Options copts;
  copts.port = (*proc)->port();
  Client client(copts);
  if (spec_.archive_mode) {
    auto installed = client.Statement(archive_.rules);
    if (!installed.ok()) return installed.status();
    if (!installed->ok()) {
      return Status::Internal("installing rules: " + installed->body);
    }
  }
  const std::string probe =
      "?- appears(" + EntitySymbol(spec_, 0, 0) + ", G).";
  for (int attempt = 0;; ++attempt) {
    auto reply = client.Query(probe);
    if (reply.ok() && reply->ok()) break;
    if (attempt > 1000) return Status::Unavailable("vqlsrv never answered");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  *setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  *out = std::move(*proc);
  return Status::OK();
}

// The correctness gate. browse: a seeded sample of the run's responses
// against an in-process QuerySession over the same archive. ingest and
// archive: probe queries against an in-process replica that applied the
// same acked writes in the same order.
Status Bench::CheckAnswers(uint16_t port) {
  std::vector<std::pair<std::string, std::string>> got;  // query, vqlsrv body
  if (spec_.name == "browse") {
    for (const ReaderResult& r : readers_) {
      got.insert(got.end(), r.samples.begin(), r.samples.end());
    }
  } else {
    Client::Options copts;
    copts.port = port;
    Client client(copts);
    for (const std::string& q :
         ProbeQueries(spec_, writer_.acked.size(), args_.seed)) {
      auto reply = client.Query(q);
      if (!reply.ok()) return reply.status().WithContext(q);
      if (!reply->ok()) return Status::Internal(q + ": " + reply->body);
      got.emplace_back(q, reply->body);
    }
  }
  if (got.empty()) return Status::Internal("no responses to check");
  if (args_.inject_mismatch) got.front().second += "(altered)";

  std::vector<std::string> want;
  if (spec_.archive_mode) {
    const std::string dir = run_dir_ + "/replica";
    VQLDB_RETURN_NOT_OK(PopulateArchive(archive_, dir));
    auto replica = OpenArchive(archive_, dir, vqldb::Journal::Durability::kFlush);
    if (!replica.ok()) return replica.status();
    for (const Op& w : writer_.acked) {
      VQLDB_RETURN_NOT_OK((*replica)->Apply(w.tenant, w.body));
    }
    for (const auto& [q, body] : got) {
      auto result = (*replica)->Query(q);
      if (!result.ok()) return result.status().WithContext(q);
      want.push_back(result->ToString());
    }
  } else {
    auto replica = LoadSingleDb(archive_);
    if (!replica.ok()) return replica.status();
    for (const Op& w : writer_.acked) {
      VQLDB_RETURN_NOT_OK(replica->snapshots->Apply(w.body));
    }
    for (const auto& [q, body] : got) {
      auto answer = SingleDbAnswer(replica->snapshots.get(), q);
      if (!answer.ok()) return answer.status().WithContext(q);
      want.push_back(*answer);
    }
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].second != want[i]) {
      return Status::Internal("wrong answer to " + got[i].first +
                              "\n--- vqlsrv\n" + got[i].second +
                              "\n--- in-process\n" + want[i]);
    }
  }
  checked_ = got.size();
  return Status::OK();
}

// The traced run's request stream: the same seeded reader streams the
// untraced run issued (round-robin), with the acked writes interleaved at
// the untraced run's write-to-read ratio.
std::vector<Op> Bench::ReplayStream(size_t* warmup_ops) const {
  size_t issued = 0, window_reads = 0;
  for (const ReaderResult& r : readers_) {
    issued += r.issued;
    window_reads += r.attempted;
  }
  const double replay_s = args_.smoke ? 1.0 : 4.0;
  size_t measured = static_cast<size_t>(static_cast<double>(window_reads) *
                                        replay_s / window_s_);
  measured = std::max<size_t>(measured, 200);
  size_t warm = measured / 4;
  size_t reads = std::min(issued, warm + measured);
  *warmup_ops = 0;

  std::vector<ReadGen> gens;
  for (size_t r = 0; r < readers_.size(); ++r) gens.emplace_back(spec_, args_.seed, r);
  std::vector<size_t> taken(readers_.size(), 0);
  const double writes_per_read =
      issued == 0 ? 0
                  : static_cast<double>(writer_.acked.size()) /
                        static_cast<double>(issued);
  std::vector<Op> ops;
  double owed = 0;
  size_t next_write = 0, done = 0;
  while (done < reads) {
    bool any = false;
    for (size_t r = 0; r < gens.size() && done < reads; ++r) {
      if (taken[r] >= readers_[r].issued) continue;
      any = true;
      ops.push_back(gens[r].Next());
      ++taken[r];
      ++done;
      if (done == std::min(reads, warm)) *warmup_ops = ops.size();
      owed += writes_per_read;
      while (owed >= 1 && next_write < writer_.acked.size()) {
        ops.push_back(writer_.acked[next_write++]);
        owed -= 1;
      }
    }
    if (!any) break;
  }
  return ops;
}

int Bench::Run() {
  archive_ = GenerateArchive(spec_, args_.seed);
  run_dir_ = args_.work_dir + "/" + spec_.name + "-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(run_dir_, ec);
  fs::create_directories(run_dir_, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << run_dir_ << "\n";
    return kExitSetup;
  }
  fs::create_directories(args_.trace_dir, ec);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{run_dir_};

  if (spec_.archive_mode) {
    shard_dir_ = run_dir_ + "/shards";
    Status st = PopulateArchive(archive_, shard_dir_);
    if (!st.ok()) {
      std::cerr << "perfbench: populating the archive: " << st << "\n";
      return kExitSetup;
    }
  } else {
    vql_path_ = run_dir_ + "/archive.vql";
    std::ofstream(vql_path_, std::ios::trunc) << archive_.program;
  }

  // Set-up, several times; the last server stays up for the run.
  std::unique_ptr<ServerProcess> server;
  const int launches = args_.smoke ? 1 : 15;
  for (int i = 0; i < launches; ++i) {
    double s = 0;
    Status st = Launch(&server, &s);
    if (!st.ok()) {
      std::cerr << "perfbench: launching vqlsrv: " << st << "\n";
      return kExitSetup;
    }
    setup_s_.push_back(s);
    if (i + 1 < launches) {
      std::string summary;
      double rss = 0;
      st = server->Terminate(30'000, &summary, &rss);
      server.reset();
      if (!st.ok()) {
        std::cerr << "perfbench: " << st << "\n";
        return kExitWrong;
      }
    }
  }
  const uint16_t port = server->port();

  // Traffic: warm-up, then the timed window.
  readers_.resize(spec_.readers);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < spec_.readers; ++r) {
    threads.emplace_back(RunReader, std::cref(spec_), args_.seed, r, port,
                         spec_.name == "browse", &phase_, &readers_[r]);
  }
  if (spec_.write_rate > 0) {
    threads.emplace_back(RunWriter, std::cref(spec_), args_.seed,
                         archive_.end_time, port, &phase_, &writer_);
  }
  const double warmup_s = args_.smoke ? 0.5 : 3.0;
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  auto scrape = [&](Counters* m, double* builds) {
    auto got = ScrapeMetrics(port);
    if (got.ok()) *m = std::move(*got);
    if (!spec_.archive_mode) {
      auto b = HealthzNumber(port, "snapshots_built");
      if (b.ok()) *builds = *b;
    }
    return got.status();
  };
  Status scraped = scrape(&m0_, &builds0_);
  cpu_marks_.push_back(server->CpuSeconds());
  const auto w0 = Clock::now();
  phase_.window_start = w0;
  phase_.value.store(1, std::memory_order_release);
  // Sample vqlsrv's CPU time at every whole second of the window, so each
  // second's CPU can be set against the requests completed in it.
  const auto end = w0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(args_.seconds));
  for (int s = 1; w0 + std::chrono::seconds(s) <= end; ++s) {
    std::this_thread::sleep_until(w0 + std::chrono::seconds(s));
    cpu_marks_.push_back(server->CpuSeconds());
  }
  std::this_thread::sleep_until(end);
  const auto w1 = Clock::now();
  phase_.value.store(2, std::memory_order_release);
  if (scraped.ok()) scraped = scrape(&m1_, &builds1_);
  for (std::thread& t : threads) t.join();
  window_s_ = std::chrono::duration<double>(w1 - w0).count();
  if (!scraped.ok()) {
    std::cerr << "perfbench: scraping /metrics: " << scraped << "\n";
    return kExitSetup;
  }
  if (*std::min_element(cpu_marks_.begin(), cpu_marks_.end()) < 0) {
    std::cerr << "perfbench: cannot read vqlsrv's CPU time from /proc\n";
    return kExitSetup;
  }

  Status checked = CheckAnswers(port);
  double peak_rss_mb = 0;
  Status drained = server->Terminate(30'000, &drain_summary_, &peak_rss_mb);
  server.reset();
  if (!checked.ok()) {
    std::cerr << "perfbench: correctness gate failed: " << checked << "\n";
    return kExitWrong;
  }
  if (!drained.ok()) {
    std::cerr << "perfbench: " << drained << "\n";
    return kExitWrong;
  }
  if (spec_.archive_mode) disk_bytes_ = DirBytes(shard_dir_);

  std::optional<ReplayReport> replay;
  double untraced_service_ms = 0;
  if (args_.trace) {
    // The same stream twice, each on fresh state: spans on, then off.
    ReplayOptions ropts;
    ropts.work_dir = run_dir_ + "/replay";
    ropts.spans_path = args_.trace_dir + "/" + spec_.name + ".spans.csv";
    std::vector<Op> ops = ReplayStream(&ropts.warmup_ops);
    auto traced = Replay(spec_, archive_, ops, ropts);
    ropts.spans = false;
    ropts.spans_path.clear();
    ropts.work_dir += "-off";
    auto untraced = traced.ok() ? Replay(spec_, archive_, ops, ropts) : traced;
    if (!untraced.ok()) {
      std::cerr << "perfbench: traced replay: " << untraced.status() << "\n";
      return kExitWrong;
    }
    replay = std::move(*traced);
    untraced_service_ms = untraced->service_ms;
  }
  Report(peak_rss_mb, replay ? &*replay : nullptr, untraced_service_ms);
  return 0;
}

void Bench::Report(double peak_rss_mb, const ReplayReport* replay,
                   double untraced_service_ms) {
  auto delta = [&](const std::string& name) {
    auto a = m0_.find(name), b = m1_.find(name);
    return (b == m1_.end() ? 0 : b->second) - (a == m0_.end() ? 0 : a->second);
  };
  auto ratio = [](double a, double b) { return b == 0 ? 0 : a / b; };

  Dist lookup, scan, reads_all;
  uint64_t read_attempted = 0, failed = 0;
  std::string first_error;
  for (const ReaderResult& r : readers_) {
    lookup.Merge(r.lookup);
    scan.Merge(r.scan);
    read_attempted += r.attempted;
    failed += r.failed;
    if (first_error.empty()) first_error = r.first_error;
  }
  reads_all.Merge(lookup);
  reads_all.Merge(scan);
  failed += writer_.failed;
  if (first_error.empty()) first_error = writer_.first_error;
  const uint64_t attempted = read_attempted + writer_.attempted;
  const double acked_writes = static_cast<double>(writer_.write.n());
  const double queries = static_cast<double>(read_attempted);
  const double requests = static_cast<double>(attempted);

  // The environment stamp.
  std::printf(
      "env: workload=%s seed=%llu nproc=%ld git=%s build=%s smoke=%d "
      "entities=%zu scenes=%zu tenants=%zu shards=%s readers=%zu "
      "write_rate=%g/s scan_share=%g cast_skew=%g flush=%s vqlsrv_flags=\"%s\" "
      "warmup_s=%g window_s=%.3f\n",
      spec_.name.c_str(), static_cast<unsigned long long>(args_.seed),
      ::sysconf(_SC_NPROCESSORS_ONLN), args_.git_sha.c_str(),
      PERFBENCH_BUILD_TYPE, args_.smoke ? 1 : 0, spec_.entities, spec_.scenes,
      spec_.archive_mode ? spec_.tenants : 1,
      spec_.archive_mode ? std::to_string(kArchiveShards).c_str() : "-",
      spec_.readers, spec_.write_rate, spec_.scan_share, spec_.cast_skew,
      spec_.archive_mode ? "fsync-per-statement" : "none (no journal)",
      spec_.archive_mode ? "--archive=<dir>" : "<archive.vql>",
      args_.smoke ? 0.5 : 3.0, window_s_);
  std::printf("env: archive_statement_bytes=%zu setup_launches=%zu\n",
              archive_.statement_bytes, setup_s_.size());
  // The window's whole seconds: reads completed, and vqlsrv CPU time per
  // request completed, in each. The medians over the seconds are the
  // reported rates, so a few seconds in which the host took the CPUs away
  // do not move them.
  const size_t seconds = cpu_marks_.size() - 1;
  std::vector<double> reads_per_s(seconds, 0), cpu_per_req(seconds, 0);
  std::string timeline, cpu_timeline;
  for (size_t s = 0; s < seconds; ++s) {
    for (const ReaderResult& r : readers_) {
      if (s < r.per_second.size()) reads_per_s[s] += r.per_second[s];
    }
    double requests_s = reads_per_s[s];
    if (s < writer_.per_second.size()) requests_s += writer_.per_second[s];
    cpu_per_req[s] = ratio((cpu_marks_[s + 1] - cpu_marks_[s]) * 1e3, requests_s);
    timeline += ' ' + std::to_string(static_cast<int>(reads_per_s[s]));
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", cpu_per_req[s]);
    cpu_timeline += buf;
  }
  std::printf("timeline: reads completed in each second of the window:%s\n",
              timeline.c_str());
  std::printf("timeline: vqlsrv CPU ms per request in each second:%s\n",
              cpu_timeline.c_str());

  auto line = [](const std::string& kind, const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
    std::printf("%s: %-34s %14.6f %-9s %s\n", kind.c_str(), name.c_str(), value,
                unit.c_str(), note.c_str());
  };
  auto samples = [](Dist& d, double q) {
    std::string note = "(n=" + std::to_string(d.n()) + ", " +
                       std::to_string(d.Beyond(q)) + " beyond";
    if (d.Beyond(q) < 10) note += "; fewer than 10 beyond";
    return note + ")";
  };

  // End-to-end, timed window only: client-side timings, and vqlsrv's CPU
  // time and peak resident set as the operating system reports them.
  std::map<std::string, std::pair<double, std::string>> e2e;
  const double setup_s = Median(setup_s_);
  const double read_rps = Median(reads_per_s);
  const double cpu_ms_per_req = Median(cpu_per_req);
  const double cpu_s = cpu_marks_.back() - cpu_marks_.front();
  e2e["setup_s"] = {setup_s, "s"};
  e2e["cpu_ms_per_req"] = {cpu_ms_per_req, "ms"};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MiB"};
  std::string setups;
  for (double s : setup_s_) {
    if (!setups.empty()) setups += ' ';
    setups += Num(s);
  }
  line("e2e", "setup_s", setup_s, "s", "(median of " + setups + ")");
  line("e2e", "read_rps", read_rps, "req/s",
       "(median of " + std::to_string(seconds) + " seconds; mean " +
           Num(static_cast<double>(reads_all.n()) / window_s_) + ", n=" +
           std::to_string(reads_all.n()) + " reads)");
  line("e2e", "cpu_ms_per_req", cpu_ms_per_req, "ms",
       "(median of " + std::to_string(seconds) + " seconds; mean " +
           Num(ratio(cpu_s * 1e3, requests)) + ", vqlsrv " + Num(cpu_s) +
           " CPU s)");
  line("e2e", "lookup_p50_ms", lookup.Pct(0.50), "ms", samples(lookup, 0.50));
  line("e2e", "lookup_p90_ms", lookup.Pct(0.90), "ms", samples(lookup, 0.90));
  line("e2e", "lookup_p99_ms", lookup.Pct(0.99), "ms", samples(lookup, 0.99));
  if (spec_.scan_share > 0) {
    line("e2e", "scan_p50_ms", scan.Pct(0.50), "ms", samples(scan, 0.50));
    line("e2e", "scan_p90_ms", scan.Pct(0.90), "ms", samples(scan, 0.90));
  }
  if (spec_.write_rate > 0) {
    line("e2e", "write_p50_ms", writer_.write.Pct(0.50), "ms",
         samples(writer_.write, 0.50));
    line("e2e", "write_p90_ms", writer_.write.Pct(0.90), "ms",
         samples(writer_.write, 0.90));
  }
  line("e2e", "error_rate", ratio(static_cast<double>(failed), requests),
       "fraction",
       "(" + std::to_string(failed) + " of " + std::to_string(attempted) +
           (first_error.empty() ? ")" : "; first: " + first_error + ")"));
  line("e2e", "peak_rss_mb", peak_rss_mb, "MiB", "(vqlsrv, wait4)");

  // Per-request work counts: /metrics and /healthz deltas over the window.
  std::map<std::string, std::pair<double, std::string>> layer;
  const double builds = builds1_ - builds0_;
  const double hits = delta("vqldb_query_cache_hits_total");
  const double misses = delta("vqldb_query_cache_misses_total");
  const double probes = delta("vqldb_eval_join_probes_total");
  const double merge = delta("vqldb_eval_merge_join_probes_total");
  const double hash = delta("vqldb_eval_hash_join_probes_total");
  layer["server.bytes_per_req"] = {
      ratio(delta("vqldb_server_bytes_read_total") +
                delta("vqldb_server_bytes_written_total"),
            requests),
      "B"};
  layer["server.sheds_per_req"] = {ratio(delta("vqldb_server_sheds_total"), requests),
                                   "count"};
  layer["snapshot.builds_per_write"] = {ratio(builds, acked_writes), "count"};
  layer["engine.cache_hit_ratio"] = {ratio(hits, hits + misses), "fraction"};
  layer["engine.cache_evictions_per_req"] = {
      ratio(delta("vqldb_query_cache_evictions_total"), queries), "count"};
  layer["engine.rounds_per_req"] = {ratio(delta("vqldb_eval_rounds_total"), queries),
                                    "count"};
  layer["engine.derived_facts_per_req"] = {
      ratio(delta("vqldb_eval_derived_facts_total"), queries), "count"};
  layer["engine.join_probes_per_req"] = {ratio(probes, queries), "count"};
  layer["engine.probe_hit_ratio"] = {
      ratio(delta("vqldb_eval_join_probe_hits_total"), probes), "fraction"};
  layer["engine.hash_probe_share"] = {ratio(hash, merge + hash), "fraction"};
  layer["constraint.entailments_per_req"] = {
      ratio(delta("vqldb_order_entailment_checks_total"), queries), "count"};
  layer["constraint.canonicalizations_per_req"] = {
      ratio(delta("vqldb_interval_canonicalizations_total"), requests), "count"};
  layer["storage.fsyncs_per_write"] = {
      ratio(delta("vqldb_journal_fsyncs_total"), acked_writes), "count"};
  layer["storage.disk_bytes_per_input_byte"] = {
      ratio(static_cast<double>(disk_bytes_),
            static_cast<double>(archive_.statement_bytes + writer_.acked_bytes)),
      "ratio"};
  std::printf("count: window requests=%llu queries=%llu acked_writes=%.0f "
              "snapshots_built=%.0f cache_hits=%.0f cache_misses=%.0f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(read_attempted), acked_writes,
              builds, hits, misses);
  if (spec_.write_rate > 0) {
    line("layer", "gen.write_lag_p99_ms", writer_.lag.Pct(0.99), "ms",
         samples(writer_.lag, 0.99));
    line("layer", "gen.write_lag_p50_ms", writer_.lag.Pct(0.50), "ms",
         samples(writer_.lag, 0.50));
  }

  if (replay != nullptr) {
    const ReplayReport& r = *replay;
    const double client_read_ms = reads_all.Mean();
    const double residual = client_read_ms - r.read_service_ms;
    double self_sum = 0;
    for (const auto& [name, ms] : r.read_layer_self_ms) self_sum += ms;
    auto share = [&](const char* l) {
      return ratio(r.layer_self_ms.at(l), r.service_ms);
    };
    layer["server.residual_ms"] = {residual, "ms"};
    layer["server.self_ms"] = {r.read_layer_self_ms.at("server"), "ms"};
    layer["replay.service_ms"] = {r.read_service_ms, "ms"};
    layer["engine.run_ms"] = {r.run_ms, "ms"};
    for (const char* l : {"server", "snapshot", "lang", "engine", "storage"}) {
      layer[std::string(l) + ".share"] = {share(l), "fraction"};
    }
    layer["snapshot.clones_per_build"] = {r.clones_per_build, "count"};
    layer["snapshot.image_kb"] = {r.image_kb, "KiB"};
    size_t runs = 0;
    for (const auto& [s, n] : r.strategy_runs) runs += n;
    for (const char* s : {"cache", "qsqr", "magic", "fixpoint"}) {
      auto it = r.strategy_runs.find(s);
      layer[std::string("engine.") + s + "_share"] = {
          ratio(it == r.strategy_runs.end() ? 0 : static_cast<double>(it->second),
                static_cast<double>(runs)),
          "fraction"};
    }
    layer["storage.pruned_frac"] = {r.pruned_frac, "fraction"};
    layer["trace.overhead_frac"] = {
        ratio(r.service_ms - untraced_service_ms, untraced_service_ms),
        "fraction"};

    // Span means of the calls this workload makes.
    std::printf("trace: replayed %zu reads and %zu writes on %zu threads; "
                "service %.6f ms with spans, %.6f ms without\n",
                r.reads, r.writes, kReplayThreads, r.service_ms,
                untraced_service_ms);
    auto call = [&](const char* name, double v, const char* unit, bool applies) {
      if (applies) line("call", name, v, unit, "");
    };
    call("snapshot.build_ms", r.build_ms, "ms", r.builds > 0);
    call("snapshot.lease_ms", r.lease_ms, "ms", !spec_.archive_mode);
    call("snapshot.apply_ms", r.snapshot_apply_ms, "ms",
         !spec_.archive_mode && spec_.write_rate > 0);
    call("lang.parse_us", r.parse_us, "us", !spec_.archive_mode);
    call("storage.scatter_ms", r.scatter_ms, "ms", spec_.archive_mode);
    call("storage.apply_ms", r.storage_apply_ms, "ms", spec_.archive_mode);
    for (const auto& [s, ms] : r.strategy_ms) {
      std::string runs_note = "(";
      runs_note += std::to_string(r.strategy_runs.at(s));
      runs_note += " runs)";
      line("call", "engine." + s + "_ms", ms, "ms", runs_note);
    }
    for (const auto& [kind, ms] : r.service_by_kind_ms) {
      Dist* d = kind == "lookup" ? &lookup : kind == "scan" ? &scan : &writer_.rtt;
      line("call", "server.residual_ms." + kind, d->Mean() - ms, "ms",
           "(client " + Num(d->Mean()) + " - replay " + Num(ms) + ")");
    }

    // The accounting: client read latency = layer self times + residual.
    std::string parts;
    for (const char* l : {"server", "snapshot", "lang", "engine", "storage"}) {
      parts += std::string(l) + " " + Num(r.read_layer_self_ms.at(l)) + " + ";
    }
    std::printf("accounting: client mean read %.6f ms = %sresidual %.6f + "
                "unattributed %.6f ms (layer sum %.6f, replay service %.6f)\n",
                client_read_ms, parts.c_str(), residual, r.unattributed_ms,
                self_sum, r.read_service_ms);
  }

  std::printf("correct: %zu answers matched the in-process %s; drain: %s\n",
              checked_,
              spec_.name == "browse" ? "QuerySession" : "replica",
              drain_summary_.c_str());

  // Validity checks of the workload design (reported, not fatal).
  if (spec_.name == "browse" && builds != 0) {
    std::printf("warning: browse built %.0f snapshots in the window\n", builds);
  }
  if (spec_.name == "ingest" && ratio(builds, acked_writes) < 0.9) {
    std::printf("warning: ingest builds_per_write %.3f < 0.9\n",
                ratio(builds, acked_writes));
  }

  for (const auto& [name, vu] : layer) line("layer", name, vu.first, vu.second, "");

  const auto& metrics = args_.trace ? layer : e2e;
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) + ", \"failed\": " +
                     std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    json += (first ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + Num(vu.first) + ", \"unit\": \"" + vu.second +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --vqlsrv <path> --workload "
                 "browse|ingest|archive --seed <n> --seconds <s> --trace 0|1 "
                 "[--smoke] [--work-dir <dir>] [--trace-dir <dir>] "
                 "[--git-sha <sha>] [--inject-mismatch] [--write-rate <r>] "
                 "[--scan-share <p>]\n";
    return perfbench::kExitUsage;
  }
  perfbench::WorkloadSpec spec;
  if (!perfbench::LookupWorkload(args.workload, args.smoke, &spec)) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return perfbench::kExitUsage;
  }
  if (args.write_rate >= 0 && spec.write_rate > 0) spec.write_rate = args.write_rate;
  if (args.scan_share >= 0 && spec.archive_mode) spec.scan_share = args.scan_share;
  return perfbench::Bench(args, spec).Run();
}
