// The vqlsrv child process as the benchmark sees it from outside: launch it,
// read the port from its banner, scrape its public /metrics and /healthz
// endpoints, and end it with SIGTERM while checking the drain contract.

#ifndef VQLDB_PERFBENCH_PROC_H_
#define VQLDB_PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Forks and execs `argv` (argv[0] is the binary path) with stdout piped
  /// back and stderr appended to `stderr_path`, then waits up to
  /// `timeout_ms` for the "listening on host:port" banner.
  static vqldb::Result<std::unique_ptr<ServerProcess>> Launch(
      const std::vector<std::string>& argv, const std::string& stderr_path,
      uint64_t timeout_ms);

  /// Kills (SIGKILL) and reaps a child that was never terminated.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// CPU time the child's threads have run so far, in seconds: the sum of
  /// /proc/<pid>/task/*/schedstat, which counts time on a CPU and not time
  /// the hypervisor gave to another guest. -1 if /proc cannot be read.
  double CpuSeconds() const;

  /// SIGTERM, then waits for the "drain complete: ..." line and the exit.
  /// OK only if vqlsrv exits 0 and its summary shows dropped=0 and
  /// admitted == responded. `summary` receives the summary text and
  /// `peak_rss_mb` the child's peak resident set (from wait4).
  vqldb::Status Terminate(uint64_t timeout_ms, std::string* summary,
                          double* peak_rss_mb);

 private:
  ServerProcess() = default;
  bool ReadLine(uint64_t timeout_ms, std::string* line);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string buffered_;
};

/// Unlabelled series of /metrics, by name.
using Counters = std::map<std::string, double>;

vqldb::Result<Counters> ScrapeMetrics(uint16_t port);

/// One numeric field of the /healthz JSON document.
vqldb::Result<double> HealthzNumber(uint16_t port, const std::string& key);

}  // namespace perfbench

#endif  // VQLDB_PERFBENCH_PROC_H_
