#include "perfbench/proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/string_util.h"
#include "src/server/client.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t FieldOf(const std::string& summary, const std::string& key) {
  size_t at = summary.find(key + "=");
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(summary.c_str() + at + key.size() + 1, nullptr, 10);
}

}  // namespace

vqldb::Result<std::unique_ptr<ServerProcess>> ServerProcess::Launch(
    const std::vector<std::string>& argv, const std::string& stderr_path,
    uint64_t timeout_ms) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return vqldb::Status::IOError("pipe: " + std::string(std::strerror(errno)));
  }
  int err_fd = ::open(stderr_path.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (err_fd < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return vqldb::Status::IOError("cannot open " + stderr_path);
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    ::close(err_fd);
    return vqldb::Status::IOError("fork: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    _exit(127);
  }
  ::close(fds[1]);
  ::close(err_fd);

  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  proc->pid_ = pid;
  proc->out_fd_ = fds[0];
  std::string line;
  if (!proc->ReadLine(timeout_ms, &line)) {
    return vqldb::Status::Unavailable("vqlsrv did not start (see " +
                                      stderr_path + ")");
  }
  // "listening on 127.0.0.1:<port>"
  size_t colon = line.rfind(':');
  int64_t port = 0;
  if (!vqldb::StartsWith(line, "listening on ") || colon == std::string::npos ||
      !vqldb::ParseNonNegativeInt(vqldb::Trim(line.substr(colon + 1)), &port) ||
      port <= 0 || port > 65535) {
    return vqldb::Status::Internal("unexpected vqlsrv banner: " + line);
  }
  proc->port_ = static_cast<uint16_t>(port);
  return proc;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

double ServerProcess::CpuSeconds() const {
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  double ns = 0;
  bool any = false;
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    double run_ns = 0;
    if (in >> run_ns) {
      ns += run_ns;
      any = true;
    }
  }
  return any ? ns / 1e9 : -1;
}

bool ServerProcess::ReadLine(uint64_t timeout_ms, std::string* line) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    size_t nl = buffered_.find('\n');
    if (nl != std::string::npos) {
      *line = buffered_.substr(0, nl);
      buffered_.erase(0, nl + 1);
      return true;
    }
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    if (left <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    int rc = ::poll(&p, 1, static_cast<int>(left));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    char buf[4096];
    ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // EOF: the child closed stdout (exited)
    buffered_.append(buf, static_cast<size_t>(n));
  }
}

vqldb::Status ServerProcess::Terminate(uint64_t timeout_ms,
                                       std::string* summary,
                                       double* peak_rss_mb) {
  if (pid_ <= 0) return vqldb::Status::Internal("vqlsrv already reaped");
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string line;
  summary->clear();
  while (Clock::now() < deadline) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    if (!ReadLine(static_cast<uint64_t>(std::max<int64_t>(left, 1)), &line)) {
      break;
    }
    if (vqldb::StartsWith(line, "drain complete: ")) {
      *summary = line.substr(std::string("drain complete: ").size());
    }
  }
  int status = 0;
  pid_t reaped = 0;
  struct rusage usage{};
  while (Clock::now() < deadline) {
    reaped = ::wait4(pid_, &status, WNOHANG, &usage);
    if (reaped != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reaped != pid_) {
    return vqldb::Status::DeadlineExceeded("vqlsrv did not exit after SIGTERM");
  }
  pid_ = -1;
  *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return vqldb::Status::Internal("vqlsrv exited abnormally (status " +
                                   std::to_string(status) + ")");
  }
  uint64_t admitted = FieldOf(*summary, "admitted");
  uint64_t responded = FieldOf(*summary, "responded");
  uint64_t dropped = FieldOf(*summary, "dropped");
  if (summary->empty() || dropped != 0 || admitted != responded) {
    return vqldb::Status::Internal("drain contract broken: '" + *summary + "'");
  }
  return vqldb::Status::OK();
}

vqldb::Result<Counters> ScrapeMetrics(uint16_t port) {
  auto body = vqldb::server::HttpGet("127.0.0.1", port, "/metrics");
  if (!body.ok()) return body.status();
  Counters out;
  std::istringstream in(*body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

vqldb::Result<double> HealthzNumber(uint16_t port, const std::string& key) {
  auto body = vqldb::server::HttpGet("127.0.0.1", port, "/healthz");
  if (!body.ok()) return body.status();
  size_t at = body->find("\"" + key + "\":");
  if (at == std::string::npos) {
    return vqldb::Status::NotFound("/healthz has no " + key);
  }
  return std::strtod(body->c_str() + at + key.size() + 3, nullptr);
}

}  // namespace perfbench
