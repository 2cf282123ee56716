#include "server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "stats.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kListenDeadlineNs = 30'000'000'000;
constexpr std::int64_t kStopDeadlineNs = 60'000'000'000;

}  // namespace

ServerProcess::ServerProcess(const std::string& cli, unsigned shards) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    error_ = "pipe: " + std::string(std::strerror(errno));
    return;
  }
  std::string tcp = "--tcp=127.0.0.1:0";
  std::string shard_arg = "--shards=" + std::to_string(shards);
  std::string serve = "serve";
  std::string program = cli;
  char* argv[] = {program.data(), serve.data(), tcp.data(), shard_arg.data(),
                  nullptr};
  // posix_spawn, not fork: the child does not copy this process's page
  // tables, so spawning costs the same whatever size the request lists are.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDERR_FILENO);
  const int spawned =
      ::posix_spawn(&pid_, cli.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    pid_ = -1;
    error_ = "spawn " + cli + ": " + std::string(std::strerror(spawned));
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return;
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];

  // The server announces "serving on tcp HOST:PORT (...)" on stderr once
  // it listens; block on that line instead of polling a port file.
  std::string text;
  const std::int64_t deadline = now_ns() + kListenDeadlineNs;
  while (port_ == 0) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) {
      error_ = "server did not listen within 30 s";
      return;
    }
    pollfd pfd{stderr_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
    char buf[512];
    const ssize_t got = ::read(stderr_fd_, buf, sizeof buf);
    if (got <= 0) {
      error_ = "server exited before listening: " + text;
      return;
    }
    text.append(buf, static_cast<std::size_t>(got));
    const std::size_t at = text.find("serving on tcp ");
    const std::size_t eol = text.find('\n', at);
    if (at == std::string::npos || eol == std::string::npos) continue;
    const std::string line = text.substr(at, eol - at);
    const std::size_t colon = line.rfind(':');
    const int port = std::atoi(line.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      error_ = "cannot read the port from: " + line;
      return;
    }
    port_ = static_cast<std::uint16_t>(port);
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

double ServerProcess::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = content.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(content.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && (rest >> field); ++index)
    if (index >= 14) ticks += std::atof(field.c_str());
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

int ServerProcess::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const std::int64_t deadline = now_ns() + kStopDeadlineNs;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         now_ns() < deadline)
    ::usleep(1000);
  if (done != pid_) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return -1;
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineConn::connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) == 0;
}

bool LineConn::send_line(const std::string& line) {
  // The line and its newline leave in one sendmsg, without a copy.
  char newline = '\n';
  iovec parts[2] = {{const_cast<char*>(line.data()), line.size()},
                    {&newline, 1}};
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = 2;
  std::size_t left = line.size() + 1;
  while (left > 0) {
    const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    left -= static_cast<std::size_t>(n);
    // Partial send: advance the iovecs past the bytes that went out.
    std::size_t done = static_cast<std::size_t>(n);
    while (done > 0 && message.msg_iovlen > 0) {
      iovec& head = message.msg_iov[0];
      const std::size_t step = std::min(done, head.iov_len);
      head.iov_base = static_cast<char*>(head.iov_base) + step;
      head.iov_len -= step;
      done -= step;
      if (head.iov_len == 0) {
        ++message.msg_iov;
        --message.msg_iovlen;
      }
    }
  }
  return true;
}

bool LineConn::read_line(std::string* line) {
  for (;;) {
    const std::size_t eol = buffer_.find('\n', head_);
    if (eol != std::string::npos) {
      line->assign(buffer_, head_, eol - head_);
      head_ = eol + 1;
      if (head_ == buffer_.size()) {
        buffer_.clear();
        head_ = 0;
      }
      return true;
    }
    if (head_ > 0) {
      buffer_.erase(0, head_);
      head_ = 0;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace perfbench
