// The served program as a child process, and a blocking JSONL client.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

// `msrs_engine_cli serve --tcp=127.0.0.1:0 --shards=N`, spawned as a child.
// The constructor returns once the server reports its listening port; the
// destructor kills and reaps a server that was not stopped.
class ServerProcess {
 public:
  ServerProcess(const std::string& cli, unsigned shards);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool ok() const { return port_ != 0; }
  const std::string& error() const { return error_; }
  std::uint16_t port() const { return port_; }

  // User + system CPU of every server thread so far, in seconds.
  double cpu_seconds() const;
  // Peak resident set size (VmHWM), in MB.
  double peak_rss_mb() const;

  // SIGTERM (graceful drain) and reap. Returns the exit status, or -1 when
  // the server died from a signal or did not exit within the deadline.
  int stop();

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string error_;
};

// One TCP connection speaking the newline-framed protocol. Blocking, with
// Nagle disabled: a closed-loop caller sends a line and waits for its reply.
class LineConn {
 public:
  LineConn() = default;
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool connect(std::uint16_t port);
  bool send_line(const std::string& line);
  // Reads one response line (without the newline); false on EOF/error.
  bool read_line(std::string* line);

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t head_ = 0;
};

}  // namespace perfbench
