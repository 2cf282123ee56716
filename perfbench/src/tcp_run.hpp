// The untraced run: the served binary as a child process, driven over TCP
// by a closed loop of kConnections caller threads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace perfbench {

struct TcpOptions {
  std::string cli;     // path of the msrs_engine_cli binary
  int setups = 15;     // setup repetitions; setup_s is their median
  int pings = 0;       // ping round trips per connection after the window
};

struct TcpResult {
  std::string fatal;  // non-empty: the run could not be carried out
  Metrics end_to_end;
  Metrics diagnostics;
  Metrics layers;  // transport.* and service.queue_wait_p50_us
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failures_by_code;
  std::vector<std::string> failure_examples;
  std::string digest;
  msrs::Json build_info;
};

TcpResult run_tcp(const Workload& workload, const TcpOptions& options);

}  // namespace perfbench
