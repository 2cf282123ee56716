#include "tcp_run.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "check.hpp"
#include "server.hpp"

namespace perfbench {
namespace {

// What one connection sent and received in one phase.
struct PhaseLog {
  std::vector<std::string> responses;
  std::vector<double> latency_us;  // send -> full response line
  std::int64_t end_ns = 0;
  bool io_ok = true;
};

// Closed loop over one connection: send a line, wait for its reply.
void run_phase(LineConn& conn, const std::vector<Request>& requests,
               PhaseLog* log) {
  log->responses.resize(requests.size());
  log->latency_us.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::int64_t sent = now_ns();
    if (!conn.send_line(requests[i].line) ||
        !conn.read_line(&log->responses[i])) {
      log->io_ok = false;
      log->responses.resize(i);
      log->latency_us.resize(i);
      break;
    }
    log->latency_us[i] = static_cast<double>(now_ns() - sent) / 1e3;
  }
  log->end_ns = now_ns();
}

// Runs one phase on every connection at once, one caller thread each, all
// released together. Returns the start of the window.
using Lists = std::vector<const std::vector<Request>*>;

std::int64_t run_concurrently(std::vector<std::unique_ptr<LineConn>>& conns,
                              const Lists& lists, std::vector<PhaseLog>* logs) {
  logs->assign(conns.size(), PhaseLog{});
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c)
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      run_phase(*conns[c], *lists[c], &(*logs)[c]);
    });
  const std::int64_t start = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  return start;
}

// One control request/response on a connection (handshake, stats).
std::optional<msrs::Json> control(LineConn& conn, const std::string& line) {
  std::string response;
  if (!conn.send_line(line) || !conn.read_line(&response)) return std::nullopt;
  auto parsed = msrs::json_parse(response);
  if (!parsed || !parsed->is_object()) return std::nullopt;
  const msrs::Json* ok = parsed->find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return std::nullopt;
  return parsed;
}

double number_at(const msrs::Json& json,
                 std::initializer_list<const char*> path) {
  const msrs::Json* node = &json;
  for (const char* key : path) {
    node = node->find(key);
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->as_number() : 0.0;
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

struct Live {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<LineConn>> conns;
};

// Spawn -> listening -> every connection passed the `version` handshake.
bool bring_up(const std::string& cli, Live* live, std::string* error) {
  live->server = std::make_unique<ServerProcess>(cli, kShards);
  if (!live->server->ok()) {
    *error = "server start failed: " + live->server->error();
    return false;
  }
  live->conns.clear();
  for (int c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<LineConn>();
    if (!conn->connect(live->server->port())) {
      *error = "cannot connect to the server";
      return false;
    }
    const auto version =
        control(*conn, "{\"id\":0,\"op\":\"version\",\"wire\":1}");
    if (!version || number_at(*version, {"wire"}) != 1.0) {
      *error = "version handshake failed (wire_version_mismatch?)";
      return false;
    }
    live->conns.push_back(std::move(conn));
  }
  return true;
}

}  // namespace

TcpResult run_tcp(const Workload& workload, const TcpOptions& options) {
  TcpResult result;
  Checker checker;
  Lists setup_lists, timed_lists;
  for (const ConnScript& script : workload.conns) {
    setup_lists.push_back(&script.setup);
    timed_lists.push_back(&script.timed);
  }

  // Setup, repeated: setup_s is the median of `setups` fresh bring-ups.
  // Only the last server is kept and measured.
  Live live;
  std::vector<double> setup_s;
  std::vector<PhaseLog> setup_logs;
  for (int round = 0; round < options.setups; ++round) {
    if (live.server) {
      live.conns.clear();
      const int code = live.server->stop();
      if (code != 0)
        checker.fail("server_exit", "exit status " + std::to_string(code));
    }
    const std::int64_t begin = now_ns();
    if (!bring_up(options.cli, &live, &result.fatal)) return result;
    run_concurrently(live.conns, setup_lists, &setup_logs);
    setup_s.push_back(static_cast<double>(now_ns() - begin) / 1e9);
    const bool last = round + 1 == options.setups;
    for (std::size_t c = 0; c < setup_logs.size(); ++c) {
      if (!setup_logs[c].io_ok) {
        result.fatal = "connection lost during setup";
        return result;
      }
      for (std::size_t i = 0; i < setup_logs[c].responses.size(); ++i)
        checker.check((*setup_lists[c])[i], setup_logs[c].responses[i], last,
                      false);
    }
  }
  LineConn& conn0 = *live.conns[0];
  const auto stats_before = control(conn0, "{\"id\":0,\"op\":\"stats\"}");
  if (!stats_before) {
    result.fatal = "stats op failed";
    return result;
  }
  if (const msrs::Json* build = stats_before->find("build_info"))
    result.build_info = *build;

  // The timed window: every connection replays its fixed list.
  const double server_cpu_before = live.server->cpu_seconds();
  const double own_cpu_before = process_cpu_seconds();
  std::vector<PhaseLog> timed_logs;
  const std::int64_t window_start =
      run_concurrently(live.conns, timed_lists, &timed_logs);
  std::int64_t window_end = window_start;
  for (const PhaseLog& log : timed_logs)
    window_end = std::max(window_end, log.end_ns);
  const double server_cpu = live.server->cpu_seconds() - server_cpu_before;
  const double own_cpu = process_cpu_seconds() - own_cpu_before;

  for (const PhaseLog& log : timed_logs)
    if (!log.io_ok) {
      result.fatal = "connection lost during the timed window";
      return result;
    }

  if (options.pings > 0) {
    std::vector<Request> pings(static_cast<std::size_t>(options.pings));
    for (Request& ping : pings) ping.line = "{\"id\":0,\"op\":\"ping\"}";
    const Lists ping_lists(live.conns.size(), &pings);
    std::vector<PhaseLog> ping_logs;
    run_concurrently(live.conns, ping_lists, &ping_logs);
    std::vector<double> rtt;
    for (const PhaseLog& log : ping_logs)
      rtt.insert(rtt.end(), log.latency_us.begin(), log.latency_us.end());
    result.layers.set("transport.ping_rtt_p50_us", median(rtt));
  }

  const auto stats_after = control(conn0, "{\"id\":0,\"op\":\"stats\"}");
  if (!stats_after) {
    result.fatal = "stats op failed";
    return result;
  }
  result.layers.set("service.queue_wait_p50_us",
                    number_at(*stats_after, {"latency", "queue", "p50_us"}));

  const double rss_mb = live.server->peak_rss_mb();
  live.conns.clear();
  const int exit_code = live.server->stop();
  if (exit_code != 0)
    checker.fail("server_exit", "exit status " + std::to_string(exit_code));

  // Checks and the digest, in a fixed order: per connection, by phase.
  std::vector<double> answer_latency;
  std::size_t timed_responses = 0;
  for (std::size_t c = 0; c < timed_logs.size(); ++c) {
    const std::vector<Request>& timed = *timed_lists[c];
    for (std::size_t i = 0; i < timed.size(); ++i) {
      checker.check(timed[i], timed_logs[c].responses[i], true, true);
      if (answer_bearing(timed[i].kind))
        answer_latency.push_back(timed_logs[c].latency_us[i]);
    }
    timed_responses += timed.size();
  }

  // The cache must behave as the workload intends over the window.
  const double hits = number_at(*stats_after, {"cache_hits"}) -
                      number_at(*stats_before, {"cache_hits"});
  const double misses = number_at(*stats_after, {"cache_misses"}) -
                        number_at(*stats_before, {"cache_misses"});
  if (workload.name == "warm_hit" && misses > 0)
    checker.fail("cache_miss_on_warm_hit", "timed window",
                 static_cast<std::int64_t>(misses));
  if (workload.name == "cold_solve" && hits > 0)
    checker.fail("cache_hit_on_cold_solve", "timed window",
                 static_cast<std::int64_t>(hits));

  const double window_s = static_cast<double>(window_end - window_start) / 1e9;
  const auto requests = static_cast<double>(timed_responses);
  Metrics& e2e = result.end_to_end;
  e2e.set("throughput_rps", requests / window_s);
  e2e.set("latency_p50_us", percentile(answer_latency, 0.50));
  e2e.set("latency_p95_us", percentile(answer_latency, 0.95));
  e2e.set("cpu_us_per_req", server_cpu * 1e6 / requests);
  e2e.set("rss_peak_mb", rss_mb);
  e2e.set("setup_s", median(setup_s));
  e2e.set("makespan_ratio_mean", checker.ratio_mean());

  Metrics& diag = result.diagnostics;
  diag.set("latency_samples", static_cast<double>(answer_latency.size()));
  diag.set("latency_p99_us", percentile(answer_latency, 0.99));
  diag.set("latency_max_us", max_of(answer_latency));
  diag.set("timed_requests", requests);
  diag.set("window_s", window_s);
  diag.set("generator_cpu_us_per_req", own_cpu * 1e6 / requests);
  diag.set("setup_s_min", *std::min_element(setup_s.begin(), setup_s.end()));
  diag.set("setup_s_max", max_of(setup_s));
  diag.set("cache_hits", hits);
  diag.set("cache_misses", misses);
  if (checker.snapshots() > 0)
    diag.set("snapshot_repair_share",
             static_cast<double>(checker.repairs()) /
                 static_cast<double>(checker.snapshots()));

  result.attempted = checker.attempted();
  result.failed = checker.failed();
  result.failures_by_code = checker.failures_by_code();
  result.failure_examples = checker.examples();
  result.digest = checker.digest();
  return result;
}

}  // namespace perfbench
