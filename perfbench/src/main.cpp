// perfbench_load: the load generator and traced replay of the serving-path
// benchmark. perfbench/run.py builds and runs it; it prints one JSON
// document on stdout.
//
//   perfbench_load --cli=PATH --workload=NAME --seed=N --seconds=S
//                  [--trace] [--spans=FILE] [--tiny] [--corrupt]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tcp_run.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace {

bool arg(const char* text, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(text, name, n) != 0 || text[n] != '=') return false;
  *value = text + n + 1;
  return true;
}

msrs::Json counts_json(const std::map<std::string, std::int64_t>& counts) {
  msrs::Json out = msrs::Json::object();
  for (const auto& [code, count] : counts) out.set(code, msrs::Json(count));
  return out;
}

msrs::Json strings_json(const std::vector<std::string>& items) {
  msrs::Json out = msrs::Json::array();
  for (const std::string& item : items) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cli, workload_name, seed = "1", seconds = "10", spans;
  bool trace = false, tiny = false, corrupt = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (arg(argv[i], "--cli", &value)) cli = value;
    else if (arg(argv[i], "--workload", &value)) workload_name = value;
    else if (arg(argv[i], "--seed", &value)) seed = value;
    else if (arg(argv[i], "--seconds", &value)) seconds = value;
    else if (arg(argv[i], "--spans", &value)) spans = value;
    else if (std::strcmp(argv[i], "--trace") == 0) trace = true;
    else if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
    else if (std::strcmp(argv[i], "--corrupt") == 0) corrupt = true;
    else {
      std::fprintf(stderr, "perfbench_load: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  const int run_seconds = std::atoi(seconds.c_str());
  perfbench::Workload workload;
  if (cli.empty() || run_seconds < 1 ||
      !perfbench::make_workload(workload_name,
                                std::strtoull(seed.c_str(), nullptr, 10),
                                run_seconds, tiny, &workload)) {
    std::fprintf(stderr,
                 "usage: perfbench_load --cli=PATH --workload=warm_hit|"
                 "cold_solve|session_churn --seed=N --seconds=S [--trace]"
                 " [--spans=FILE] [--tiny] [--corrupt]\n");
    return 2;
  }
  if (corrupt) perfbench::inject_corrupt_request(&workload);

  perfbench::TcpOptions tcp_options;
  tcp_options.cli = cli;
  if (tiny) tcp_options.setups = 2;
  tcp_options.pings = trace ? (tiny ? 50 : 1000) : 0;
  const perfbench::TcpResult tcp = perfbench::run_tcp(workload, tcp_options);
  if (!tcp.fatal.empty()) {
    std::fprintf(stderr, "perfbench_load: %s\n", tcp.fatal.c_str());
    return 1;
  }

  msrs::Json out = msrs::Json::object();
  out.set("workload", workload.name);
  out.set("seed", seed);
  out.set("attempted", msrs::Json(tcp.attempted));
  out.set("failed", msrs::Json(tcp.failed));
  out.set("failures_by_code", counts_json(tcp.failures_by_code));
  out.set("failure_examples", strings_json(tcp.failure_examples));
  out.set("digest", tcp.digest);
  out.set("build_info", tcp.build_info);
  out.set("end_to_end", tcp.end_to_end.json());
  out.set("diagnostics", tcp.diagnostics.json());

  if (trace) {
    perfbench::TracedOptions traced_options;
    traced_options.spans_path = spans;
    traced_options.tiny = tiny;
    perfbench::TracedResult traced =
        perfbench::run_traced(workload, traced_options);
    if (!traced.fatal.empty()) {
      std::fprintf(stderr, "perfbench_load: %s\n", traced.fatal.c_str());
      return 1;
    }
    msrs::Json layers = traced.layers.json();
    for (const char* name : {"transport.ping_rtt_p50_us",
                             "service.queue_wait_p50_us"})
      layers.set(name, msrs::Json(tcp.layers.get(name)));
    out.set("per_layer", std::move(layers));
    out.set("replay", traced.replay.json());
    out.set("sum_checks", strings_json(traced.sum_checks));
    out.set("sums_ok", traced.sums_ok);
    out.set("traced_attempted", msrs::Json(traced.attempted));
    out.set("traced_failed", msrs::Json(traced.failed));
    out.set("traced_failures_by_code", counts_json(traced.failures_by_code));
    out.set("traced_failure_examples", strings_json(traced.failure_examples));
    out.set("spans", msrs::Json(static_cast<std::int64_t>(traced.spans)));
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
