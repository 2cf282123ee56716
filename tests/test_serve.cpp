// Serving layer: wire protocol, ordered delivery, sharded service
// semantics (determinism across shard counts, named errors, admission
// rejection, graceful shutdown), the stdio transport loop, and the
// telemetry surface (stats breakdowns, trace spans, connection budget).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/instance_io.hpp"
#include "serve/serve.hpp"
#include "serve/socket.hpp"
#include "sim/workloads.hpp"

namespace msrs::serve {
namespace {

// ---------------- wire protocol ----------------

TEST(Wire, ParsesSolveWithSpec) {
  const auto request = parse_request(
      R"({"id":7,"op":"solve","spec":"uniform:n=20,m=4,seed=1","wire":1})");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->op, Op::kSolve);
  EXPECT_EQ(request->spec, "uniform:n=20,m=4,seed=1");
  EXPECT_EQ(request->wire, 1);
  ASSERT_TRUE(request->id.is_number());
  EXPECT_EQ(request->id.as_number(), 7.0);
}

TEST(Wire, ParsesSolveWithInstanceText) {
  const Instance instance = generate(Family::kUniform, 10, 2, 3);
  Json line = Json::object();
  line.set("op", "solve");
  line.set("instance", to_text(instance));
  const auto request = parse_request(line.str());
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->op, Op::kSolve);
  EXPECT_FALSE(request->instance.empty());
  EXPECT_TRUE(request->id.is_null());  // absent id echoes as null
}

TEST(Wire, NamedErrorsForEveryDefect) {
  struct Case {
    const char* line;
    WireError expect;
  };
  const Case cases[] = {
      {"not json at all", WireError::kParseError},
      {"[1,2,3]", WireError::kBadRequest},
      {R"({"id":1})", WireError::kBadRequest},
      {R"({"op":"fly"})", WireError::kUnknownOp},
      {R"({"op":"solve"})", WireError::kBadRequest},
      {R"({"op":"solve","spec":"a","instance":"b"})", WireError::kBadRequest},
      {R"({"op":"solve","spec":"a","wire":1.5})", WireError::kBadRequest},
      {R"({"op":"solve","spec":[1]})", WireError::kBadRequest},
      // Out-of-int-range numbers must be refused, not cast (UB).
      {R"({"op":"solve","spec":"a","budget_ms":3000000000})",
       WireError::kBadRequest},
      {R"({"op":"ping","wire":1e300})", WireError::kBadRequest},
      {R"({"op":"ping","wire":-7})", WireError::kBadRequest},
  };
  for (const Case& test_case : cases) {
    WireError code = WireError::kShuttingDown;
    std::string detail;
    const auto request = parse_request(test_case.line, &code, &detail);
    EXPECT_FALSE(request.has_value()) << test_case.line;
    EXPECT_EQ(wire_error_name(code), wire_error_name(test_case.expect))
        << test_case.line;
    EXPECT_FALSE(detail.empty()) << test_case.line;
  }
}

TEST(Wire, SalvagesIdFromBadRequests) {
  Json id;
  WireError code;
  std::string detail;
  const auto request =
      parse_request(R"({"id":42,"op":"fly"})", &code, &detail, &id);
  EXPECT_FALSE(request.has_value());
  ASSERT_TRUE(id.is_number());
  const std::string response = error_response(id, code, detail);
  EXPECT_NE(response.find("\"id\":42"), std::string::npos);
  EXPECT_NE(response.find("\"error\":\"unknown_op\""), std::string::npos);
}

TEST(Wire, ResponsesAreSingleLines) {
  engine::PortfolioResult result;
  result.solver = "greedy";
  result.makespan = 12.5;
  result.t_bound = 10;
  result.ratio_vs_bound = 1.25;
  result.valid = true;
  for (const std::string& line :
       {solve_response(Json(std::int64_t{1}), result),
        error_response(Json(), WireError::kOverloaded, "queue full"),
        ok_response(Json("abc"), "ping"), version_response(Json())}) {
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    EXPECT_TRUE(json_parse(line).has_value()) << line;
  }
}

// ---------------- ordered delivery ----------------

TEST(OrderedWriter, RestoresReservationOrder) {
  std::vector<std::string> written;
  OrderedWriter writer([&](const std::string& line) {
    written.push_back(line);
  });
  const std::uint64_t a = writer.reserve();
  const std::uint64_t b = writer.reserve();
  const std::uint64_t c = writer.reserve();
  writer.deliver(c, "third");
  writer.deliver(b, "second");
  EXPECT_TRUE(written.empty());  // head still missing
  writer.deliver(a, "first");
  writer.wait_drained();
  EXPECT_EQ(written, (std::vector<std::string>{"first", "second", "third"}));
}

// ---------------- service ----------------

ServiceOptions small_service(unsigned shards) {
  ServiceOptions options;
  options.shards = shards;
  options.budget_ms = 10;  // keep race fields small for test speed
  return options;
}

TEST(Service, AnswersControlOps) {
  Service service(small_service(2));
  EXPECT_NE(service.handle(R"({"id":1,"op":"ping"})").find("\"op\":\"ping\""),
            std::string::npos);
  const std::string version = service.handle(R"({"op":"version"})");
  EXPECT_NE(version.find("\"wire\":1"), std::string::npos);
  EXPECT_NE(version.find("\"instance_format\":1"), std::string::npos);
  const std::string stats = service.handle(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"shards\":2"), std::string::npos);
}

TEST(Service, SolvesAndCachesRepeats) {
  Service service(small_service(2));
  const std::string line =
      R"({"id":1,"op":"solve","spec":"uniform:n=20,m=4,seed=1"})";
  const std::string first = service.handle(line);
  const std::string second = service.handle(line);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(first.find("\"valid\":true"), std::string::npos);
  // Identical request -> identical body; the repeat was a cache hit.
  EXPECT_EQ(first, second);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solved, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(Service, IsomorphicInstancesShareOneSolve) {
  // Same shape, different job order: canonical sharding + remapping must
  // serve the second from the first's cache entry on any shard count.
  Service service(small_service(4));
  const Instance instance = generate(Family::kUniform, 16, 3, 9);
  Json a = Json::object();
  a.set("op", "solve");
  a.set("instance", to_text(instance));
  const std::string response_a = service.handle(a.str());
  EXPECT_NE(response_a.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(service.stats().solved, 1u);
  EXPECT_EQ(service.handle(a.str()), response_a);
  EXPECT_EQ(service.stats().solved, 1u);  // served by the cache
}

TEST(Service, MalformedLinesGetNamedErrorsAndServiceSurvives) {
  Service service(small_service(2));
  const std::string error = service.handle("}{ not json");
  EXPECT_NE(error.find("\"error\":\"parse_error\""), std::string::npos);
  const std::string bad_spec =
      service.handle(R"({"op":"solve","spec":"no_such_family:n=5"})");
  EXPECT_NE(bad_spec.find("\"error\":\"bad_spec\""), std::string::npos);
  const std::string bad_instance =
      service.handle(R"({"op":"solve","instance":"msrs 9000"})");
  EXPECT_NE(bad_instance.find("\"error\":\"bad_instance\""),
            std::string::npos);
  // Job sizes whose sum wraps int64 are refused, never answered ok.
  const std::string overflow = service.handle(
      R"({"op":"solve","instance":"msrs 1\nmachines 2\nclasses 2\n)"
      R"(class 2 9223372036854775000 5000\nclass 1 627\n"})");
  EXPECT_NE(overflow.find("\"error\":\"bad_instance\""), std::string::npos)
      << overflow;
  // A nesting bomb is a named parse error, not a stack overflow.
  const std::string bomb = "{\"id\":1,\"op\":" + std::string(100000, '[');
  EXPECT_NE(service.handle(bomb).find("\"error\":\"parse_error\""),
            std::string::npos);
  // Still serving after every defect:
  EXPECT_NE(service.handle(R"({"op":"ping"})").find("\"ok\":true"),
            std::string::npos);
}

// A machine count far beyond the instance's classes must not size anything
// by m: the race runs on min(m, |C|) machines and the service keeps going.
TEST(Service, HugeMachineCountIsAnsweredAndServiceSurvives) {
  Service service(small_service(2));
  const std::string solve = service.handle(
      R"({"op":"solve","instance":"msrs 1\nmachines 2000000000\nclasses 2\n)"
      R"(class 3 957 589 376\nclass 1 627\n"})");
  EXPECT_NE(solve.find("\"ok\":true"), std::string::npos) << solve;
  EXPECT_NE(solve.find("\"valid\":true"), std::string::npos) << solve;
  EXPECT_NE(service.handle(R"({"op":"ping"})").find("\"ok\":true"),
            std::string::npos);
}

TEST(Service, WireVersionMismatchIsNamed) {
  Service service(small_service(1));
  const std::string response =
      service.handle(R"({"op":"ping","wire":999})");
  EXPECT_NE(response.find("\"error\":\"wire_version_mismatch\""),
            std::string::npos);
}

TEST(Service, BudgetOverrideBypassesCache) {
  Service service(small_service(1));
  const std::string line =
      R"({"op":"solve","spec":"uniform:n=20,m=4,seed=2","budget_ms":500})";
  EXPECT_NE(service.handle(line).find("\"ok\":true"), std::string::npos);
  EXPECT_NE(service.handle(line).find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(service.stats().solved, 2u);  // solved twice, never cached
  EXPECT_EQ(service.stats().cache_entries, 0u);
}

TEST(Service, RejectsWhenQueueFullInRejectMode) {
  ServiceOptions options = small_service(1);
  options.queue_depth = 1;
  options.reject_when_full = true;
  Service service(options);
  // Occupy the single shard with one slow solve, then burst cheap
  // requests: with depth 1, at most a couple can be admitted while the
  // shard is busy; the rest must be rejected by name — and every
  // callback must still fire exactly once.
  Json big = Json::object();
  big.set("op", "solve");
  big.set("instance", to_text(generate(Family::kUniform, 12000, 8, 1)));
  std::atomic<int> overloaded{0}, answered{0};
  const auto classify = [&](std::string&& response) {
    if (response.find("\"error\":\"overloaded\"") != std::string::npos)
      overloaded.fetch_add(1);
    answered.fetch_add(1);
  };
  service.submit(big.str(), classify);
  constexpr int kBurst = 23;
  const std::string small_line =
      R"({"op":"solve","spec":"uniform:n=10,m=2,seed=1"})";
  for (int i = 0; i < kBurst; ++i) service.submit(small_line, classify);
  EXPECT_TRUE(service.shutdown(std::chrono::seconds(60)));
  EXPECT_EQ(answered.load(), kBurst + 1);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(service.stats().rejected,
            static_cast<std::size_t>(overloaded.load()));
}

TEST(Service, ShutdownDrainsAndRefusesNewWork) {
  Service service(small_service(2));
  std::atomic<int> answered{0};
  for (int i = 0; i < 8; ++i)
    service.submit(
        R"({"op":"solve","spec":"uniform:n=30,m=4,seed=)" +
            std::to_string(i + 1) + "\"}",
        [&](std::string&&) { answered.fetch_add(1); });
  EXPECT_TRUE(service.shutdown(std::chrono::seconds(60)));
  EXPECT_EQ(answered.load(), 8);
  const std::string refused = service.handle(R"({"op":"ping"})");
  EXPECT_NE(refused.find("\"error\":\"shutting_down\""), std::string::npos);
}

TEST(Service, ShutdownDrainsLiveSessionsAndRefusesNewSubmits) {
  Service service(small_service(2));
  ASSERT_NE(service
                .handle(
                    R"({"op":"open_session","session":"drain","machines":3})")
                .find("\"ok\":true"),
            std::string::npos);
  // Queue mutations and an in-flight snapshot asynchronously, then shut
  // down: the drain must flush every pending session mutation and answer
  // the snapshot before returning — sessions are not dropped mid-churn.
  std::atomic<int> answered{0};
  for (int i = 0; i < 6; ++i)
    service.submit(R"({"op":"submit_job","session":"drain","class":"c)" +
                       std::to_string(i % 2) + R"(","size":)" +
                       std::to_string(i + 5) + "}",
                   [&](std::string&& response) {
                     EXPECT_NE(response.find("\"ok\":true"),
                               std::string::npos);
                     answered.fetch_add(1);
                   });
  std::string snapshot;
  service.submit(R"({"op":"snapshot","session":"drain"})",
                 [&](std::string&& response) {
                   snapshot = std::move(response);
                   answered.fetch_add(1);
                 });
  EXPECT_TRUE(service.shutdown(std::chrono::seconds(60)));
  EXPECT_EQ(answered.load(), 7);
  EXPECT_NE(snapshot.find("\"jobs\":6"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("\"valid\":true"), std::string::npos) << snapshot;
  // Post-drain the session surface is closed for business, by name.
  const std::string refused = service.handle(
      R"({"op":"submit_job","session":"drain","class":"c0","size":9})");
  EXPECT_NE(refused.find("\"error\":\"shutting_down\""), std::string::npos);
}

// ---------------- stdio transport ----------------

std::string serve_all(const std::string& input, unsigned shards) {
  ServiceOptions options = small_service(shards);
  Service service(options);
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(serve_stdio(service, in, out), 0);
  return out.str();
}

TEST(ServeStdio, ByteIdenticalAcrossShardCounts) {
  std::string input;
  for (int i = 0; i < 40; ++i) {
    // Repeated-corpus traffic: 8 distinct shapes, 5 passes, plus defects
    // sprinkled in — the response stream must not depend on sharding.
    input += R"({"id":)" + std::to_string(i) +
             R"(,"op":"solve","spec":"uniform:n=24,m=4,seed=)" +
             std::to_string(i % 8 + 1) + "\"}\n";
    if (i % 10 == 7) input += "defective line " + std::to_string(i) + "\n";
  }
  input += R"({"op":"stats_is_not_an_op"})" "\n";
  const std::string one = serve_all(input, 1);
  const std::string four = serve_all(input, 4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  // One response line per non-empty request line, in request order.
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 40 + 4 + 1);
}

TEST(ServeStdio, ShutdownOpStopsTheLoop) {
  const std::string output = serve_all(
      "{\"id\":1,\"op\":\"ping\"}\n"
      "{\"id\":2,\"op\":\"shutdown\"}\n"
      "{\"id\":3,\"op\":\"ping\"}\n",  // never read: loop stopped
      2);
  EXPECT_NE(output.find("\"op\":\"shutdown\""), std::string::npos);
  EXPECT_EQ(output.find("\"id\":3"), std::string::npos);
}

// ---------------- telemetry surface ----------------

TEST(Telemetry, StatsOpCarriesBreakdownsAndLatencyDecomposition) {
  Service service(small_service(2));
  const std::string solve_line =
      R"({"op":"solve","spec":"uniform:n=20,m=4,seed=3"})";
  EXPECT_NE(service.handle(solve_line).find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.handle(solve_line).find("\"ok\":true"),
            std::string::npos);  // cache hit
  (void)service.handle(R"({"op":"solve","spec":"no_such_family:n=5"})");

  const std::string line = service.handle(R"({"op":"stats"})");
  const std::optional<Json> stats = json_parse(line);
  ASSERT_TRUE(stats.has_value()) << line;

  const Json* depths = stats->find("queue_depths");
  ASSERT_NE(depths, nullptr);
  ASSERT_TRUE(depths->is_array());
  EXPECT_EQ(depths->items().size(), 2u);

  const Json* per_shard = stats->find("shard_requests");
  ASSERT_NE(per_shard, nullptr);
  ASSERT_TRUE(per_shard->is_array());
  double served = 0.0;
  for (const Json& v : per_shard->items()) served += v.as_number();
  EXPECT_EQ(served, 2.0);  // both solve requests, rejections excluded

  // Every wire error code has a key; the bad_spec defect was counted.
  const Json* errors_by_code = stats->find("errors_by_code");
  ASSERT_NE(errors_by_code, nullptr);
  for (const WireError code : kAllWireErrors)
    EXPECT_NE(errors_by_code->find(std::string(wire_error_name(code))),
              nullptr)
        << wire_error_name(code);
  EXPECT_EQ(errors_by_code->find("bad_spec")->as_number(), 1.0);

  // Exactly one race ran (the repeat was a cache hit) and its winner is
  // named in the breakdown.
  const Json* solver_wins = stats->find("solver_wins");
  ASSERT_NE(solver_wins, nullptr);
  double wins = 0.0;
  for (const auto& [name, value] : solver_wins->members())
    wins += value.as_number();
  EXPECT_EQ(wins, 1.0);

  const Json* conns = stats->find("conns");
  ASSERT_NE(conns, nullptr);
  ASSERT_NE(conns->find("accepted"), nullptr);
  ASSERT_NE(conns->find("active"), nullptr);
  ASSERT_NE(conns->find("rejected"), nullptr);

  // Latency decomposition: all five lifecycle stages, each with count and
  // quantiles; the solve requests were measured.
  const Json* latency = stats->find("latency");
  ASSERT_NE(latency, nullptr);
  for (const char* stage : {"admission", "queue", "solve", "write", "total"}) {
    const Json* entry = latency->find(stage);
    ASSERT_NE(entry, nullptr) << stage;
    ASSERT_NE(entry->find("count"), nullptr) << stage;
    EXPECT_EQ(entry->find("count")->as_number(), 2.0) << stage;
    ASSERT_NE(entry->find("p50_us"), nullptr) << stage;
    ASSERT_NE(entry->find("p95_us"), nullptr) << stage;
    ASSERT_NE(entry->find("p99_us"), nullptr) << stage;
    ASSERT_NE(entry->find("mean_us"), nullptr) << stage;
  }
}

TEST(Telemetry, StatsOpCarriesUptimeAndBuildInfo) {
  Service service(small_service(1));
  const std::optional<Json> stats =
      json_parse(service.handle(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.has_value());
  const Json* uptime = stats->find("uptime_seconds");
  ASSERT_NE(uptime, nullptr);
  EXPECT_GE(uptime->as_number(), 0.0);
  const Json* build = stats->find("build_info");
  ASSERT_NE(build, nullptr);
  // The label set matches build_info_labels(), same order, no surprises.
  const std::vector<std::pair<std::string, std::string>> labels =
      build_info_labels();
  ASSERT_EQ(build->members().size(), labels.size());
  for (const auto& [key, value] : labels) {
    const Json* member = build->find(key);
    ASSERT_NE(member, nullptr) << key;
    EXPECT_EQ(member->as_string(), value) << key;
  }
  ASSERT_NE(build->find("wire"), nullptr);
  EXPECT_EQ(build->find("wire")->as_string(),
            std::to_string(kWireVersion));
}

TEST(Telemetry, PrometheusPageLeadsWithBuildInfo) {
  Service service(small_service(1));
  const std::string page = service.metrics_snapshot().prometheus();
  const std::size_t info_at = page.find("msrs_build_info{");
  ASSERT_NE(info_at, std::string::npos);
  EXPECT_NE(page.find("wire=\"" + std::to_string(kWireVersion) + "\""),
            std::string::npos);
  EXPECT_NE(page.find("msrs_serve_uptime_seconds"), std::string::npos);
  // build_info renders before every plain counter series.
  EXPECT_LT(info_at, page.find("msrs_serve_received"));
}

// ---------------- HTTP exposition ----------------

TEST(Http, ParsesRequestHeadWithCrlfAndBareLf) {
  HttpRequest request;
  std::size_t head_len = 0;
  EXPECT_EQ(parse_http_request("GET /metrics HTTP/1.1\r\n", &request,
                               &head_len),
            HttpParse::kIncomplete);  // blank line not buffered yet
  EXPECT_EQ(parse_http_request(
                "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\nTRAILING", &request,
                &head_len),
            HttpParse::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_EQ(head_len, std::string("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                          .size());
  EXPECT_EQ(parse_http_request("GET /healthz HTTP/1.0\n\n", &request,
                               &head_len),
            HttpParse::kOk);
  EXPECT_EQ(request.target, "/healthz");
}

TEST(Http, RejectsMalformedRequestLines) {
  HttpRequest request;
  for (const char* head :
       {"NOSPACES\r\n\r\n", "GET /x\r\n\r\n", "GET  HTTP/1.1\r\n\r\n",
        "GET /x SPDY/3\r\n\r\n"}) {
    EXPECT_EQ(parse_http_request(head, &request, nullptr), HttpParse::kBad)
        << head;
  }
}

TEST(Http, ResponseCarriesStatusTypeLengthAndClose) {
  const std::string response = http_response(200, "text/plain", "ok\n");
  EXPECT_EQ(response.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(response.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n\r\nok\n"),
            std::string::npos);
  EXPECT_EQ(http_response(503, "text/plain", "draining\n")
                .find("HTTP/1.1 503 Service Unavailable\r\n"),
            0u);
}

TEST(Http, RoutesObservabilitySurfaces) {
  Service service(small_service(1));
  (void)service.handle(R"({"op":"solve","spec":"uniform:n=16,m=2,seed=1"})");

  const std::string metrics =
      http_route(service, {"GET", "/metrics"});
  EXPECT_EQ(metrics.find("HTTP/1.1 200 OK"), 0u);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("msrs_serve_received"), std::string::npos);
  EXPECT_NE(metrics.find("msrs_build_info{"), std::string::npos);

  const std::string health = http_route(service, {"GET", "/healthz"});
  EXPECT_EQ(health.find("HTTP/1.1 200 OK"), 0u);
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);

  const std::string recorder =
      http_route(service, {"GET", "/recorder?canonical=1"});
  EXPECT_EQ(recorder.find("HTTP/1.1 200 OK"), 0u);
  EXPECT_NE(recorder.find("application/jsonl"), std::string::npos);
  EXPECT_NE(recorder.find("\"canonical\":true"), std::string::npos);

  const std::string watchdog = http_route(service, {"GET", "/watchdog"});
  EXPECT_EQ(watchdog.find("HTTP/1.1 200 OK"), 0u);
  EXPECT_NE(watchdog.find("\"thresholds\""), std::string::npos);

  EXPECT_EQ(http_route(service, {"GET", "/nope"}).find("HTTP/1.1 404"), 0u);
  EXPECT_EQ(http_route(service, {"POST", "/metrics"}).find("HTTP/1.1 405"),
            0u);
}

TEST(Http, HealthzReports503WhileDrainingAndRecorder404WhenDisabled) {
  ServiceOptions options = small_service(1);
  options.recorder_events = 0;
  Service service(options);
  EXPECT_EQ(http_route(service, {"GET", "/recorder"}).find("HTTP/1.1 404"),
            0u);
  service.shutdown(std::chrono::seconds(5));
  EXPECT_EQ(http_route(service, {"GET", "/healthz"}).find("HTTP/1.1 503"),
            0u);
}

TEST(Telemetry, EveryErrorResponseIncrementsItsNamedCounter) {
  Service service(small_service(1));
  (void)service.handle("}{ not json");                       // parse_error
  (void)service.handle("}{ not json");                       // parse_error
  (void)service.handle(R"({"op":"fly"})");                   // unknown_op
  (void)service.handle(R"({"op":"ping","wire":999})");       // mismatch
  (void)service.handle(R"({"op":"solve","instance":"x"})");  // bad_instance

  const std::optional<Json> stats =
      json_parse(service.handle(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.has_value());
  const Json* by_code = stats->find("errors_by_code");
  ASSERT_NE(by_code, nullptr);
  EXPECT_EQ(by_code->find("parse_error")->as_number(), 2.0);
  EXPECT_EQ(by_code->find("unknown_op")->as_number(), 1.0);
  EXPECT_EQ(by_code->find("wire_version_mismatch")->as_number(), 1.0);
  EXPECT_EQ(by_code->find("bad_instance")->as_number(), 1.0);
  EXPECT_EQ(by_code->find("overloaded")->as_number(), 0.0);
  // The aggregate matches the sum of the per-code counters.
  double sum = 0.0;
  for (const auto& [name, value] : by_code->members())
    sum += value.as_number();
  EXPECT_EQ(stats->find("errors")->as_number(), sum);
}

TEST(Telemetry, TraceSinkEmitsValidSpansWithProvenance) {
  const std::string path = ::testing::TempDir() + "msrs_serve_trace.jsonl";
  {
    ServiceOptions options = small_service(1);
    options.trace.path = path;
    options.trace.sample_every = 1;  // every request
    options.trace.slow_ms = 0.0;     // quiet slow log under sanitizers
    Service service(options);
    const std::string solve_line =
        R"({"op":"solve","spec":"uniform:n=20,m=4,seed=5"})";
    (void)service.handle(solve_line);  // miss
    (void)service.handle(solve_line);  // hit
    (void)service.handle(R"({"op":"solve","spec":"no_such_family:n=5"})");
    service.shutdown(std::chrono::seconds(30));
  }
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::string line;
  int spans = 0;
  bool saw_miss = false, saw_hit = false, saw_error = false;
  while (std::getline(file, line)) {
    const std::optional<Json> span = json_parse(line);
    ASSERT_TRUE(span.has_value()) << line;
    ++spans;
    const Json* cache = span->find("cache");
    const Json* error = span->find("error");
    const Json* total = span->find("total_us");
    ASSERT_NE(total, nullptr);
    EXPECT_GE(total->as_number(), 0.0);
    if (cache != nullptr && cache->as_string() == "miss") {
      saw_miss = true;
      // A miss span carries the winning solver's name.
      ASSERT_NE(span->find("solver"), nullptr);
      EXPECT_FALSE(span->find("solver")->as_string().empty());
    }
    if (cache != nullptr && cache->as_string() == "hit") saw_hit = true;
    if (error != nullptr && error->as_string() == "bad_spec")
      saw_error = true;
  }
  EXPECT_EQ(spans, 3);
  EXPECT_TRUE(saw_miss);
  EXPECT_TRUE(saw_hit);
  EXPECT_TRUE(saw_error);
  std::remove(path.c_str());
}

TEST(Telemetry, PrometheusPageExposesServiceSeries) {
  Service service(small_service(1));
  (void)service.handle(R"({"op":"solve","spec":"uniform:n=16,m=2,seed=1"})");
  const std::string page = service.metrics_snapshot().prometheus();
  EXPECT_NE(page.find("# TYPE msrs_serve_received counter"),
            std::string::npos);
  EXPECT_NE(page.find("msrs_serve_received 1"), std::string::npos);
  EXPECT_NE(page.find("# TYPE msrs_serve_latency_total_us histogram"),
            std::string::npos);
  EXPECT_NE(page.find("msrs_serve_latency_total_us_count 1"),
            std::string::npos);
  EXPECT_NE(page.find("msrs_serve_queue_depth_0"), std::string::npos);
}

TEST(ServeSocket, ConnectionBudgetShedsExtraClients) {
  if (!socket_transport_available())
    GTEST_SKIP() << "no socket transport on this platform";
  const std::string path = ::testing::TempDir() + "msrs_budget.sock";
  ServiceOptions options = small_service(1);
  Service service(options);
  SocketOptions socket_options;
  socket_options.max_connections = 1;
  std::thread server([&service, &path, socket_options] {
    std::string error;
    EXPECT_EQ(serve_socket(service, path, &error, socket_options), 0)
        << error;
  });

  SocketClient first;
  std::string error;
  bool connected = false;
  for (int i = 0; i < 500 && !connected; ++i) {
    connected = first.connect(path, &error);
    if (!connected)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(connected) << error;
  std::string line;
  ASSERT_TRUE(first.send_line(R"({"id":1,"op":"ping"})"));
  ASSERT_TRUE(first.recv_line(&line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);

  // Over budget: the second client gets one named overloaded line, then
  // the connection closes.
  SocketClient second;
  ASSERT_TRUE(second.connect(path, &error)) << error;
  ASSERT_TRUE(second.recv_line(&line));
  EXPECT_NE(line.find("\"error\":\"overloaded\""), std::string::npos);
  EXPECT_FALSE(second.recv_line(&line));  // EOF

  ASSERT_TRUE(first.send_line(R"({"op":"shutdown"})"));
  ASSERT_TRUE(first.recv_line(&line));
  server.join();

  const obs::MetricsSnapshot snapshot = service.metrics_snapshot();
  EXPECT_EQ(snapshot.counter_or("serve.conns.accepted"), 1u);
  EXPECT_EQ(snapshot.counter_or("serve.conns.rejected"), 1u);
  EXPECT_EQ(snapshot.gauge_or("serve.conns.active"), 0);
}

// ---------------- stop flag ----------------

// Regression: the stop flag used to be a `volatile sig_atomic_t`, which is
// async-signal-safe but NOT thread-safe — request_stop() from one thread
// racing stop_requested() polls on the transport loop threads was a data
// race (caught by TSan). The flag is now std::atomic<int>; this test
// hammers it from several threads with a real signal delivery in the mix
// so a regression shows up again under -fsanitize=thread.
TEST(StopFlag, ConcurrentRequestAndSignalDelivery) {
  reset_stop();
  install_stop_signals();

  std::atomic<int> observers_done{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&observers_done] {
      while (!stop_requested()) std::this_thread::yield();
      observers_done.fetch_add(1);
    });
  }

  std::thread requester([] { request_stop(); });
  std::raise(SIGTERM);  // handler path: g_stop store from signal context

  requester.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(observers_done.load(), 4);
  EXPECT_TRUE(stop_requested());

  reset_stop();
  EXPECT_FALSE(stop_requested());
}

}  // namespace
}  // namespace msrs::serve
