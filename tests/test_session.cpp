// Online sessions: the SessionEngine differential harness (>=1000 fuzzed
// churn mutations, each snapshot pinned against an independent model of the
// alive jobs and an independent full portfolio re-solve), the wire session
// lifecycle with named errors, snapshot byte-identity across shard counts
// and across transports (stdio vs TCP), the serve.session.* telemetry
// surface, and the per-session admission fairness gate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/instance_io.hpp"
#include "core/validate.hpp"
#include "engine/session.hpp"
#include "serve/serve.hpp"
#include "sim/arrivals.hpp"
#include "sim/workloads.hpp"

namespace msrs::engine {
namespace {

PortfolioOptions fast_portfolio() {
  PortfolioOptions options;
  options.budget_ms = 5;  // keep the race fields small for test speed
  options.threads = 1;
  return options;
}

// The alive jobs of a session, kept apart from SessionEngine: per class in
// order of first submission, the (session id, size) of its alive jobs in
// submission order.
class AliveModel {
 public:
  void submit(const std::string& name, std::uint64_t id, Time size) {
    if (index_.emplace(name, classes_.size()).second) classes_.emplace_back();
    classes_[index_.at(name)].emplace_back(id, size);
  }
  void cancel(std::uint64_t id) {
    for (auto& jobs : classes_)
      for (auto it = jobs.begin(); it != jobs.end(); ++it)
        if (it->first == id) {
          jobs.erase(it);
          return;
        }
  }
  // The instance a snapshot must race on, and the session id of each job.
  std::pair<Instance, std::vector<std::uint64_t>> materialize(
      int machines) const {
    Instance instance;
    instance.set_machines(machines);
    std::vector<std::uint64_t> ids;
    for (const auto& jobs : classes_) {
      if (jobs.empty()) continue;
      const ClassId cls = instance.add_class();
      for (const auto& [id, size] : jobs) {
        instance.add_job(cls, size);
        ids.push_back(id);
      }
    }
    return {std::move(instance), std::move(ids)};
  }

 private:
  std::map<std::string, std::size_t> index_;
  std::vector<std::vector<std::pair<std::uint64_t, Time>>> classes_;
};

// Replays one churn trace through a SessionEngine, snapshotting after
// EVERY mutation and pinning each snapshot against two independent
// oracles: the model's materialized instance (same classes, jobs and
// order) and a fresh full portfolio re-solve (schedule-valid and
// makespan-equal). Returns the mutation count.
std::size_t replay_differential(const ChurnSpec& spec) {
  SessionEngine session(spec.machines, SolverRegistry::default_registry(),
                        fast_portfolio());
  AliveModel model;
  PortfolioSolver oracle(SolverRegistry::default_registry(), fast_portfolio());
  std::size_t mutations = 0;
  for (const ChurnEvent& event : generate_churn(spec)) {
    if (event.kind == ChurnEvent::Kind::kSubmit) {
      const std::string name = "c" + std::to_string(event.cls);
      const std::uint64_t id = session.submit(name, event.size);
      // Ids are a monotone counter: the trace's predicted target holds.
      EXPECT_EQ(id, static_cast<std::uint64_t>(event.target));
      model.submit(name, id, event.size);
    } else if (event.kind == ChurnEvent::Kind::kCancel) {
      EXPECT_TRUE(session.cancel(static_cast<std::uint64_t>(event.target)))
          << "trace cancels only alive jobs";
      model.cancel(static_cast<std::uint64_t>(event.target));
    } else {
      continue;  // the trace's own snapshots are subsumed: we snapshot below
    }
    ++mutations;

    const SessionSnapshot& snap = session.snapshot();
    // Oracle 1: the snapshot races exactly the model's alive jobs.
    const auto [expected, ids] = model.materialize(spec.machines);
    EXPECT_EQ(to_text(snap.instance), to_text(expected))
        << "mutation " << mutations;
    EXPECT_EQ(snap.jobs, ids) << "mutation " << mutations;
    if (session.jobs_alive() == 0) {
      EXPECT_EQ(snap.result.solver, "empty");
      EXPECT_EQ(snap.result.makespan, 0.0);
      EXPECT_TRUE(snap.result.valid);
      continue;
    }
    // Oracle 2: the schedule is valid on the materialized instance and
    // makespan-equal to an independent full re-solve.
    EXPECT_TRUE(snap.result.valid);
    EXPECT_TRUE(validate(snap.instance, snap.result.schedule).ok())
        << "mutation " << mutations;
    const PortfolioResult full = oracle.solve(expected);
    EXPECT_TRUE(full.valid);
    EXPECT_EQ(snap.result.makespan, full.makespan)
        << "mutation " << mutations << " (" << snap.result.solver
        << " vs oracle " << full.solver << ")";
    EXPECT_EQ(snap.result.t_bound, full.t_bound) << "mutation " << mutations;
  }
  return mutations;
}

TEST(SessionDifferential, PoissonChurnPinnedAgainstFullResolve) {
  std::size_t mutations = 0;
  for (const std::uint64_t seed : {1, 2}) {
    ChurnSpec spec;
    spec.kind = ArrivalKind::kPoisson;
    spec.events = 250;
    spec.classes = 4;
    spec.machines = 4;
    spec.max_size = 20;  // few distinct sizes: shapes repeat
    spec.cancel = 0.4;
    spec.seed = seed;
    mutations += replay_differential(spec);
  }
  EXPECT_GE(mutations, 500u);
}

TEST(SessionDifferential, BurstyOnOffChurnPinnedAgainstFullResolve) {
  std::size_t mutations = 0;
  for (const std::uint64_t seed : {3, 4}) {
    ChurnSpec spec;
    spec.kind = ArrivalKind::kOnOff;
    spec.events = 250;
    spec.classes = 5;
    spec.machines = 3;
    spec.max_size = 30;
    spec.cancel = 0.45;  // heavy churn: deep cancel chains, empty refills
    spec.burst_len = 16;
    spec.seed = seed;
    mutations += replay_differential(spec);
  }
  // Both differential tests together replay >= 1000 fuzzed mutations.
  EXPECT_GE(mutations, 500u);
}

TEST(SessionEngine, EmptySessionsAndCancelRulesAreExact) {
  SessionEngine session(4);
  const SessionSnapshot& empty = session.snapshot();
  EXPECT_EQ(empty.result.solver, "empty");
  EXPECT_TRUE(empty.result.valid);
  EXPECT_EQ(session.jobs_alive(), 0u);
  EXPECT_FALSE(session.cancel(0));   // never assigned
  EXPECT_FALSE(session.cancel(99));  // out of range
  const std::uint64_t a = session.submit("x", 3);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(session.submit("y", 5), 1u);  // monotone ids
  EXPECT_TRUE(session.cancel(a));
  EXPECT_FALSE(session.cancel(a));  // double-cancel changes nothing
  EXPECT_EQ(session.jobs_alive(), 1u);
  EXPECT_EQ(session.classes_alive(), 1u);  // class "x" is empty now
  EXPECT_TRUE(session.cancel(1));
  EXPECT_EQ(session.snapshot().result.solver, "empty");
}

}  // namespace
}  // namespace msrs::engine

namespace msrs::serve {
namespace {

ServiceOptions session_service(unsigned shards) {
  ServiceOptions options;
  options.shards = shards;
  options.budget_ms = 10;  // keep race fields small for test speed
  return options;
}

// ---------------- wire schema of the session ops ----------------

TEST(SessionWire, NamedErrorsForSessionDefects) {
  struct Case {
    const char* line;
    WireError expect;
  };
  const Case cases[] = {
      {R"({"op":"open_session"})", WireError::kBadRequest},
      {R"({"op":"open_session","session":""})", WireError::kBadRequest},
      {R"({"op":"open_session","session":"s","machines":0})",
       WireError::kBadRequest},
      {R"({"op":"submit_job","session":"s"})", WireError::kBadRequest},
      {R"({"op":"submit_job","session":"s","class":"c"})",
       WireError::kBadRequest},  // size absent (defaults 0 < 1)
      {R"({"op":"submit_job","session":"s","class":"c","size":-3})",
       WireError::kBadRequest},
      {R"({"op":"cancel_job","session":"s"})", WireError::kBadRequest},
      {R"({"op":"cancel_job","session":"s","job":-1})", WireError::kBadRequest},
      {R"({"op":"snapshot"})", WireError::kBadRequest},
      {R"({"op":"close_session","session":17})", WireError::kBadRequest},
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
  const auto good = parse_request(
      R"({"id":1,"op":"submit_job","session":"s1","class":"r","size":12})");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->op, Op::kSubmitJob);
  EXPECT_EQ(good->session, "s1");
  EXPECT_EQ(good->job_class, "r");
  EXPECT_EQ(good->size, 12);
}

// ---------------- service lifecycle ----------------

TEST(SessionService, LifecycleAndNamedErrors) {
  Service service(session_service(2));
  const auto expect_contains = [&](const std::string& line,
                                   const char* token) {
    EXPECT_NE(service.handle(line).find(token), std::string::npos) << line;
  };
  expect_contains(R"({"op":"open_session","session":"s1","machines":4})",
                  "\"op\":\"open_session\"");
  expect_contains(R"({"op":"open_session","session":"s1"})",
                  "\"error\":\"bad_request\"");  // already open
  expect_contains(R"({"op":"submit_job","session":"s1","class":"a","size":5})",
                  "\"job\":0");
  expect_contains(R"({"op":"submit_job","session":"s1","class":"b","size":9})",
                  "\"job\":1");
  expect_contains(R"({"op":"cancel_job","session":"s1","job":0})",
                  "\"cancelled\":true");
  expect_contains(R"({"op":"cancel_job","session":"s1","job":0})",
                  "\"error\":\"unknown_job\"");  // double cancel
  expect_contains(R"({"op":"cancel_job","session":"s1","job":99})",
                  "\"error\":\"unknown_job\"");
  expect_contains(R"({"op":"snapshot","session":"s1"})", "\"jobs\":1");
  // Unknown sessions are named, for every session op.
  for (const char* line :
       {R"({"op":"submit_job","session":"ghost","class":"a","size":1})",
        R"({"op":"cancel_job","session":"ghost","job":0})",
        R"({"op":"snapshot","session":"ghost"})",
        R"({"op":"close_session","session":"ghost"})"})
    expect_contains(line, "\"error\":\"unknown_session\"");
  expect_contains(R"({"op":"close_session","session":"s1"})",
                  "\"op\":\"close_session\"");
  expect_contains(R"({"op":"snapshot","session":"s1"})",
                  "\"error\":\"unknown_session\"");  // state dropped
  // A closed name is reusable, with fresh state.
  expect_contains(R"({"op":"open_session","session":"s1"})",
                  "\"op\":\"open_session\"");
  expect_contains(R"({"op":"snapshot","session":"s1"})", "\"jobs\":0");
}

TEST(SessionService, SessionLimitIsNamedAndReleasedOnClose) {
  ServiceOptions options = session_service(4);
  options.session_limit = 2;
  Service service(options);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"a"})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"b"})")
                .find("\"ok\":true"),
            std::string::npos);
  // The cap is global across shards, and the breach is a named error.
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"c"})")
                .find("\"error\":\"session_limit\""),
            std::string::npos);
  EXPECT_NE(service.handle(R"({"op":"close_session","session":"a"})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"c"})")
                .find("\"ok\":true"),
            std::string::npos);
}

// Strips the leading `"id":N,` member so responses to different requests
// compare by body.
std::string body_of(const std::string& response) {
  const std::size_t comma = response.find(',');
  return comma == std::string::npos ? response : response.substr(comma);
}

TEST(SessionService, SnapshotAfterUndoingCancelIsByteIdentical) {
  Service service(session_service(1));
  (void)service.handle(
      R"({"id":1,"op":"open_session","session":"s","machines":3})");
  const std::string empty =
      service.handle(R"({"id":2,"op":"snapshot","session":"s"})");
  EXPECT_NE(empty.find("\"solver\":\"empty\""), std::string::npos);
  EXPECT_NE(empty.find("\"source\":\"empty\""), std::string::npos);
  EXPECT_NE(empty.find("\"valid\":true"), std::string::npos);
  (void)service.handle(
      R"({"id":3,"op":"submit_job","session":"s","class":"a","size":6})");
  (void)service.handle(
      R"({"id":4,"op":"submit_job","session":"s","class":"c","size":5})");
  const std::string before =
      service.handle(R"({"id":5,"op":"snapshot","session":"s"})");
  EXPECT_NE(before.find("\"source\":\"resolve\""), std::string::npos);
  (void)service.handle(
      R"({"id":6,"op":"submit_job","session":"s","class":"b","size":4})");
  const std::string grown =
      service.handle(R"({"id":7,"op":"snapshot","session":"s"})");
  EXPECT_NE(grown.find("\"jobs\":3"), std::string::npos);
  // The cancel undoes the submit: the same alive jobs, the same bytes.
  (void)service.handle(R"({"id":8,"op":"cancel_job","session":"s","job":2})");
  const std::string after =
      service.handle(R"({"id":9,"op":"snapshot","session":"s"})");
  EXPECT_NE(after.find("\"id\":9"), std::string::npos);
  EXPECT_EQ(body_of(after), body_of(before));
  // Cancelling everything is the empty snapshot again.
  (void)service.handle(R"({"op":"cancel_job","session":"s","job":0})");
  (void)service.handle(R"({"op":"cancel_job","session":"s","job":1})");
  EXPECT_EQ(body_of(service.handle(R"({"id":2,"op":"snapshot","session":"s"})")),
            body_of(empty));
}

// A machine pool far beyond the session's classes must not size anything
// by m: the snapshot races on min(m, |C|) machines, echoes the session's
// own m, and the service keeps answering.
TEST(SessionService, HugeMachineCountIsAnsweredAndServiceSurvives) {
  Service service(session_service(1));
  (void)service.handle(
      R"({"op":"open_session","session":"s","machines":2000000000})");
  (void)service.handle(
      R"({"op":"submit_job","session":"s","class":"a","size":7})");
  (void)service.handle(
      R"({"op":"submit_job","session":"s","class":"b","size":3})");
  const std::string snap = service.handle(R"({"op":"snapshot","session":"s"})");
  EXPECT_NE(snap.find("\"ok\":true"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"valid\":true"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"machines\":2000000000"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"makespan\":7"), std::string::npos) << snap;
  EXPECT_NE(service.handle(R"({"op":"ping"})").find("\"ok\":true"),
            std::string::npos);
}

// ---------------- telemetry surface ----------------

TEST(SessionService, StatsOpAndMetricsCoverSessions) {
  Service service(session_service(2));
  (void)service.handle(R"({"op":"open_session","session":"s"})");
  (void)service.handle(
      R"({"op":"submit_job","session":"s","class":"a","size":2})");
  (void)service.handle(
      R"({"op":"submit_job","session":"s","class":"a","size":7})");
  (void)service.handle(R"({"op":"cancel_job","session":"s","job":0})");
  (void)service.handle(R"({"op":"snapshot","session":"s"})");

  const std::optional<Json> stats =
      json_parse(service.handle(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.has_value());
  const Json* sessions = stats->find("sessions");
  ASSERT_NE(sessions, nullptr);
  for (const char* key : {"active", "opened", "closed", "submits", "cancels",
                          "snapshots"})
    ASSERT_NE(sessions->find(key), nullptr) << key;
  EXPECT_EQ(sessions->find("active")->as_number(), 1.0);
  EXPECT_EQ(sessions->find("opened")->as_number(), 1.0);
  EXPECT_EQ(sessions->find("submits")->as_number(), 2.0);
  EXPECT_EQ(sessions->find("cancels")->as_number(), 1.0);
  EXPECT_EQ(sessions->find("snapshots")->as_number(), 1.0);

  (void)service.handle(R"({"op":"close_session","session":"s"})");
  const obs::MetricsSnapshot snapshot = service.metrics_snapshot();
  EXPECT_EQ(snapshot.counter_or("serve.session.closed"), 1u);
  EXPECT_EQ(snapshot.gauge_or("serve.session.active"), 0);
}

// ---------------- byte identity across shard counts ----------------

std::string serve_all(const std::string& input, unsigned shards) {
  Service service(session_service(shards));
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(serve_stdio(service, in, out), 0);
  return out.str();
}

// Emits the churn-trace request stream of a spec through the real driver
// path (`drive --churn --emit`).
std::string emit_churn(const std::string& spec) {
  const std::string path = ::testing::TempDir() + "msrs_churn_trace.jsonl";
  DriveOptions options;
  options.churn = spec;
  options.emit = path;
  std::string error;
  const std::optional<DriveReport> report = drive(options, &error);
  EXPECT_TRUE(report.has_value()) << error;
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

TEST(SessionServe, SnapshotBytesIdenticalAcrossShardCounts) {
  const std::string input = emit_churn(
      "poisson:events=120,classes=5,m=4,max=60,cancel=0.35,snap=6,seed=11");
  ASSERT_FALSE(input.empty());
  const std::string one = serve_all(input, 1);
  EXPECT_FALSE(one.empty());
  // Routing is by session name and a snapshot races only the session's
  // own alive jobs, so the full response stream is a pure function of the
  // mutation history, not of the shard layout.
  EXPECT_EQ(one, serve_all(input, 2));
  EXPECT_EQ(one, serve_all(input, 4));
  EXPECT_NE(one.find("\"source\":"), std::string::npos);
  EXPECT_EQ(one.find("\"ok\":false"), std::string::npos);  // clean replay
}

// ---------------- byte identity across transports ----------------

// Runs serve_tcp on an ephemeral loopback port in a background thread
// (same shape as the fixture in test_tcp.cpp).
class TcpChurnServer {
 public:
  explicit TcpChurnServer(ServiceOptions service_options)
      : service_(service_options) {
    std::promise<std::uint16_t> promise;
    std::future<std::uint16_t> future = promise.get_future();
    TcpOptions options;
    options.tick_ms = 20;
    options.on_listen = [&promise](std::uint16_t p) { promise.set_value(p); };
    thread_ = std::thread([this, options] {
      std::string error;
      code_ = serve_tcp(service_, "127.0.0.1:0", &error, options);
      error_ = error;
    });
    port_ = future.get();
  }
  ~TcpChurnServer() { stop(); }
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    request_stop();
    thread_.join();
    reset_stop();
    EXPECT_EQ(code_, 0) << error_;
  }
  std::string target() const { return "127.0.0.1:" + std::to_string(port_); }

 private:
  Service service_;
  std::thread thread_;
  std::uint16_t port_ = 0;
  int code_ = -1;
  std::string error_;
  bool stopped_ = false;
};

TEST(SessionServe, SnapshotBytesIdenticalAcrossTransports) {
  if (!tcp_transport_available())
    GTEST_SKIP() << "no TCP transport on this platform";
  const std::string spec =
      "onoff:events=80,classes=4,m=3,max=40,cancel=0.4,snap=8,blen=12,seed=9";
  // Reference: the same trace through the stdio transport.
  const std::string expected = serve_all(emit_churn(spec), 2);
  ASSERT_FALSE(expected.empty());

  // Live: `drive --churn --churn-out` against a TCP service. Connection 0
  // replays session "churn-0" — exactly the emitted stream.
  TcpChurnServer server(session_service(2));
  const std::string capture_path =
      ::testing::TempDir() + "msrs_churn_capture.jsonl";
  DriveOptions options;
  options.tcp = server.target();
  options.churn = spec;
  options.churn_out = capture_path;
  options.conns = 1;
  std::string error;
  const std::optional<DriveReport> report = drive(options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->transport_errors, 0u);
  server.stop();

  std::ifstream file(capture_path);
  std::stringstream captured;
  captured << file.rdbuf();
  std::remove(capture_path.c_str());
  EXPECT_EQ(captured.str(), expected);
}

// ---------------- admission fairness ----------------

TEST(SessionService, RejectModeShedsChurnBurstsByName) {
  ServiceOptions options = session_service(1);
  options.reject_when_full = true;
  options.session_queue_budget = 2;
  Service service(options);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"chatty"})")
                .find("\"ok\":true"),
            std::string::npos);
  // Occupy the single shard with one slow solve, then burst session
  // mutations: at most budget+1 can be queued/processing, the rest must be
  // shed with the named overloaded error — and every callback still fires.
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
  constexpr int kBurst = 24;
  for (int i = 0; i < kBurst; ++i)
    service.submit(
        R"({"op":"submit_job","session":"chatty","class":"a","size":1})",
        classify);
  EXPECT_TRUE(service.shutdown(std::chrono::seconds(60)));
  EXPECT_EQ(answered.load(), kBurst + 1);
  // With the shard busy, at most a couple of burst ops fit the budget; the
  // rest must be shed by name (>= 1 keeps this robust to scheduling luck).
  EXPECT_GE(overloaded.load(), 1);
}

TEST(SessionService, ChattySessionCannotStarveSolveTraffic) {
  // Blocking mode: the budget backpressures the chatty producer instead of
  // letting it occupy the whole shard queue, so concurrent solve traffic
  // keeps completing. The assertion is liveness: everything is answered
  // and the run terminates (with no gate, the producer could enqueue its
  // whole flood ahead of every solve).
  ServiceOptions options = session_service(1);
  options.session_queue_budget = 4;
  Service service(options);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"chatty"})")
                .find("\"ok\":true"),
            std::string::npos);
  std::atomic<int> session_answers{0};
  std::atomic<int> solve_ok{0};
  constexpr int kFlood = 200;
  std::thread chatty([&] {
    for (int i = 0; i < kFlood; ++i)
      service.submit(
          R"({"op":"submit_job","session":"chatty","class":"a","size":1})",
          [&](std::string&& response) {
            EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
            session_answers.fetch_add(1);
          });
  });
  for (int i = 0; i < 10; ++i)
    service.submit(
        R"({"op":"solve","spec":"uniform:n=20,m=4,seed=)" +
            std::to_string(i + 1) + "\"}",
        [&](std::string&& response) {
          if (response.find("\"ok\":true") != std::string::npos)
            solve_ok.fetch_add(1);
        });
  chatty.join();
  EXPECT_TRUE(service.shutdown(std::chrono::seconds(60)));
  EXPECT_EQ(session_answers.load(), kFlood);
  EXPECT_EQ(solve_ok.load(), 10);
}

}  // namespace
}  // namespace msrs::serve
