#include "workload.hpp"

#include <algorithm>
#include <utility>

#include "core/instance_io.hpp"
#include "sim/arrivals.hpp"
#include "sim/generator.hpp"
#include "sim/spec.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

// Requests per second of --seconds, sized so one run measures about that
// long on a 4-core x86 box (closed loop, 2 connections, 2 shards).
constexpr int kWarmPerSecond = 24000;
constexpr int kColdPerSecond = 3000;
// session_churn sessions (of 1000 churn events each) per connection and
// second; the seed range of one run's sessions is bounded by the maximum.
constexpr int kChurnSessionsPerSecond = 9;
constexpr int kMaxSessionsPerConnection = 100000;
// warm_hit replays this many distinct instances round-robin.
constexpr int kWarmDistinct = 64;
// Snapshots with at most this many alive jobs let the exact solver join
// the race (engine/registry.cpp: n <= 10), at up to ~165 ms each. Such
// snapshots (in practice a session's opening ones) are not sent.
constexpr std::size_t kExactMaxJobs = 10;

class RequestWriter {
 public:
  Request solve(const std::string& instance_text, int key) {
    msrs::Json line = msrs::Json::object();
    Request request = start(&line, "solve");
    line.set("instance", instance_text);
    request.key = key;
    request.line = line.str();
    return request;
  }

  Request session_op(const char* op, const std::string& session, Kind kind) {
    msrs::Json line = msrs::Json::object();
    Request request = start(&line, op);
    line.set("session", session);
    request.kind = kind;
    request.line = line.str();
    return request;
  }

  Request open(const std::string& session, int machines) {
    msrs::Json line = msrs::Json::object();
    Request request = start(&line, "open_session");
    line.set("session", session);
    line.set("machines", msrs::Json(static_cast<std::int64_t>(machines)));
    request.kind = Kind::kControl;
    request.line = line.str();
    return request;
  }

  Request submit(const std::string& session, int cls, msrs::Time size,
                 std::int64_t job) {
    msrs::Json line = msrs::Json::object();
    Request request = start(&line, "submit_job");
    line.set("session", session);
    line.set("class", std::string("c").append(std::to_string(cls)));
    line.set("size", msrs::Json(static_cast<std::int64_t>(size)));
    request.kind = Kind::kMutation;
    request.expect_job = job;
    request.line = line.str();
    return request;
  }

  Request cancel(const std::string& session, std::int64_t job) {
    msrs::Json line = msrs::Json::object();
    Request request = start(&line, "cancel_job");
    line.set("session", session);
    line.set("job", msrs::Json(job));
    request.kind = Kind::kMutation;
    request.line = line.str();
    return request;
  }

 private:
  Request start(msrs::Json* line, const char* op) {
    Request request;
    request.id = next_id_++;
    line->set("id", msrs::Json(request.id));
    line->set("op", op);
    return request;
  }

  std::int64_t next_id_ = 1;
};

std::string instance_text(const char* family_spec, std::uint64_t seed) {
  msrs::GeneratorSpec spec = *msrs::parse_spec(family_spec);
  spec.seed = seed;
  return msrs::to_text(msrs::generate(spec));
}

// First seed of a run's inputs: disjoint ranges per workload seed.
std::uint64_t seed_base(std::uint64_t seed) { return seed * 1'000'000 + 1; }

void make_warm_hit(std::uint64_t seed, int total, Workload* out) {
  RequestWriter writer;
  std::vector<std::string> texts;
  for (int i = 0; i < kWarmDistinct; ++i)
    texts.push_back(instance_text("uniform:n=32,m=4", seed_base(seed) + i));
  // Prewarm: every distinct instance once (setup), so the timed list is
  // served from the cache only.
  for (int i = 0; i < kWarmDistinct; ++i)
    out->conns[i % kConnections].setup.push_back(writer.solve(texts[i], i));
  for (int i = 0; i < total; ++i) {
    const int key = i % kWarmDistinct;
    out->conns[i % kConnections].timed.push_back(
        writer.solve(texts[key], key));
  }
}

void make_cold_solve(std::uint64_t seed, int total, Workload* out) {
  RequestWriter writer;
  for (int i = 0; i < total; ++i)
    out->conns[i % kConnections].timed.push_back(writer.solve(
        instance_text("lemma9_tight:n=200,m=16", seed_base(seed) + i), -1));
}

// Each connection replays a sequence of sessions, one open at a time, each
// a Poisson churn trace of 1000 events. A trace's alive set grows by ~0.4
// jobs per event, so one endless session would make the snapshot
// population a ramp whose median is sampled in one short stretch of the
// run; bounded sessions repeat the same mix through the whole window.
void make_session_churn(std::uint64_t seed, int sessions, Workload* out) {
  RequestWriter writer;
  for (int c = 0; c < kConnections; ++c) {
    ConnScript& script = out->conns[c];
    for (int k = 0; k < sessions; ++k) {
      std::string session = "churn-";
      session += std::to_string(c) + "-" + std::to_string(k);
      msrs::ChurnSpec spec = *msrs::parse_churn(
          "poisson:events=1000,classes=24,m=4,cancel=0.3,snap=10");
      spec.seed = seed_base(seed) + static_cast<std::uint64_t>(
                                        c * kMaxSessionsPerConnection + k);
      script.timed.push_back(writer.open(session, spec.machines));
      std::size_t alive = 0;
      for (const msrs::ChurnEvent& event : msrs::generate_churn(spec)) {
        switch (event.kind) {
          case msrs::ChurnEvent::Kind::kSubmit:
            script.timed.push_back(writer.submit(session, event.cls,
                                                 event.size, event.target));
            ++alive;
            break;
          case msrs::ChurnEvent::Kind::kCancel:
            script.timed.push_back(writer.cancel(session, event.target));
            --alive;
            break;
          case msrs::ChurnEvent::Kind::kSnapshot:
            if (alive > kExactMaxJobs)
              script.timed.push_back(
                  writer.session_op("snapshot", session, Kind::kSnapshot));
            break;
        }
      }
      script.timed.push_back(
          writer.session_op("close_session", session, Kind::kControl));
    }
  }
}

}  // namespace

bool answer_bearing(Kind kind) {
  return kind == Kind::kSolve || kind == Kind::kSnapshot;
}

bool make_workload(const std::string& name, std::uint64_t seed, int seconds,
                   bool tiny, Workload* out) {
  out->name = name;
  out->conns.assign(kConnections, ConnScript{});
  if (name == "warm_hit") {
    make_warm_hit(seed, tiny ? 2000 : kWarmPerSecond * seconds, out);
  } else if (name == "cold_solve") {
    make_cold_solve(seed, tiny ? 100 : kColdPerSecond * seconds, out);
  } else if (name == "session_churn") {
    make_session_churn(seed, tiny ? 2 : kChurnSessionsPerSecond * seconds,
                       out);
  } else {
    return false;
  }
  return true;
}

void inject_corrupt_request(Workload* workload) {
  std::int64_t max_id = 0;
  for (const ConnScript& script : workload->conns)
    for (const auto* phase : {&script.setup, &script.timed})
      for (const Request& request : *phase)
        max_id = std::max(max_id, request.id);
  Request bad;
  bad.id = max_id + 1;
  bad.kind = Kind::kSolve;
  msrs::Json line = msrs::Json::object();
  line.set("id", msrs::Json(bad.id));
  line.set("op", "solve");
  line.set("instance", "msrs 1\nmachines 0\nclasses 1\nclass 1 5\n");
  bad.line = line.str();
  std::vector<Request>& timed = workload->conns[0].timed;
  timed.insert(timed.begin() + static_cast<std::ptrdiff_t>(timed.size() / 2),
               std::move(bad));
}

}  // namespace perfbench
