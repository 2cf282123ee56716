#include "traced.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>

#include "algo/t_bound.hpp"
#include "check.hpp"
#include "core/instance_io.hpp"
#include "core/validate.hpp"
#include "engine/batch.hpp"
#include "engine/portfolio.hpp"
#include "engine/registry.hpp"
#include "engine/session.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace perfbench {
namespace {

namespace engine = msrs::engine;
namespace serve = msrs::serve;

// The served configuration: `msrs_engine_cli serve` uses the CLI's
// portfolio budget of 100 ms and the ServiceOptions defaults for everything
// but the shard count.
constexpr int kBudgetMs = 100;

// How much of each workload the traced replay covers. Per-layer metrics
// carry no bound, so a prefix of the fixed list is enough.
std::size_t replay_limit(const std::string& workload, bool tiny) {
  if (workload == "warm_hit") return tiny ? 1000 : 20000;
  if (workload == "cold_solve") return tiny ? 60 : 600;
  return tiny ? SIZE_MAX : 40000;
}

// session_churn: the solve layers are decomposed on every this-many-th
// timed snapshot.
constexpr std::int64_t kDecomposeEvery = 4;

enum class Layer : std::uint8_t {
  kRequest,
  kWireParse,
  kInstanceParse,
  kCanonical,
  kPortfolio,
  kParts,
  kTBound,
  kCandidates,
  kAlgo,
  kValidate,
  kRender,
  kCompose,
  kHandle,
  kSessionSnapshot,
  kSessionInputs,
};

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kWireParse: return "wire.parse_request";
    case Layer::kInstanceParse: return "instance_io.from_text";
    case Layer::kCanonical: return "batch.canonical_form";
    case Layer::kPortfolio: return "portfolio.solve";
    case Layer::kParts: return "portfolio.parts";
    case Layer::kTBound: return "t_bound.three_halves_bound";
    case Layer::kCandidates: return "portfolio.candidates";
    case Layer::kAlgo: return "solver.solve";
    case Layer::kValidate: return "validate.validate";
    case Layer::kRender: return "wire.render";
    case Layer::kCompose: return "wire.compose_response";
    case Layer::kHandle: return "service.handle";
    case Layer::kSessionSnapshot: return "session.snapshot";
    case Layer::kSessionInputs: return "session.inputs";
  }
  return "?";
}

// One span: a timed call into a layer. Spans of one request share its id;
// `parent` indexes the enclosing span (-1 for a root).
struct Span {
  std::int64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  Layer layer = Layer::kRequest;
  std::string solver;  // kAlgo / kValidate: the candidate
};

// Spans kept in memory during the replay, written out at the end.
class SpanLog {
 public:
  std::int32_t open(std::int64_t request, Layer layer, std::int32_t parent,
                    std::string solver = {}) {
    spans_.push_back(Span{request, now_ns(), 0, parent, layer,
                          std::move(solver)});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  // Ends a span; returns its duration in microseconds.
  double close(std::int32_t span) {
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  template <class F>
  double time(std::int64_t request, Layer layer, std::int32_t parent, F&& f,
              std::string solver = {}) {
    const std::int32_t span = open(request, layer, parent, std::move(solver));
    f();
    return close(span);
  }
  std::size_t size() const { return spans_.size(); }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      msrs::Json line = msrs::Json::object();
      line.set("req", msrs::Json(s.request));
      line.set("layer", layer_name(s.layer));
      if (!s.solver.empty()) line.set("solver", s.solver);
      line.set("start_ns", msrs::Json(s.start_ns));
      line.set("end_ns", msrs::Json(s.end_ns));
      line.set("parent", msrs::Json(static_cast<std::int64_t>(s.parent)));
      out << line.str() << '\n';
    }
    out.close();
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// What a replayed session op contributes to the samples.
enum class Phase {
  kUntimed,  // setup and session open/close: replayed, not sampled
  kPath,     // session_churn's timed ops: the answer-bearing path
  kInputs,   // a solve workload's instance replayed as a session
};

// The timed lists of all connections, interleaved request by request, up
// to `limit` requests.
std::vector<const Request*> timed_order(const Workload& workload,
                                        std::size_t limit) {
  std::vector<const Request*> order;
  for (std::size_t i = 0; order.size() < limit; ++i) {
    bool any = false;
    for (const ConnScript& script : workload.conns)
      if (i < script.timed.size() && order.size() < limit) {
        order.push_back(&script.timed[i]);
        any = true;
      }
    if (!any) break;
  }
  return order;
}

// Raw per-call samples, in microseconds unless named otherwise.
struct Samples {
  // On the path of the answer-bearing requests, one sample per request.
  std::vector<double> wire_parse, instance_parse, canonical, compose, render,
      portfolio, handle, residual, session_snapshot;
  // Per-call costs of the solve layers on the workload's solve inputs;
  // `parts` is one race's t_bound + candidates + solves + validations.
  std::vector<double> t_bound, candidates, validate, parts;
  std::map<std::string, std::vector<double>> algo;
  std::map<std::string, std::int64_t> wins;
  std::vector<double> mutation_handle;
  std::int64_t races = 0, race_attempts = 0;
  double winner_us = 0.0, candidate_us = 0.0;
  double response_bytes = 0.0, instance_bytes = 0.0;
  std::int64_t responses = 0, instances = 0;
};

class Replay {
 public:
  Replay(const Workload& workload, bool tiny)
      : workload_(workload), tiny_(tiny), service_(service_options()) {
    engine::PortfolioOptions options;
    options.budget_ms = kBudgetMs;
    options.threads = 1;
    options.metrics = &metrics_;
    portfolio_ = std::make_unique<engine::PortfolioSolver>(
        engine::SolverRegistry::default_registry(), options);
  }

  static serve::ServiceOptions service_options() {
    serve::ServiceOptions options;
    options.shards = kShards;
    options.budget_ms = kBudgetMs;
    return options;
  }

  void run();
  void fill(TracedResult* result) const;
  const SpanLog& spans() const { return spans_; }
  const Checker& checker() const { return checker_; }

 private:
  std::string handle(const Request& request, bool timed, double* us,
                     std::int32_t parent);
  std::string solve_layers(const msrs::Instance& instance, const msrs::Json& id,
                           std::int64_t request, std::int32_t parent,
                           double* path_us = nullptr);
  void replay_solve(const Request& request, bool warm);
  void replay_session_op(const Request& request, Phase phase);
  void session_inputs(const msrs::Instance& instance, int index);

  const Workload& workload_;
  bool tiny_;
  serve::Service service_;
  msrs::obs::MetricsRegistry metrics_;
  std::unique_ptr<engine::PortfolioSolver> portfolio_;
  SpanLog spans_;
  Checker checker_;
  Samples s_;
  std::map<int, std::string> warm_tails_;  // warm_hit: key -> cached tail
  std::map<std::string, std::unique_ptr<engine::SessionEngine>> mirrors_;
  double hit_ratio_ = 0.0;
  double cache_entries_ = 0.0;
  double wall_s_ = 0.0;
  std::int64_t replayed_ = 0;
  std::int64_t path_snapshots_ = 0;
};

std::string Replay::handle(const Request& request, bool timed, double* us,
                           std::int32_t parent) {
  std::string response;
  *us = spans_.time(request.id, Layer::kHandle, parent,
                    [&] { response = service_.handle(request.line); });
  checker_.check(request, response, false, timed);
  return response;
}

// PortfolioSolver::solve, and its parts called one by one on the same
// instance: the Lemma-9 bound, the candidate selection, every candidate's
// Solver::solve and the validation of each schedule. Whichever side runs
// second finds the code and data warm, so the order alternates per race.
// Also renders the miss-path response; `path_us`, when given, receives the
// miss path's share: the race plus the render.
std::string Replay::solve_layers(const msrs::Instance& instance,
                                 const msrs::Json& id, std::int64_t request,
                                 std::int32_t parent, double* path_us) {
  engine::PortfolioResult result;
  double portfolio_us = 0.0;
  const auto race = [&] {
    portfolio_us = spans_.time(request, Layer::kPortfolio, parent,
                               [&] { result = portfolio_->solve(instance); });
  };
  std::vector<std::pair<std::string, double>> candidate_us;
  double parts_us = 0.0;
  const auto parts = [&] {
    const std::int32_t span = spans_.open(request, Layer::kParts, parent);
    const double t_bound_us = spans_.time(request, Layer::kTBound, span, [&] {
      volatile msrs::Time t = msrs::three_halves_bound(instance);
      (void)t;
    });
    s_.t_bound.push_back(t_bound_us);
    std::vector<const engine::Solver*> candidates;
    const double select_us = spans_.time(
        request, Layer::kCandidates, span,
        [&] { candidates = portfolio_->candidates(instance); });
    s_.candidates.push_back(select_us);
    parts_us = t_bound_us + select_us;
    for (const engine::Solver* solver : candidates) {
      const std::string name(solver->name());
      engine::SolverResult run;
      const double algo_us = spans_.time(
          request, Layer::kAlgo, span, [&] { run = solver->solve(instance); },
          name);
      s_.algo[name].push_back(algo_us);
      candidate_us.emplace_back(name, algo_us);
      parts_us += algo_us;
      if (!run.ok || !run.schedule.complete()) continue;
      const double validate_us = spans_.time(
          request, Layer::kValidate, span,
          [&] {
            volatile bool ok = msrs::validate(instance, run.schedule).ok();
            (void)ok;
          },
          name);
      s_.validate.push_back(validate_us);
      parts_us += validate_us;
    }
    spans_.close(span);
  };
  if (s_.races % 2 == 0) {
    race();
    parts();
  } else {
    parts();
    race();
  }
  ++s_.races;
  s_.race_attempts += static_cast<std::int64_t>(result.attempts.size());
  ++s_.wins[result.solver];
  s_.portfolio.push_back(portfolio_us);
  s_.parts.push_back(parts_us);
  for (const auto& [name, us] : candidate_us) {
    s_.candidate_us += us;
    if (name == result.solver) s_.winner_us += us;
  }

  std::string response;
  const double render_us = spans_.time(request, Layer::kRender, parent, [&] {
    response = serve::compose_response(id, serve::solve_response_tail(result));
  });
  s_.render.push_back(render_us);
  if (path_us != nullptr) *path_us = portfolio_us + render_us;
  return response;
}

void Replay::replay_solve(const Request& request, bool warm) {
  const std::int32_t root = spans_.open(request.id, Layer::kRequest, -1);
  std::optional<serve::Request> parsed;
  const double parse_us = spans_.time(request.id, Layer::kWireParse, root, [&] {
    parsed = serve::parse_request(request.line);
  });
  std::optional<msrs::Instance> instance;
  const double instance_us =
      spans_.time(request.id, Layer::kInstanceParse, root,
                  [&] { instance = msrs::from_text(parsed->instance); });
  if (!instance) {  // the corrupted line of the self-test
    double handle_us = 0.0;
    handle(request, true, &handle_us, root);
    spans_.close(root);
    return;
  }
  engine::CanonicalForm form;
  const double canonical_us =
      spans_.time(request.id, Layer::kCanonical, root,
                  [&] { form = engine::canonical_form(*instance); });
  double path_us = parse_us + instance_us + canonical_us;
  if (warm) {
    std::string response;
    const double compose_us =
        spans_.time(request.id, Layer::kCompose, root, [&] {
          response =
              serve::compose_response(parsed->id, warm_tails_[request.key]);
        });
    s_.compose.push_back(compose_us);
    path_us += compose_us;
  } else {
    double miss_us = 0.0;
    const std::string rendered =
        solve_layers(*instance, parsed->id, request.id, root, &miss_us);
    path_us += miss_us;
    // Off the miss path (render includes it): compose alone, on this tail.
    const std::string tail(rendered.substr(rendered.find(',')));
    s_.compose.push_back(spans_.time(request.id, Layer::kCompose, root, [&] {
      (void)serve::compose_response(parsed->id, tail);
    }));
  }
  double handle_us = 0.0;
  const std::string response = handle(request, true, &handle_us, root);
  spans_.close(root);
  s_.wire_parse.push_back(parse_us);
  s_.instance_parse.push_back(instance_us);
  s_.canonical.push_back(canonical_us);
  s_.handle.push_back(handle_us);
  s_.residual.push_back(handle_us - path_us);
  s_.response_bytes += static_cast<double>(response.size());
  s_.instance_bytes += static_cast<double>(parsed->instance.size());
  ++s_.responses;
  ++s_.instances;
}

// A churn op: the mirror session engine (called directly) and the service
// (through Service::handle) see the same op sequence.
void Replay::replay_session_op(const Request& request, Phase phase) {
  const bool timed = phase != Phase::kUntimed;
  const std::int32_t root = spans_.open(request.id, Layer::kRequest, -1);
  std::optional<serve::Request> parsed;
  const double parse_us = spans_.time(request.id, Layer::kWireParse, root, [&] {
    parsed = serve::parse_request(request.line);
  });
  auto& mirror = mirrors_[parsed->session];
  double handle_us = 0.0;
  switch (parsed->op) {
    case serve::Op::kOpenSession: {
      engine::SessionOptions options;
      options.portfolio = portfolio_->options();
      mirror = std::make_unique<engine::SessionEngine>(
          parsed->machines, engine::SolverRegistry::default_registry(),
          options);
      handle(request, timed, &handle_us, root);
      break;
    }
    case serve::Op::kSubmitJob:
    case serve::Op::kCancelJob:
      if (parsed->op == serve::Op::kSubmitJob)
        mirror->submit(parsed->job_class, parsed->size);
      else
        mirror->cancel(static_cast<std::uint64_t>(parsed->job));
      handle(request, timed, &handle_us, root);
      if (timed) s_.mutation_handle.push_back(handle_us);
      break;
    case serve::Op::kSnapshot: {
      const engine::SessionSnapshot* snap = nullptr;
      const double snapshot_us = spans_.time(
          request.id, Layer::kSessionSnapshot, root,
          [&] { snap = &mirror->snapshot(); });
      const std::string response = handle(request, timed, &handle_us, root);
      if (phase == Phase::kInputs) s_.session_snapshot.push_back(snapshot_us);
      if (phase != Phase::kPath) break;
      s_.wire_parse.push_back(parse_us);
      s_.session_snapshot.push_back(snapshot_us);
      s_.handle.push_back(handle_us);
      s_.residual.push_back(handle_us - parse_us - snapshot_us);
      s_.response_bytes += static_cast<double>(response.size());
      ++s_.responses;
      // The solve layers on the snapshot's materialized instance: what
      // the session's re-solve costs layer by layer, on every
      // kDecomposeEvery-th snapshot (each decomposition costs two races).
      if (path_snapshots_++ % (tiny_ ? 1 : kDecomposeEvery) != 0) break;
      const std::int32_t inputs =
          spans_.open(request.id, Layer::kSessionInputs, root);
      const std::string text = msrs::to_text(snap->instance);
      std::optional<msrs::Instance> instance;
      s_.instance_parse.push_back(
          spans_.time(request.id, Layer::kInstanceParse, inputs,
                      [&] { instance = msrs::from_text(text); }));
      s_.instance_bytes += static_cast<double>(text.size());
      ++s_.instances;
      s_.canonical.push_back(
          spans_.time(request.id, Layer::kCanonical, inputs,
                      [&] { (void)engine::canonical_form(*instance); }));
      const std::string rendered =
          solve_layers(*instance, parsed->id, request.id, inputs);
      const std::string tail(rendered.substr(rendered.find(',')));
      s_.compose.push_back(spans_.time(
          request.id, Layer::kCompose, inputs,
          [&] { (void)serve::compose_response(parsed->id, tail); }));
      spans_.close(inputs);
      break;
    }
    case serve::Op::kCloseSession:
      handle(request, timed, &handle_us, root);
      mirrors_.erase(parsed->session);
      break;
    default:
      handle(request, timed, &handle_us, root);
      break;
  }
  spans_.close(root);
}

// The session layer on a solve workload's inputs: one instance delivered
// as a session (every job submitted through Service::handle), then one
// snapshot of the mirror engine and of the service session.
void Replay::session_inputs(const msrs::Instance& instance, int index) {
  const std::string session =
      std::string("inputs-").append(std::to_string(index));
  std::int64_t id = 1'000'000'000 + index * 100'000;
  const auto op = [&](msrs::Json line, Kind kind) {
    Request request;
    request.id = id++;
    request.kind = kind;
    line.set("id", msrs::Json(request.id));
    line.set("session", session);
    request.line = line.str();
    return request;
  };
  const auto with_op = [](const char* name) {
    msrs::Json line = msrs::Json::object();
    line.set("op", name);
    return line;
  };
  msrs::Json open = with_op("open_session");
  open.set("machines",
           msrs::Json(static_cast<std::int64_t>(instance.machines())));
  replay_session_op(op(open, Kind::kControl), Phase::kUntimed);
  for (msrs::ClassId c = 0; c < instance.num_classes(); ++c)
    for (const msrs::JobId j : instance.class_jobs(c)) {
      msrs::Json submit = with_op("submit_job");
      submit.set("class", std::string("c").append(std::to_string(c)));
      submit.set("size",
                 msrs::Json(static_cast<std::int64_t>(instance.size(j))));
      replay_session_op(op(submit, Kind::kMutation), Phase::kInputs);
    }
  replay_session_op(op(with_op("snapshot"), Kind::kSnapshot), Phase::kInputs);
  replay_session_op(op(with_op("close_session"), Kind::kControl),
                    Phase::kUntimed);
}

void Replay::run() {
  const std::int64_t begin = now_ns();
  const bool churn = workload_.name == "session_churn";
  const bool warm = workload_.name == "warm_hit";
  double ignored = 0.0;
  for (const ConnScript& script : workload_.conns)
    for (const Request& request : script.setup) {
      if (churn) {
        replay_session_op(request, Phase::kUntimed);
        continue;
      }
      const std::string response = handle(request, false, &ignored, -1);
      warm_tails_[request.key] = response.substr(response.find(','));
    }

  const serve::ServiceStats before = service_.stats();
  const std::vector<const Request*> order =
      timed_order(workload_, replay_limit(workload_.name, tiny_));
  for (const Request* request : order) {
    if (churn)
      replay_session_op(*request, Phase::kPath);
    else
      replay_solve(*request, warm);
  }
  const serve::ServiceStats after = service_.stats();
  replayed_ = static_cast<std::int64_t>(order.size());
  const double probes = static_cast<double>(
      (after.cache_hits - before.cache_hits) +
      (after.cache_misses - before.cache_misses));
  hit_ratio_ = probes == 0.0 ? 0.0
                             : static_cast<double>(after.cache_hits -
                                                   before.cache_hits) /
                                   probes;
  cache_entries_ = static_cast<double>(after.cache_entries);

  if (warm) {
    // The hit path never reaches the solver; its layers are measured on
    // the distinct instances the cache holds (what a miss would cost).
    const int rounds = tiny_ ? 1 : 4;
    for (int round = 0; round < rounds; ++round)
      for (const ConnScript& script : workload_.conns)
        for (const Request& request : script.setup) {
          const auto parsed = serve::parse_request(request.line);
          const auto instance = msrs::from_text(parsed->instance);
          solve_layers(*instance, parsed->id, request.id, -1);
        }
  }
  if (!churn) {
    const std::size_t sessions = warm ? 8 : 2;
    for (std::size_t i = 0; i < sessions && i < order.size(); ++i) {
      const auto parsed = serve::parse_request(order[i]->line);
      if (const auto instance = msrs::from_text(parsed->instance))
        session_inputs(*instance, static_cast<int>(i));
    }
  }
  wall_s_ = static_cast<double>(now_ns() - begin) / 1e9;
}

void Replay::fill(TracedResult* result) const {
  Metrics& m = result->layers;
  m.set("wire.parse_us", median(s_.wire_parse));
  m.set("wire.compose_us", median(s_.compose));
  m.set("wire.render_us", median(s_.render));
  const auto per = [](double total, std::int64_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  };
  m.set("wire.resp_bytes", per(s_.response_bytes, s_.responses));
  m.set("instance.parse_us", median(s_.instance_parse));
  m.set("instance.bytes", per(s_.instance_bytes, s_.instances));
  m.set("engine.canonical_us", median(s_.canonical));
  m.set("service.handle_us", median(s_.handle));
  m.set("service.residual_us", median(s_.residual));
  m.set("service.cache_hit_ratio", hit_ratio_);
  m.set("service.cache_entries", cache_entries_);
  m.set("engine.portfolio_us", median(s_.portfolio));
  m.set("engine.race_attempts",
        per(static_cast<double>(s_.race_attempts), s_.races));
  m.set("engine.race_useful_share",
        s_.candidate_us == 0.0 ? 0.0 : s_.winner_us / s_.candidate_us);
  for (const auto& registered :
       engine::SolverRegistry::default_registry().solvers()) {
    const std::string solver(registered->name());
    const auto times = s_.algo.find(solver);
    m.set("algo." + solver + "_us",
          times == s_.algo.end() ? 0.0 : median(times->second));
    const auto wins = s_.wins.find(solver);
    m.set("algo." + solver + ".win_share",
          wins == s_.wins.end()
              ? 0.0
              : per(static_cast<double>(wins->second), s_.races));
  }
  m.set("algo.t_bound_us", median(s_.t_bound));
  m.set("engine.candidates_us", median(s_.candidates));
  m.set("validate_us", median(s_.validate));
  m.set("session.mutation_p50_us", median(s_.mutation_handle));
  m.set("session.snapshot_p50_us", median(s_.session_snapshot));
  m.set("session.repair_share", per(static_cast<double>(checker_.repairs()),
                                     checker_.snapshots()));

  // Sum check 1: the answer-bearing path.
  const bool churn = workload_.name == "session_churn";
  const bool warm = workload_.name == "warm_hit";
  double path = m.get("wire.parse_us") + m.get("service.residual_us");
  std::string terms = "wire.parse_us";
  if (churn) {
    path += m.get("session.snapshot_p50_us");
    terms += " + session.snapshot_p50_us";
  } else {
    path += m.get("instance.parse_us") + m.get("engine.canonical_us");
    terms += " + instance.parse_us + engine.canonical_us";
    if (warm) {
      path += m.get("wire.compose_us");
      terms += " + wire.compose_us";
    } else {
      path += m.get("engine.portfolio_us") + m.get("wire.render_us");
      terms += " + engine.portfolio_us + wire.render_us";
    }
  }
  terms += " + service.residual_us";
  const double handle = m.get("service.handle_us");
  const double path_error =
      handle == 0.0 ? 1.0 : std::abs(path - handle) / handle;
  const bool path_ok = path_error <= kPathTolerance;
  char line[512];
  std::snprintf(line, sizeof line,
                "%s path: %s = %.3f us vs service.handle_us = %.3f us "
                "(off by %.1f%%, tolerance %.0f%%)",
                path_ok ? "PASS" : "FAIL", terms.c_str(), path, handle,
                path_error * 100.0, kPathTolerance * 100.0);
  result->sum_checks.push_back(line);

  // Sum check 2: the portfolio race against its parts, per race.
  const double race = median(s_.portfolio);
  const double parts = median(s_.parts);
  const double parts_error = race == 0.0 ? 1.0 : std::abs(parts - race) / race;
  const bool parts_ok = parts_error <= kPortfolioTolerance;
  std::snprintf(line, sizeof line,
                "%s portfolio: t_bound + candidates + sum(algo) + "
                "sum(validate) = %.3f us vs engine.portfolio_us = %.3f us, "
                "medians over %zu races (off by %.1f%%, tolerance %.0f%%)",
                parts_ok ? "PASS" : "FAIL", parts, race, s_.parts.size(),
                parts_error * 100.0, kPortfolioTolerance * 100.0);
  result->sum_checks.push_back(line);
  result->sums_ok = path_ok && parts_ok;

  Metrics& r = result->replay;
  r.set("replayed_requests", static_cast<double>(replayed_));
  r.set("traced_wall_s", wall_s_);
  r.set("traced_handle_p50_us", median(s_.handle));
}

// The in-process replay without tracing: the same setup and timed prefix,
// Service::handle only. Its per-request handle time against the traced
// replay's shows what the outside layer calls and the spans cost.
void untraced_replay(const Workload& workload,
                     const std::vector<const Request*>& order, Metrics* out) {
  serve::Service service(Replay::service_options());
  std::vector<double> handle_us;
  const bool churn = workload.name == "session_churn";
  const std::int64_t begin = now_ns();
  for (const ConnScript& script : workload.conns)
    for (const Request& request : script.setup)
      (void)service.handle(request.line);
  for (const Request* request : order) {
    const std::int64_t start = now_ns();
    (void)service.handle(request->line);
    const double us = static_cast<double>(now_ns() - start) / 1e3;
    if (!churn || request->kind == Kind::kSnapshot) handle_us.push_back(us);
  }
  out->set("untraced_wall_s", static_cast<double>(now_ns() - begin) / 1e9);
  out->set("untraced_handle_p50_us", median(handle_us));
}

}  // namespace

TracedResult run_traced(const Workload& full, const TracedOptions& options) {
  TracedResult result;
  // session_churn's sessions are independent and each replays in full:
  // connection 0's session stands for both.
  Workload workload = full;
  if (workload.name == "session_churn") workload.conns.resize(1);
  auto replay = std::make_unique<Replay>(workload, options.tiny);
  replay->run();
  replay->fill(&result);
  const Checker& checker = replay->checker();
  result.attempted = checker.attempted();
  result.failed = checker.failed();
  result.failures_by_code = checker.failures_by_code();
  result.failure_examples = checker.examples();
  result.spans = replay->spans().size();
  // What recording one span costs (two clock reads and an append), and so
  // what the spans add to each replayed request.
  {
    constexpr int kProbes = 100000;
    SpanLog probe;
    const std::int64_t begin = now_ns();
    for (int i = 0; i < kProbes; ++i)
      probe.time(i, Layer::kRequest, -1, [] {});
    const double span_ns = static_cast<double>(now_ns() - begin) / kProbes;
    const double per_request =
        static_cast<double>(result.spans) /
        std::max(1.0, result.replay.get("replayed_requests"));
    result.replay.set("span_cost_ns", span_ns);
    result.replay.set("spans_per_request", per_request);
    result.replay.set("span_overhead_us_per_request",
                      span_ns * per_request / 1e3);
  }
  if (!options.spans_path.empty() &&
      !replay->spans().write(options.spans_path))
    result.fatal = "cannot write spans to " + options.spans_path;

  replay.reset();
  const std::size_t limit = replay_limit(workload.name, options.tiny);
  untraced_replay(workload, timed_order(workload, limit), &result.replay);
  return result;
}

}  // namespace perfbench
