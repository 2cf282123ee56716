#include "serve/service.hpp"

#include <fstream>
#include <future>
#include <utility>

#include "core/instance_io.hpp"
#include "sim/workloads.hpp"

namespace msrs::serve {
namespace {

// Lifecycle-stage histogram names, in decomposition order.
constexpr const char* kStageNames[] = {"admission", "queue", "solve", "write",
                                       "total"};

std::string stage_metric(std::string_view stage) {
  return "serve.latency." + std::string(stage) + "_us";
}

Json count_json(std::size_t v) { return Json(static_cast<std::int64_t>(v)); }

// FNV-1a over the session name: the shard placement of a session. Any
// stable hash works (placement is invisible in response bytes); it only has
// to keep one session's ops on one shard.
std::uint64_t session_hash(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// The dump_recorder response: dump meta plus every merged event, rendered
// as ONE JSON document (the JSONL transport frames responses by line).
std::string dump_recorder_response(const Json& id,
                                   const obs::FlightRecorder& recorder,
                                   bool canonical) {
  const obs::FlightRecorder::Dump dump = recorder.collect(canonical);
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", true);
  response.set("op", std::string("dump_recorder"));
  response.set("canonical", canonical);
  response.set("events", count_json(dump.events.size()));
  response.set("dropped", count_json(static_cast<std::size_t>(dump.dropped)));
  Json entries = Json::array();
  for (const obs::RecorderEvent& event : dump.events)
    entries.push_back(recorder.event_json(event, canonical));
  response.set("entries", std::move(entries));
  return response.str();
}

// The legacy counter-only body shared by both stats_response overloads.
Json stats_body(const Json& id, const ServiceStats& stats) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", true);
  response.set("shards", count_json(stats.shards));
  response.set("received", count_json(stats.received));
  response.set("responded", count_json(stats.responded));
  response.set("rejected", count_json(stats.rejected));
  response.set("errors", count_json(stats.errors));
  response.set("solved", count_json(stats.solved));
  response.set("cache_hits", count_json(stats.cache_hits));
  response.set("cache_misses", count_json(stats.cache_misses));
  response.set("cache_evictions", count_json(stats.cache_evictions));
  response.set("cache_entries", count_json(stats.cache_entries));
  return response;
}

}  // namespace

std::string stats_response(const Json& id, const ServiceStats& stats) {
  return stats_body(id, stats).str();
}

std::string stats_response(const Json& id, const ServiceStats& stats,
                           const obs::MetricsSnapshot& snapshot) {
  Json response = stats_body(id, stats);

  Json depths = Json::array();
  for (const std::size_t d : stats.queue_depths) depths.push_back(count_json(d));
  response.set("queue_depths", std::move(depths));

  Json per_shard = Json::array();
  for (const std::size_t r : stats.shard_requests)
    per_shard.push_back(count_json(r));
  response.set("shard_requests", std::move(per_shard));

  Json errors_by_code = Json::object();
  for (const WireError code : kAllWireErrors) {
    const std::string name(wire_error_name(code));
    errors_by_code.set(name, count_json(snapshot.counter_or(
                                 "serve.errors." + name)));
  }
  response.set("errors_by_code", std::move(errors_by_code));

  Json solver_wins = Json::object();
  constexpr std::string_view kWinPrefix = "engine.race_win.";
  for (const auto& [name, value] : snapshot.counters)
    if (name.size() > kWinPrefix.size() &&
        std::string_view(name).substr(0, kWinPrefix.size()) == kWinPrefix)
      solver_wins.set(name.substr(kWinPrefix.size()), count_json(value));
  response.set("solver_wins", std::move(solver_wins));

  Json conns = Json::object();
  conns.set("accepted", count_json(snapshot.counter_or("serve.conns.accepted")));
  conns.set("rejected", count_json(snapshot.counter_or("serve.conns.rejected")));
  conns.set("active", Json(snapshot.gauge_or("serve.conns.active")));
  response.set("conns", std::move(conns));

  Json tcp = Json::object();
  tcp.set("accepted", count_json(snapshot.counter_or("serve.tcp.accepted")));
  tcp.set("shed", count_json(snapshot.counter_or("serve.tcp.shed")));
  tcp.set("idle_reaped",
          count_json(snapshot.counter_or("serve.tcp.idle_reaped")));
  tcp.set("active", Json(snapshot.gauge_or("serve.tcp.active")));
  tcp.set("read_buf_highwater",
          Json(snapshot.gauge_or("serve.tcp.read_buf_highwater")));
  tcp.set("write_buf_highwater",
          Json(snapshot.gauge_or("serve.tcp.write_buf_highwater")));
  response.set("tcp", std::move(tcp));

  Json sessions = Json::object();
  sessions.set("active", Json(snapshot.gauge_or("serve.session.active")));
  sessions.set("opened",
               count_json(snapshot.counter_or("serve.session.opened")));
  sessions.set("closed",
               count_json(snapshot.counter_or("serve.session.closed")));
  sessions.set("submits",
               count_json(snapshot.counter_or("serve.session.submits")));
  sessions.set("cancels",
               count_json(snapshot.counter_or("serve.session.cancels")));
  sessions.set("snapshots",
               count_json(snapshot.counter_or("serve.session.snapshots")));
  response.set("sessions", std::move(sessions));

  Json latency = Json::object();
  for (const char* stage : kStageNames) {
    const obs::Histogram::Snapshot* h =
        snapshot.histogram(stage_metric(stage));
    if (h == nullptr) continue;
    Json entry = Json::object();
    entry.set("count", count_json(h->count));
    entry.set("p50_us", h->quantile(0.50));
    entry.set("p95_us", h->quantile(0.95));
    entry.set("p99_us", h->quantile(0.99));
    entry.set("mean_us", h->mean());
    latency.set(stage, std::move(entry));
  }
  response.set("latency", std::move(latency));

  // Appended last so earlier consumers' key order is untouched.
  response.set("uptime_seconds",
               Json(snapshot.gauge_or("serve.uptime_seconds")));
  Json build = Json::object();
  for (const auto& [key, value] : build_info_labels()) build.set(key, value);
  response.set("build_info", std::move(build));
  return response.str();
}

Service::Service(ServiceOptions options,
                 const engine::SolverRegistry& registry)
    : options_(std::move(options)),
      registry_(&registry),
      tracer_(std::make_unique<obs::Tracer>(options_.trace)),
      pool_(options_.shards == 0 ? std::thread::hardware_concurrency()
                                 : options_.shards) {
  // Pre-register every exposed metric so the stats key set is stable from
  // the first snapshot, and resolve the hot-path handles once.
  received_c_ = &metrics_.counter("serve.received");
  responded_c_ = &metrics_.counter("serve.responded");
  rejected_c_ = &metrics_.counter("serve.rejected");
  errors_c_ = &metrics_.counter("serve.errors");
  for (const WireError code : kAllWireErrors)
    error_code_c_.push_back(&metrics_.counter(
        "serve.errors." + std::string(wire_error_name(code))));
  lat_admission_ = &metrics_.histogram(stage_metric("admission"));
  lat_queue_ = &metrics_.histogram(stage_metric("queue"));
  lat_solve_ = &metrics_.histogram(stage_metric("solve"));
  lat_write_ = &metrics_.histogram(stage_metric("write"));
  lat_total_ = &metrics_.histogram(stage_metric("total"));
  metrics_.counter("serve.conns.accepted");
  metrics_.counter("serve.conns.rejected");
  metrics_.gauge("serve.conns.active");
  metrics_.counter("serve.tcp.accepted");
  metrics_.counter("serve.tcp.shed");
  metrics_.counter("serve.tcp.idle_reaped");
  metrics_.gauge("serve.tcp.active");
  metrics_.gauge("serve.tcp.read_buf_highwater");
  metrics_.gauge("serve.tcp.write_buf_highwater");
  session_opened_c_ = &metrics_.counter("serve.session.opened");
  session_closed_c_ = &metrics_.counter("serve.session.closed");
  session_submits_c_ = &metrics_.counter("serve.session.submits");
  session_cancels_c_ = &metrics_.counter("serve.session.cancels");
  session_snapshots_c_ = &metrics_.counter("serve.session.snapshots");
  session_active_g_ = &metrics_.gauge("serve.session.active");
  uptime_g_ = &metrics_.gauge("serve.uptime_seconds");
  start_ = obs::TraceClock::now();

  // Monitoring: the watchdog is always constructed (its obs.watchdog.*
  // counters are part of the stable key set); the recorder is optional.
  watchdog_ = std::make_unique<obs::Watchdog>(options_.watchdog, metrics_);
  if (options_.recorder_events > 0) {
    obs::RecorderOptions recorder_options;
    recorder_options.capacity = options_.recorder_events;
    recorder_ = std::make_unique<obs::FlightRecorder>(recorder_options);
    // Pre-intern every label the hot path may attach, so record() callers
    // never touch the intern lock.
    error_label_.reserve(std::size(kAllWireErrors));
    for (const WireError code : kAllWireErrors)
      error_label_.push_back(recorder_->intern(wire_error_name(code)));
    for (const std::string& solver : registry.names())
      solver_label_.emplace(solver, recorder_->intern(solver));
    solver_label_.emplace("empty", recorder_->intern("empty"));
  }

  const unsigned shard_count = pool_.size();
  engine::PortfolioOptions portfolio;
  portfolio.budget_ms = options_.budget_ms;
  portfolio.only = options_.solvers;
  portfolio.threads = 1;  // the shard layer owns the parallelism
  portfolio.metrics = &metrics_;
  shards_.reserve(shard_count);
  for (unsigned s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>(options_.queue_depth,
                                         options_.cache_capacity);
    shard->index = static_cast<int>(s);
    shard->portfolio =
        std::make_unique<engine::PortfolioSolver>(registry, portfolio);
    shard->requests =
        &metrics_.counter("serve.shard_requests." + std::to_string(s));
    metrics_.gauge("serve.queue_depth." + std::to_string(s));
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_)
    pool_.submit([this, raw = shard.get()] { shard_loop(*raw); });
}

Service::~Service() { shutdown(std::chrono::seconds(30)); }

void Service::respond(Done& done, std::string&& line) {
  responded_c_->inc();
  done(std::move(line));
}

void Service::respond_error(Done& done, const Json& id, WireError code,
                            std::string_view detail,
                            const obs::TraceContext* trace) {
  errors_c_->inc();
  error_code_c_[static_cast<std::size_t>(code)]->inc();
  responded_c_->inc();
  if (recorder_ != nullptr && trace != nullptr)
    recorder_->record(obs::EventKind::kError, trace->seq,
                      obs::recorder_ts_ns(obs::TraceClock::now()), 0xff,
                      error_label_[static_cast<std::size_t>(code)], 0);
  done(error_response(id, code, detail));
  if (trace != nullptr) {
    const double total =
        obs::stage_us(trace->admit, obs::TraceClock::now());
    if (tracer_->sampled(trace->seq) || tracer_->slow(total)) {
      obs::Span span;
      span.seq = trace->seq;
      span.error = std::string(wire_error_name(code));
      span.admission_us = obs::stage_us(trace->admit, trace->enqueue);
      span.queue_us = obs::stage_us(trace->enqueue, trace->dispatch);
      span.total_us = total;
      tracer_->observe(span);
    }
  }
}

void Service::finish_item() {
  util::MutexLock lock(pending_mutex_);
  if (--pending_ == 0) drained_.notify_all();
}

void Service::submit(const std::string& line, Done done) {
  received_c_->inc();
  obs::TraceContext trace;
  // relaxed: only uniqueness matters — each caller needs a distinct seq;
  // nothing is published through this counter.
  trace.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  trace.admit = obs::TraceClock::now();
  if (recorder_ != nullptr)
    recorder_->record(obs::EventKind::kAdmit, trace.seq,
                      obs::recorder_ts_ns(trace.admit), 0xff, 0,
                      static_cast<std::uint32_t>(line.size()));
  Json salvaged_id;
  WireError code = WireError::kParseError;
  std::string detail;
  std::optional<Request> request =
      parse_request(line, &code, &detail, &salvaged_id);
  if (!request) {
    respond_error(done, salvaged_id, code, detail, &trace);
    return;
  }
  if (!accepting_.load()) {
    respond_error(done, request->id, WireError::kShuttingDown,
                  "service is shutting down", &trace);
    return;
  }
  if (request->wire != 0 && request->wire != kWireVersion) {
    respond_error(done, request->id, WireError::kVersionMismatch,
                  "client speaks wire version " +
                      std::to_string(request->wire) + ", service speaks " +
                      std::to_string(kWireVersion),
                  &trace);
    return;
  }

  switch (request->op) {
    case Op::kPing:
      respond(done, ok_response(request->id, "ping"));
      return;
    case Op::kVersion:
      respond(done, version_response(request->id));
      return;
    case Op::kStats:
      respond(done,
              stats_response(request->id, stats(), metrics_snapshot()));
      return;
    case Op::kShutdown:
      accepting_.store(false);
      respond(done, ok_response(request->id, "shutdown"));
      return;
    case Op::kDumpRecorder:
      if (recorder_ == nullptr) {
        respond_error(done, request->id, WireError::kBadRequest,
                      "the flight recorder is disabled", &trace);
      } else {
        respond(done, dump_recorder_response(request->id, *recorder_,
                                             request->canonical));
      }
      return;
    case Op::kOpenSession:
    case Op::kSubmitJob:
    case Op::kCancelJob:
    case Op::kSnapshot:
    case Op::kCloseSession: {
      // Session ops route by the session-name hash, not the canonical
      // form: every op of one session serializes on one shard's FIFO, so
      // the owning worker mutates session state shared-nothing and the
      // response stream is a pure function of the session's op order —
      // identical at any shard count.
      Item item;
      item.op = request->op;
      item.id = std::move(request->id);
      item.session = std::move(request->session);
      item.job_class = std::move(request->job_class);
      item.size = request->size;
      item.job = request->job;
      item.machines = request->machines;
      item.done = std::move(done);
      item.trace = trace;
      Shard& shard = *shards_[static_cast<std::size_t>(
          session_hash(item.session) % shards_.size())];
      if (options_.session_queue_budget > 0) {
        // Admission fairness: a churn burst may hold at most
        // session_queue_budget slots of this shard's queue, so solve ops
        // behind it are delayed by a bounded number of cheap mutations.
        if (options_.reject_when_full) {
          util::MutexLock lock(shard.session_gate_mutex);
          if (shard.queued_session_ops >=
              options_.session_queue_budget) {
            rejected_c_->inc();
            respond_error(item.done, item.id, WireError::kOverloaded,
                          "session op budget of this shard is full",
                          &item.trace);
            return;
          }
          ++shard.queued_session_ops;
        } else {
          util::MutexLock lock(shard.session_gate_mutex);
          while (accepting_.load() &&
                 shard.queued_session_ops >= options_.session_queue_budget)
            shard.session_gate_cv.wait(shard.session_gate_mutex);
          if (!accepting_.load()) {
            respond_error(item.done, item.id, WireError::kShuttingDown,
                          "service is shutting down", &item.trace);
            return;
          }
          ++shard.queued_session_ops;
        }
      }
      {
        util::MutexLock lock(pending_mutex_);
        ++pending_;
      }
      item.trace.enqueue = obs::TraceClock::now();
      const bool admitted = options_.reject_when_full
                                ? shard.queue.try_push(item)
                                : shard.queue.push(item);
      if (!admitted) {
        release_session_slot(shard);
        const bool closed = !accepting_.load();
        if (!closed) rejected_c_->inc();
        respond_error(item.done, item.id,
                      closed ? WireError::kShuttingDown
                             : WireError::kOverloaded,
                      closed ? "service is shutting down"
                             : "request queue is full",
                      &item.trace);
        finish_item();
      }
      return;
    }
    case Op::kSolve:
      break;
  }

  Item item;
  item.id = std::move(request->id);
  item.budget_ms = request->budget_ms;
  item.done = std::move(done);
  item.trace = trace;
  if (!request->spec.empty()) {
    std::string error;
    const auto spec = parse_spec(request->spec, &error);
    if (!spec) {
      respond_error(item.done, item.id, WireError::kBadSpec, error,
                    &item.trace);
      return;
    }
    item.instance = generate(*spec);
  } else {
    std::string error;
    auto parsed = from_text(request->instance, &error);
    if (!parsed) {
      respond_error(item.done, item.id, WireError::kBadInstance, error,
                    &item.trace);
      return;
    }
    item.instance = std::move(*parsed);
  }
  item.form = engine::canonical_form(item.instance);
  Shard& shard =
      *shards_[static_cast<std::size_t>(item.form.key % shards_.size())];

  {
    util::MutexLock lock(pending_mutex_);
    ++pending_;
  }
  item.trace.enqueue = obs::TraceClock::now();
  const bool admitted = options_.reject_when_full ? shard.queue.try_push(item)
                                                  : shard.queue.push(item);
  if (!admitted) {
    // try_push: full (overloaded); push: only fails when closed (shutdown).
    const bool closed = !accepting_.load();
    if (!closed) rejected_c_->inc();
    respond_error(item.done, item.id,
                  closed ? WireError::kShuttingDown : WireError::kOverloaded,
                  closed ? "service is shutting down"
                         : "request queue is full",
                  &item.trace);
    finish_item();
  }
}

std::string Service::handle(const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  submit(line, [&promise](std::string&& response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

void Service::shard_loop(Shard& shard) {
  while (std::optional<Item> item = shard.queue.pop()) {
    const bool session_op = item->op != Op::kSolve;
    process(shard, *item);
    // The fairness gate slot is held until the op is *processed*, not just
    // dequeued — the budget bounds queue occupancy, so it must only free
    // up when the burst actually drains.
    if (session_op) release_session_slot(shard);
  }
}

void Service::release_session_slot(Shard& shard) {
  if (options_.session_queue_budget == 0) return;
  {
    util::MutexLock lock(shard.session_gate_mutex);
    if (shard.queued_session_ops > 0) --shard.queued_session_ops;
  }
  shard.session_gate_cv.notify_one();
}

void Service::process(Shard& shard, Item& item) {
  item.trace.dispatch = obs::TraceClock::now();
  const std::uint8_t shard_id = static_cast<std::uint8_t>(shard.index);
  if (recorder_ != nullptr)
    recorder_->record(obs::EventKind::kDispatch, item.trace.seq,
                      obs::recorder_ts_ns(item.trace.dispatch), shard_id, 0,
                      0);
  if (abort_.load()) {
    respond_error(item.done, item.id, WireError::kShuttingDown,
                  "service stopped before this request was served",
                  &item.trace);
    finish_item();
    return;
  }
  if (item.op != Op::kSolve) {
    process_session(shard, item);
    finish_item();
    return;
  }
  item.trace.solve_begin = item.trace.dispatch;
  if (recorder_ != nullptr)
    recorder_->record(obs::EventKind::kSolveBegin, item.trace.seq,
                      obs::recorder_ts_ns(item.trace.solve_begin), shard_id,
                      0, 0);
  std::string response;
  std::string solver;
  const char* cache_state = "";
  std::uint32_t cache_value = 0;  // recorder encoding: miss/hit/bypass
  if (item.budget_ms != 0) {
    // Non-default effort changes the result, so it must not share cache
    // entries with default-budget traffic; solve uncached.
    engine::PortfolioOptions per_request = shard.portfolio->options();
    per_request.budget_ms = item.budget_ms;
    engine::PortfolioResult result =
        engine::PortfolioSolver(*registry_, per_request).solve(item.instance);
    solver = result.solver;
    cache_state = "bypass";
    cache_value = 2;
    response = solve_response(item.id, result);
    shard.solved.fetch_add(1);
  } else if (const TailCache::Entry* entry = shard.cache.find(item.form)) {
    response = compose_response(item.id, entry->second.tail);
    solver = entry->second.solver;
    cache_state = "hit";
    cache_value = 1;
  } else {
    engine::PortfolioResult result = shard.portfolio->solve(item.instance);
    std::string tail = solve_response_tail(result);
    response = compose_response(item.id, tail);
    solver = result.solver;
    cache_state = "miss";
    shard.cache.insert(std::move(item.form),
                       CachedResult{std::move(tail), std::move(result.solver)});
    shard.solved.fetch_add(1);
  }
  item.trace.solve_end = obs::TraceClock::now();
  if (recorder_ != nullptr) {
    const auto label = solver_label_.find(solver);
    recorder_->record(obs::EventKind::kSolveEnd, item.trace.seq,
                      obs::recorder_ts_ns(item.trace.solve_end), shard_id,
                      label != solver_label_.end() ? label->second : 0,
                      cache_value);
  }
  // Mirror the (single-threaded) LRU counters into atomics for stats().
  const LruStats& cache = shard.cache.stats();
  shard.hits.store(cache.hits);
  shard.misses.store(cache.misses);
  shard.evictions.store(cache.evictions);
  shard.entries.store(cache.entries);
  shard.requests->inc();
  const obs::TraceClock::time_point end = obs::TraceClock::now();
  if (recorder_ != nullptr)
    recorder_->record(obs::EventKind::kWrite, item.trace.seq,
                      obs::recorder_ts_ns(end), shard_id, 0,
                      static_cast<std::uint32_t>(response.size()));

  // Stage decomposition: every solve request feeds the five lifecycle
  // histograms; spans are materialized only when sampled or slow. All
  // telemetry is recorded BEFORE the response is delivered so that a
  // synchronous observer (handle(), the stats op) sees a consistent
  // count; "write" therefore covers post-solve bookkeeping, not the
  // ordered-writer flush.
  const double admission_us = obs::stage_us(item.trace.admit,
                                            item.trace.enqueue);
  const double queue_us = obs::stage_us(item.trace.enqueue,
                                        item.trace.dispatch);
  const double solve_us = obs::stage_us(item.trace.solve_begin,
                                        item.trace.solve_end);
  const double write_us = obs::stage_us(item.trace.solve_end, end);
  const double total_us = obs::stage_us(item.trace.admit, end);
  lat_admission_->record(admission_us);
  lat_queue_->record(queue_us);
  lat_solve_->record(solve_us);
  lat_write_->record(write_us);
  lat_total_->record(total_us);
  if (tracer_->sampled(item.trace.seq) || tracer_->slow(total_us)) {
    obs::Span span;
    span.seq = item.trace.seq;
    span.shard = shard.index;
    span.solver = solver;
    span.cache = cache_state;
    span.admission_us = admission_us;
    span.queue_us = queue_us;
    span.solve_us = solve_us;
    span.write_us = write_us;
    span.total_us = total_us;
    tracer_->observe(span);
  }
  respond(item.done, std::move(response));
  finish_item();
}

void Service::process_session(Shard& shard, Item& item) {
  item.trace.solve_begin = item.trace.dispatch;
  const auto found = shard.sessions.find(item.session);
  const auto unknown_session = [this, &item] {
    respond_error(item.done, item.id, WireError::kUnknownSession,
                  "no open session named '" + item.session + "'",
                  &item.trace);
  };
  std::string response;
  obs::EventKind session_kind = obs::EventKind::kSessionClose;
  std::uint32_t session_value = 0;  // per-kind recorder payload
  switch (item.op) {
    case Op::kOpenSession: {
      if (found != shard.sessions.end()) {
        respond_error(item.done, item.id, WireError::kBadRequest,
                      "session '" + item.session + "' is already open",
                      &item.trace);
        return;
      }
      // Global cap, checked optimistically: open_session is rare, so the
      // fetch_add/rollback race window is irrelevant in practice.
      if (active_sessions_.fetch_add(1) + 1 > options_.session_limit) {
        active_sessions_.fetch_sub(1);
        respond_error(item.done, item.id, WireError::kSessionLimit,
                      "open sessions are capped at " +
                          std::to_string(options_.session_limit),
                      &item.trace);
        return;
      }
      shard.sessions.emplace(item.session,
                             std::make_unique<engine::SessionEngine>(
                                 item.machines, *registry_,
                                 shard.portfolio->options()));
      session_active_g_->set(
          static_cast<std::int64_t>(active_sessions_.load()));
      session_opened_c_->inc();
      session_kind = obs::EventKind::kSessionOpen;
      session_value = static_cast<std::uint32_t>(item.machines);
      response = session_response(item.id, "open_session", item.session);
      break;
    }
    case Op::kSubmitJob: {
      if (found == shard.sessions.end()) return unknown_session();
      const std::uint64_t job =
          found->second->submit(item.job_class, item.size);
      session_submits_c_->inc();
      session_kind = obs::EventKind::kSessionSubmit;
      session_value = static_cast<std::uint32_t>(job);
      response = submit_response(item.id, item.session, job);
      break;
    }
    case Op::kCancelJob: {
      if (found == shard.sessions.end()) return unknown_session();
      if (!found->second->cancel(static_cast<std::uint64_t>(item.job))) {
        respond_error(item.done, item.id, WireError::kUnknownJob,
                      "job " + std::to_string(item.job) +
                          " is not an alive job of session '" +
                          item.session + "'",
                      &item.trace);
        return;
      }
      session_cancels_c_->inc();
      session_kind = obs::EventKind::kSessionCancel;
      session_value = static_cast<std::uint32_t>(item.job);
      response = cancel_response(item.id, item.session,
                                 static_cast<std::uint64_t>(item.job));
      break;
    }
    case Op::kSnapshot: {
      if (found == shard.sessions.end()) return unknown_session();
      engine::SessionEngine& session = *found->second;
      const engine::SessionSnapshot& snap = session.snapshot();
      session_snapshots_c_->inc();
      SnapshotBody body;
      body.session = item.session;
      body.jobs = session.jobs_alive();
      body.classes = session.classes_alive();
      body.machines = session.machines();
      body.solver = snap.result.solver;
      body.makespan = snap.result.makespan;
      body.t_bound = static_cast<std::int64_t>(snap.result.t_bound);
      body.ratio = snap.result.ratio_vs_bound;
      body.valid = snap.result.valid;
      body.source = body.jobs == 0 ? "empty" : "resolve";
      session_kind = obs::EventKind::kSessionSnapshot;
      session_value = static_cast<std::uint32_t>(body.jobs);
      response = snapshot_response(item.id, body);
      break;
    }
    case Op::kCloseSession: {
      if (found == shard.sessions.end()) return unknown_session();
      shard.sessions.erase(found);
      active_sessions_.fetch_sub(1);
      session_active_g_->set(
          static_cast<std::int64_t>(active_sessions_.load()));
      session_closed_c_->inc();
      response = session_response(item.id, "close_session", item.session);
      break;
    }
    default:
      return;  // unreachable: submit() routes only session ops here
  }
  item.trace.solve_end = obs::TraceClock::now();
  shard.requests->inc();
  const obs::TraceClock::time_point end = obs::TraceClock::now();
  if (recorder_ != nullptr) {
    const std::uint8_t shard_id = static_cast<std::uint8_t>(shard.index);
    recorder_->record(session_kind, item.trace.seq,
                      obs::recorder_ts_ns(item.trace.solve_end), shard_id, 0,
                      session_value);
    recorder_->record(obs::EventKind::kWrite, item.trace.seq,
                      obs::recorder_ts_ns(end), shard_id, 0,
                      static_cast<std::uint32_t>(response.size()));
  }
  // Session ops feed the same lifecycle histograms as solves ("solve"
  // covers the session mutation/snapshot work); spans stay solve-only.
  lat_admission_->record(obs::stage_us(item.trace.admit, item.trace.enqueue));
  lat_queue_->record(obs::stage_us(item.trace.enqueue, item.trace.dispatch));
  lat_solve_->record(
      obs::stage_us(item.trace.solve_begin, item.trace.solve_end));
  lat_write_->record(obs::stage_us(item.trace.solve_end, end));
  lat_total_->record(obs::stage_us(item.trace.admit, end));
  respond(item.done, std::move(response));
}

ServiceStats Service::stats() const {
  ServiceStats stats;
  stats.shards = static_cast<unsigned>(shards_.size());
  stats.received = received_c_->value();
  stats.responded = responded_c_->value();
  stats.rejected = rejected_c_->value();
  stats.errors = errors_c_->value();
  stats.queue_depths.reserve(shards_.size());
  stats.shard_requests.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.solved += shard->solved.load();
    stats.cache_hits += shard->hits.load();
    stats.cache_misses += shard->misses.load();
    stats.cache_evictions += shard->evictions.load();
    stats.cache_entries += shard->entries.load();
    stats.queue_depths.push_back(shard->queue.size());
    stats.shard_requests.push_back(
        static_cast<std::size_t>(shard->requests->value()));
  }
  return stats;
}

obs::MetricsSnapshot Service::metrics_snapshot() {
  for (const auto& shard : shards_)
    metrics_.gauge("serve.queue_depth." + std::to_string(shard->index))
        .set(static_cast<std::int64_t>(shard->queue.size()));
  uptime_g_->set(std::chrono::duration_cast<std::chrono::seconds>(
                     obs::TraceClock::now() - start_)
                     .count());
  obs::MetricsSnapshot snapshot = metrics_.snapshot();
  snapshot.info.emplace_back("build_info", build_info_labels());
  return snapshot;
}

bool Service::monitor_tick() {
  util::MutexLock lock(monitor_mutex_);
  if (!watchdog_->tick(metrics_snapshot())) return false;
  if (recorder_ != nullptr && !options_.watchdog_dump.empty()) {
    // Full (wall-clock) rendering: a post-mortem wants timestamps.
    std::ofstream out(options_.watchdog_dump,
                      std::ios::binary | std::ios::trunc);
    out << recorder_->jsonl(false);
  }
  return true;
}

bool Service::shutdown(std::chrono::milliseconds deadline) {
  std::call_once(shutdown_once_, [this, deadline] {
    accepting_.store(false);
    for (auto& shard : shards_) {
      shard->queue.close();
      // Wake submitters blocked on the session fairness gate; they see
      // !accepting() and answer shutting_down.
      shard->session_gate_cv.notify_all();
    }
    bool drained = true;
    {
      util::MutexLock lock(pending_mutex_);
      if (deadline == std::chrono::milliseconds::max()) {
        // An effectively infinite deadline must not feed wait_until
        // (time_point overflow); wait without one.
        while (pending_ != 0) drained_.wait(pending_mutex_);
      } else {
        const auto until = util::deadline_after(deadline);
        while (pending_ != 0) {
          if (drained_.wait_until(pending_mutex_, until) ==
              std::cv_status::timeout) {
            drained = pending_ == 0;
            break;
          }
        }
      }
    }
    if (!drained) {
      // Deadline passed: remaining queued items are answered with the
      // named shutting_down error (cheap), never silently dropped.
      abort_.store(true);
      util::MutexLock lock(pending_mutex_);
      while (pending_ != 0) drained_.wait(pending_mutex_);
    }
    pool_.shutdown();  // shard loops exit once their queues are drained
    tracer_->flush();
    shutdown_result_ = drained;
  });
  return shutdown_result_;
}

}  // namespace msrs::serve
