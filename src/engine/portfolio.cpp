#include "engine/portfolio.hpp"

#include <algorithm>
#include <utility>

#include "algo/t_bound.hpp"
#include "core/validate.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace msrs::engine {
namespace {

// Exact comparison of two schedules' makespans (they may carry different
// scales): a/sa < b/sb  <=>  a*sb < b*sa. Scales are tiny (<= ~20), so the
// products stay far below the documented 2^62 load limit.
bool makespan_less(const Schedule& a, const Schedule& b,
                   const Instance& instance) {
  return checked_mul(a.makespan_scaled(instance), b.scale()) <
         checked_mul(b.makespan_scaled(instance), a.scale());
}

}  // namespace

PortfolioSolver::PortfolioSolver(const SolverRegistry& registry,
                                 PortfolioOptions options)
    : registry_(&registry), options_(std::move(options)) {}

std::vector<const Solver*> PortfolioSolver::candidates(
    const Instance& instance) const {
  std::vector<const Solver*> out;
  if (!options_.only.empty()) {
    for (const std::string& name : options_.only) {
      const Solver* solver = registry_->find(name);
      if (solver != nullptr && solver->applicable(instance))
        out.push_back(solver);
    }
    return out;
  }
  if (instance.num_jobs() == 0) return out;

  // Regime: m >= |C| — one machine per class is optimal, nothing to race.
  if (instance.machines() >= instance.num_classes()) {
    if (const Solver* solver = registry_->find("one_per_class"))
      if (solver->applicable(instance)) {
        out.push_back(solver);
        return out;
      }
  }

  for (const auto& solver : registry_->solvers()) {
    if (solver->min_budget_ms() > options_.budget_ms) continue;
    if (!options_.include_heuristics && solver->guarantee() == 0.0) continue;
    if (!solver->applicable(instance)) continue;
    out.push_back(solver.get());
  }
  return out;
}

PortfolioResult PortfolioSolver::solve(const Instance& instance) const {
  // Race on at most busy_machines() machines: the answer is the same, and a
  // requested m far beyond |C| never sizes a per-machine table. The schedule
  // stays valid on `instance`, whose m is larger.
  if (instance.machines() > instance.busy_machines()) {
    Instance normalized = instance;
    normalized.set_machines(instance.busy_machines());
    return solve(normalized);
  }
  PortfolioResult result;
  result.t_bound =
      instance.num_jobs() > 0 ? three_halves_bound(instance) : 0;

  if (instance.num_jobs() == 0) {
    result.schedule = Schedule(0);
    result.solver = "trivial";
    result.valid = true;
    result.ratio_vs_bound = 1.0;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("engine.races").inc();
      options_.metrics->counter("engine.race_win.trivial").inc();
    }
    return result;
  }

  const std::vector<const Solver*> racers = candidates(instance);
  std::vector<SolverResult> raced(racers.size());
  if (options_.threads > 1 && racers.size() > 1) {
    ThreadPool pool(std::min<unsigned>(
        options_.threads, static_cast<unsigned>(racers.size())));
    std::vector<std::future<SolverResult>> futures;
    futures.reserve(racers.size());
    for (const Solver* solver : racers)
      futures.push_back(pool.submit_task(
          [solver, &instance] { return solver->solve(instance); }));
    for (std::size_t i = 0; i < futures.size(); ++i)
      raced[i] = futures[i].get();
  } else {
    for (std::size_t i = 0; i < racers.size(); ++i)
      raced[i] = racers[i]->solve(instance);
  }

  // Deterministic selection: best exact makespan, candidate order breaks
  // ties — never completion order.
  int winner = -1;
  result.attempts.reserve(raced.size());
  for (std::size_t i = 0; i < raced.size(); ++i) {
    SolverResult& run = raced[i];
    Attempt attempt;
    attempt.solver = run.solver;
    attempt.ok = run.ok;
    attempt.error = run.error;
    if (run.ok) {
      attempt.makespan = run.makespan(instance);
      if (!run.schedule.complete()) {
        attempt.valid = false;
        attempt.error = "incomplete schedule";
      } else {
        const ValidationReport report = validate(instance, run.schedule);
        attempt.valid = report.ok();
        if (!attempt.valid) attempt.error = report.summary();
      }
      if (attempt.valid &&
          (winner < 0 ||
           makespan_less(run.schedule,
                         raced[static_cast<std::size_t>(winner)].schedule,
                         instance)))
        winner = static_cast<int>(i);
    }
    result.attempts.push_back(std::move(attempt));
  }

  if (winner >= 0) {
    SolverResult& best = raced[static_cast<std::size_t>(winner)];
    result.schedule = std::move(best.schedule);
    result.solver = best.solver;
    result.makespan = result.schedule.makespan(instance);
    result.valid = true;
    result.ratio_vs_bound =
        result.t_bound > 0
            ? result.makespan / static_cast<double>(result.t_bound)
            : 1.0;
  }

  if (options_.metrics != nullptr) {
    options_.metrics->counter("engine.races").inc();
    options_.metrics->counter("engine.race_attempts")
        .add(result.attempts.size());
    std::uint64_t invalid = 0;
    for (const Attempt& attempt : result.attempts)
      if (!attempt.valid) ++invalid;
    if (invalid > 0)
      options_.metrics->counter("engine.race_invalid").add(invalid);
    if (result.valid)
      options_.metrics->counter("engine.race_win." + result.solver).inc();
    else
      options_.metrics->counter("engine.race_failed").inc();
  }
  return result;
}

}  // namespace msrs::engine
