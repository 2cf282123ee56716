#include "engine/session.hpp"

#include <algorithm>
#include <cassert>

namespace msrs::engine {

SessionEngine::SessionEngine(int machines, const SolverRegistry& registry,
                             PortfolioOptions portfolio)
    : machines_(machines), portfolio_(registry, [&portfolio] {
        portfolio.threads = 1;  // a session lives on one shard
        return portfolio;
      }()) {
  assert(machines_ >= 1);
}

std::uint64_t SessionEngine::submit(std::string_view class_name, Time size) {
  assert(size >= 1);
  const auto [it, inserted] =
      class_index_.try_emplace(std::string(class_name),
                               static_cast<int>(classes_.size()));
  if (inserted) classes_.emplace_back();
  const int cls = it->second;
  const std::uint64_t job = next_job_++;
  jobs_.push_back(JobRec{cls, size, true});
  classes_[static_cast<std::size_t>(cls)].push_back(job);
  ++alive_;
  dirty_ = true;
  return job;
}

bool SessionEngine::cancel(std::uint64_t job) {
  if (job >= next_job_) return false;
  JobRec& rec = jobs_[static_cast<std::size_t>(job)];
  if (!rec.alive) return false;
  rec.alive = false;
  std::vector<std::uint64_t>& alive =
      classes_[static_cast<std::size_t>(rec.cls)];
  alive.erase(std::find(alive.begin(), alive.end(), job));
  --alive_;
  dirty_ = true;
  return true;
}

std::size_t SessionEngine::classes_alive() const {
  return static_cast<std::size_t>(std::count_if(
      classes_.begin(), classes_.end(),
      [](const std::vector<std::uint64_t>& alive) { return !alive.empty(); }));
}

const SessionSnapshot& SessionEngine::snapshot() {
  if (!dirty_) return snapshot_;
  dirty_ = false;

  snapshot_.instance = Instance();
  snapshot_.instance.set_machines(machines_);
  snapshot_.jobs.clear();
  for (const std::vector<std::uint64_t>& alive : classes_) {
    if (alive.empty()) continue;
    const ClassId cls = snapshot_.instance.add_class();
    for (const std::uint64_t job : alive) {
      snapshot_.instance.add_job(cls,
                                 jobs_[static_cast<std::size_t>(job)].size);
      snapshot_.jobs.push_back(job);
    }
  }

  if (alive_ == 0) {
    snapshot_.result = PortfolioResult{};
    snapshot_.result.schedule = Schedule(0, 1);
    snapshot_.result.solver = "empty";
    snapshot_.result.ratio_vs_bound = 1.0;
    snapshot_.result.valid = true;
  } else {
    snapshot_.result = portfolio_.solve(snapshot_.instance);
  }
  return snapshot_;
}

}  // namespace msrs::engine
