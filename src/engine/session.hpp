/// \file
/// SessionEngine: an online, mutable MSRS instance.
///
/// A session owns a stream of submit/cancel mutations against one machine
/// pool. Its observable contract is *portfolio equivalence*: after any
/// mutation history, `snapshot()` returns exactly the result a fresh,
/// deterministic PortfolioSolver race (engine/portfolio.hpp) produces on the
/// alive jobs — and it is computed that way: the first snapshot after a
/// mutation materializes the alive jobs into an Instance and races the
/// portfolio on it. The snapshot is a pure function of the mutation history,
/// so serving-layer snapshot responses stay byte-identical across shard
/// counts and transports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/portfolio.hpp"
#include "engine/registry.hpp"

namespace msrs::engine {

/// The portfolio options of a session, wrapped. Kept only so that callers
/// still passing it (the serving benchmark under perfbench/) compile; new
/// code passes PortfolioOptions directly.
struct SessionOptions {
  PortfolioOptions portfolio;
};

/// The materialized state of a session at one point of its mutation
/// history. References returned by SessionEngine::snapshot() stay valid
/// until the next mutation.
struct SessionSnapshot {
  /// Compact instance over the alive jobs (classes in creation order,
  /// empty classes skipped, jobs in submission order within a class).
  Instance instance;
  /// Session job id of each compact JobId (`jobs[j]` names instance job j).
  std::vector<std::uint64_t> jobs;
  /// The portfolio result on `instance` (schedule over compact JobIds); a
  /// trivial valid result named "empty" when no job is alive.
  PortfolioResult result;
};

/// One online scheduling session (see file comment for the contract).
/// Not thread-safe: a session is owned by one serving shard.
class SessionEngine {
 public:
  /// A session over `machines` (>= 1) machines whose snapshots race with
  /// `portfolio` (`threads` is forced to 1: a session lives on one serving
  /// shard). The registry must outlive the session.
  explicit SessionEngine(
      int machines,
      const SolverRegistry& registry = SolverRegistry::default_registry(),
      PortfolioOptions portfolio = {});
  SessionEngine(int machines, const SolverRegistry& registry,
                const SessionOptions& options)
      : SessionEngine(machines, registry, options.portfolio) {}

  /// Submits a job of `size` (>= 1) to the class named `class_name`
  /// (created on first use). Returns the session job id: a monotone
  /// counter, so id assignment is a pure function of the mutation history.
  std::uint64_t submit(std::string_view class_name, Time size);

  /// Cancels a previously submitted job. Returns false — and changes
  /// nothing — when `job` was never assigned or is already cancelled.
  bool cancel(std::uint64_t job);

  /// Machine count of this session.
  int machines() const { return machines_; }

  /// Jobs submitted and not cancelled.
  std::size_t jobs_alive() const { return alive_; }

  /// Classes with at least one alive job.
  std::size_t classes_alive() const;

  /// Total jobs ever submitted (== the next job id to be assigned).
  std::uint64_t submitted() const { return next_job_; }

  /// The current schedule, re-materialized and re-raced only when the
  /// session mutated since the last call. The reference stays valid until
  /// the next mutation.
  const SessionSnapshot& snapshot();

 private:
  struct JobRec {
    int cls = 0;
    Time size = 0;
    bool alive = false;
  };

  int machines_ = 1;
  PortfolioSolver portfolio_;

  std::vector<JobRec> jobs_;
  /// Per class (creation order): its alive session job ids, submission order.
  std::vector<std::vector<std::uint64_t>> classes_;
  std::unordered_map<std::string, int> class_index_;
  std::uint64_t next_job_ = 0;
  std::size_t alive_ = 0;
  bool dirty_ = true;

  SessionSnapshot snapshot_;
};

}  // namespace msrs::engine
