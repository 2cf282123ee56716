// The traced run: the same request lines replayed in-process, with every
// call into a layer's public function timed from the benchmark's side.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

// Written-down tolerances of the per-layer sum checks (relative).
// Path: the reported medians of the on-path layers plus the median
// per-request residual, against the median of Service::handle. Medians add
// only approximately; session_churn's snapshot population spans a range of
// alive-job counts and sits furthest off (about 6% at full size).
// Portfolio: per race, three_halves_bound + candidates() + every
// candidate's Solver::solve + every validate call, against
// PortfolioSolver::solve on the same instance; the medians over all races
// are compared. The remainder is winner selection and counter updates.
inline constexpr double kPathTolerance = 0.20;
inline constexpr double kPortfolioTolerance = 0.10;

struct TracedOptions {
  std::string spans_path;  // JSONL span dump ("" = keep in memory only)
  bool tiny = false;
};

struct TracedResult {
  std::string fatal;
  Metrics layers;
  Metrics replay;  // the replay's own end-to-end numbers, traced vs not
  std::vector<std::string> sum_checks;
  bool sums_ok = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failures_by_code;
  std::vector<std::string> failure_examples;
  std::size_t spans = 0;
};

TracedResult run_traced(const Workload& workload, const TracedOptions& options);

}  // namespace perfbench
