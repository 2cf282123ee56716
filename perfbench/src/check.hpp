// The correctness check applied to every response the benchmark receives.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

// Upper end of the served ratio makespan / T: the weakest guarantee among
// the rungs the portfolio may race at the serving budget (five_thirds).
inline constexpr double kMaxRatio = 5.0 / 3.0;

// Checks responses against their requests, counts failures by name and
// digests the bodies. A response passes when it parses, carries its
// request's id, is `ok:true`, and, for a solve or snapshot, is
// `valid:true` with 1 <= ratio <= 5/3. Submits must return the predicted
// session job id, and on warm_hit every repeat of an instance must return
// the same body as its first answer.
class Checker {
 public:
  // `digest`: fold the id-stripped body into the run's digest.
  // `timed`: count the ratio towards makespan_ratio_mean.
  void check(const Request& request, const std::string& response,
             bool digest, bool timed);
  // Counts a failure that no single response shows (e.g. a cache counter).
  void fail(const std::string& code, const std::string& example,
            std::int64_t count = 1);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::map<std::string, std::int64_t>& failures_by_code() const {
    return by_code_;
  }
  const std::vector<std::string>& examples() const { return examples_; }
  std::string digest() const { return digest_.hex(); }
  double ratio_mean() const {
    return ratios_ == 0 ? 0.0 : ratio_sum_ / static_cast<double>(ratios_);
  }
  std::int64_t snapshots() const { return snapshots_; }
  std::int64_t repairs() const { return repairs_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, std::int64_t> by_code_;
  std::vector<std::string> examples_;
  Digest digest_;
  double ratio_sum_ = 0.0;
  std::int64_t ratios_ = 0;
  std::int64_t snapshots_ = 0;
  std::int64_t repairs_ = 0;
  std::map<int, std::string> warm_bodies_;
};

}  // namespace perfbench
