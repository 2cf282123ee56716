// Small helpers shared by the TCP run and the traced replay: a monotonic
// nanosecond clock, exact order statistics over raw samples, the response
// digest, and an ordered name -> value map that renders as JSON.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile: the smallest sample with at least p of the
// samples at or below it. An exact order statistic (never interpolated,
// never bucketed), so it is always one of the observed values.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

inline double max_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::max_element(samples.begin(), samples.end());
}

// The response body without its leading `{"id":<id>,` member: the part of a
// response that is a pure function of the request payload. Ids are plain
// integers here, so the first comma ends the id member.
inline std::string_view strip_id(std::string_view response) {
  constexpr std::string_view kPrefix = "{\"id\":";
  if (response.substr(0, kPrefix.size()) != kPrefix) return response;
  const std::size_t comma = response.find(',');
  if (comma == std::string_view::npos) return response;
  return response.substr(comma + 1);
}

// FNV-1a, 64 bit: a stable digest of response bodies across runs.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      state_ ^= c;
      state_ *= 1099511628211ULL;
    }
    state_ ^= '\n';
    state_ *= 1099511628211ULL;
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(state_));
    return buf;
  }

 private:
  std::uint64_t state_ = 1469598103934665603ULL;
};

// Insertion-ordered metric map, rendered as one JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value) {
    for (auto& [key, v] : values_)
      if (key == name) {
        v = value;
        return;
      }
    values_.emplace_back(name, value);
  }
  double get(const std::string& name) const {
    for (const auto& [key, v] : values_)
      if (key == name) return v;
    return 0.0;
  }
  msrs::Json json() const {
    msrs::Json out = msrs::Json::object();
    for (const auto& [key, v] : values_) out.set(key, msrs::Json(v));
    return out;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

}  // namespace perfbench
