/// \file
/// Fundamental types for the MSRS problem model.
///
/// All processing times and schedule times are exact 64-bit integers. The
/// paper's algorithms place jobs at rational times (multiples of T/2, T/3,
/// epsilon*delta*T, ...); schedules therefore carry an integral `scale`
/// (core/schedule.hpp) so times stay exact: a stored time t represents
/// t/scale instance time units.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>

namespace msrs {

/// A processing time or schedule time (exact integer; scaled when rational).
using Time = std::int64_t;
/// Index of a job within an Instance.
using JobId = std::int32_t;
/// Index of a class (= its exclusive shared resource) within an Instance.
using ClassId = std::int32_t;

/// Sentinel: no such job.
inline constexpr JobId kInvalidJob = -1;
/// Sentinel: no such class.
inline constexpr ClassId kInvalidClass = -1;
/// Sentinel machine id of an unassigned job in a Schedule.
inline constexpr int kUnassigned = -1;

/// ceil(a / b) for a >= 0, b > 0.
constexpr Time ceil_div(Time a, Time b) noexcept {
  assert(a >= 0 && b > 0);
  return (a + b - 1) / b;
}

/// floor(a / b) for a >= 0, b > 0.
constexpr Time floor_div(Time a, Time b) noexcept {
  assert(a >= 0 && b > 0);
  return a / b;
}

/// Largest supported class load and total load p(J); instance_io rejects
/// larger ones. The 2^7 headroom below int64 keeps the derived quantities
/// representable: the census products 4a, 4L and 3T of algo/t_bound.cpp
/// (T <= 2 p(J)) and the scaled makespans the portfolio cross-multiplies.
inline constexpr Time kMaxLoad = Time{1} << 56;

/// a * b with a debug-mode overflow assertion; instance loads (at most
/// kMaxLoad) and scales are small enough that release builds never overflow
/// (documented limits: total scaled load < 2^62).
constexpr Time checked_mul(Time a, Time b) noexcept {
  assert(b == 0 || std::abs(a) <= std::numeric_limits<Time>::max() / std::abs(b));
  return a * b;
}

}  // namespace msrs
