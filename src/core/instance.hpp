/// \file
/// The MSRS problem instance: m identical machines and jobs partitioned into
/// classes, one exclusive shared resource per class (paper, Section 1).
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace msrs {

/// The problem instance. Immutable after construction via the builder
/// methods; all aggregates (class loads, class maxima, total load) are
/// maintained incrementally so algorithms can query them in O(1).
class Instance {
 public:
  /// An empty instance (1 machine, no jobs); populate via the builder.
  Instance() = default;

  /// Convenience: build from per-class job size lists.
  Instance(int machines, const std::vector<std::vector<Time>>& class_sizes);

  /// \name Builder
  /// @{

  /// Sets the machine count (>= 1).
  void set_machines(int machines);
  /// Appends an empty class; returns its id.
  ClassId add_class();
  /// Appends a job of `size` to class `c`; returns its id.
  JobId add_job(ClassId c, Time size);
  /// Adds a whole class at once, returns its id.
  ClassId add_class(std::span<const Time> sizes);
  /// @}

  /// \name Queries
  /// @{

  /// Machine count m.
  int machines() const noexcept { return machines_; }
  /// max(1, min(m, |C|)): the machines a schedule can keep busy. Jobs of one
  /// class never overlap, so at most |C| machines ever run a job at once:
  /// OPT and the Lemma-9 bound T are the same on m and on busy_machines()
  /// machines, and per-machine tables need no more than busy_machines().
  int busy_machines() const noexcept {
    return std::max(1, std::min(machines_, num_classes()));
  }
  /// Job count n.
  int num_jobs() const noexcept { return static_cast<int>(size_.size()); }
  /// Class count |C|.
  int num_classes() const noexcept { return static_cast<int>(members_.size()); }

  /// Processing time p_j.
  Time size(JobId j) const { return size_[static_cast<std::size_t>(j)]; }
  /// The class of job `j`.
  ClassId job_class(JobId j) const { return cls_[static_cast<std::size_t>(j)]; }
  /// The jobs of class `c`, in insertion order.
  const std::vector<JobId>& class_jobs(ClassId c) const {
    return members_[static_cast<std::size_t>(c)];
  }

  /// p(c): total processing time of class c.
  Time class_load(ClassId c) const { return load_[static_cast<std::size_t>(c)]; }
  /// max_{j in c} p_j.
  Time class_max(ClassId c) const { return max_[static_cast<std::size_t>(c)]; }
  /// p(J): total processing time of all jobs.
  Time total_load() const noexcept { return total_; }
  /// max_j p_j.
  Time max_size() const noexcept { return max_size_; }

  /// All job sizes, indexed by JobId.
  std::span<const Time> sizes() const noexcept { return size_; }
  /// @}

  /// Returns an empty string if the instance is well-formed, else a
  /// description of the first problem (machines >= 1, every class non-empty,
  /// every size >= 1). Zero-size jobs are excluded WLOG: they can always be
  /// appended at time 0 on any machine of a valid schedule.
  std::string check() const;

  /// Human-readable one-line summary ("n=.. m=.. classes=.. p(J)=..").
  std::string summary() const;

 private:
  int machines_ = 1;
  std::vector<Time> size_;
  std::vector<ClassId> cls_;
  std::vector<std::vector<JobId>> members_;
  std::vector<Time> load_;
  std::vector<Time> max_;
  Time total_ = 0;
  Time max_size_ = 0;
};

}  // namespace msrs
