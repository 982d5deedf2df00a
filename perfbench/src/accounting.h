#ifndef PERFBENCH_ACCOUNTING_H_
#define PERFBENCH_ACCOUNTING_H_

/// \file
/// The benchmark's statistics: order statistics of timing samples and the
/// per-target failure count behind `failed_frac`.

#include <cstdint>
#include <vector>

#include "src/util/status.h"

namespace perfbench {

/// The p-th percentile (0 <= p <= 100) by linear interpolation between
/// the closest ranks: rank p/100 * (n - 1) of the sorted samples. NaN
/// when \p values is empty.
double Percentile(std::vector<double> values, double p);

/// Percentile(values, 50).
double Median(std::vector<double> values);

/// Counts target outcomes. A target fails when its call returned an
/// error Status, when its value is NaN, or when the benchmark's check of
/// its value failed.
class TargetTally {
 public:
  /// Records one target; returns true when it counts as answered.
  bool Record(const skypref::Status& status, double value, bool check_passed);

  /// Records \p count targets that all failed together (the call that
  /// would have answered them returned an error).
  void RecordFailedCall(std::uint64_t count);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_frac() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ACCOUNTING_H_
