#include "accounting.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

bool TargetTally::Record(const skypref::Status& status, double value,
                         bool check_passed) {
  ++attempted_;
  const bool answered = status.ok() && !std::isnan(value) && check_passed;
  if (!answered) ++failed_;
  return answered;
}

void TargetTally::RecordFailedCall(std::uint64_t count) {
  attempted_ += count;
  failed_ += count;
}

double TargetTally::failed_frac() const {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(failed_) / static_cast<double>(attempted_);
}

}  // namespace perfbench
