// Small statistics helpers used by the benchmark harnesses and metrics.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace qrdtm {

/// Streaming mean/variance/min/max accumulator (Welford).
class Summary {
 public:
  void add(double x) {
    ++n_;
    double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentage change of `x` relative to baseline `base` (paper Fig. 8 rows).
/// A zero baseline makes the comparison undefined: report NaN rather than a
/// misleading "no change" (printers render it as "n/a"; see bench::fmt).
inline double pct_change(double x, double base) {
  if (base == 0.0) return std::numeric_limits<double>::quiet_NaN();
  return 100.0 * (x - base) / base;
}

}  // namespace qrdtm
