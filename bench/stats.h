// Statistics helper shared by the figure binaries.
#pragma once

#include <limits>

namespace qrdtm::bench {

/// Percentage change of `x` relative to baseline `base` (paper Fig. 8 rows).
/// A zero baseline makes the comparison undefined: report NaN rather than a
/// misleading "no change" (printers render it as "n/a"; see bench::fmt).
inline double pct_change(double x, double base) {
  if (base == 0.0) return std::numeric_limits<double>::quiet_NaN();
  return 100.0 * (x - base) / base;
}

}  // namespace qrdtm::bench
