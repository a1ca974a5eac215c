// Unit tests for the figure binaries' stats helper (bench/stats.h).
#include "bench/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace qrdtm::bench {
namespace {

TEST(PctChange, Basics) {
  EXPECT_DOUBLE_EQ(pct_change(150, 100), 50.0);
  EXPECT_DOUBLE_EQ(pct_change(50, 100), -50.0);
  // Zero baseline: the ratio is undefined, so NaN (printers show "n/a"),
  // never a fake 0 % that hides a missing baseline.
  EXPECT_TRUE(std::isnan(pct_change(100, 0)));
  EXPECT_TRUE(std::isnan(pct_change(0, 0)));
}

}  // namespace
}  // namespace qrdtm::bench
