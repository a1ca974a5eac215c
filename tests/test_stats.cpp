// Unit tests for stats helpers (common/stats.h).
#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace qrdtm {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(PctChange, Basics) {
  EXPECT_DOUBLE_EQ(pct_change(150, 100), 50.0);
  EXPECT_DOUBLE_EQ(pct_change(50, 100), -50.0);
  // Zero baseline: the ratio is undefined, so NaN (printers show "n/a"),
  // never a fake 0 % that hides a missing baseline.
  EXPECT_TRUE(std::isnan(pct_change(100, 0)));
  EXPECT_TRUE(std::isnan(pct_change(0, 0)));
}

}  // namespace
}  // namespace qrdtm
