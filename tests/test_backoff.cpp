// Regression tests for draw_backoff_wait (core/backoff.h).
//
// The original TxnRuntime::backoff jittered the doubled window into
// [window/2, 1.5*window) and returned that draw unclamped, so a wait could
// exceed the configured backoff cap by up to 50 %.  The sweep below proves
// the shared helper never exceeds the cap for any attempt number, and pins
// the window/jitter semantics the three retry loops (QR runtime, TFA,
// Decent-STM) now share.
#include "core/backoff.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/simulator.h"

namespace qrdtm::core {
namespace {

TEST(Backoff, NeverExceedsCapAcrossAttemptSweep) {
  const sim::Tick base = sim::msec(5);
  const sim::Tick cap = sim::msec(200);
  Rng rng(42);
  // Sweep well past the exponent clamp (attempt 8) and past the point where
  // the unclamped jitter would overshoot: with window == cap, the old code
  // could return up to 1.5 * cap.
  for (std::uint32_t attempt = 0; attempt <= 24; ++attempt) {
    for (int draw = 0; draw < 2000; ++draw) {
      const sim::Tick wait = draw_backoff_wait(base, cap, attempt, rng);
      ASSERT_LE(wait, cap) << "attempt " << attempt << " draw " << draw;
    }
  }
}

TEST(Backoff, HighAttemptsActuallyReachTheCapRegion) {
  // The clamp must not flatten the distribution: once the window saturates
  // at the cap, draws above cap/2 (i.e. in the jitter's upper half) must
  // still occur, and some must land exactly at the clamp boundary's
  // neighborhood.
  const sim::Tick base = sim::msec(5);
  const sim::Tick cap = sim::msec(200);
  Rng rng(7);
  std::uint64_t above_half = 0, at_cap_region = 0;
  for (int draw = 0; draw < 4000; ++draw) {
    const sim::Tick wait = draw_backoff_wait(base, cap, 12, rng);
    if (wait > cap / 2) ++above_half;
    if (wait >= cap - cap / 10) ++at_cap_region;
  }
  EXPECT_GT(above_half, 0u);
  EXPECT_GT(at_cap_region, 0u);
}

TEST(Backoff, WindowDoublesUntilTheCap) {
  // For attempt a (exponent clamped at 8), the draw lies in
  // [window/2, min(1.5*window, cap)] with window = min(cap, base << a).
  const sim::Tick base = sim::usec(100);
  const sim::Tick cap = sim::msec(100);
  Rng rng(3);
  for (std::uint32_t attempt = 0; attempt <= 12; ++attempt) {
    const std::uint32_t exp = attempt < 8 ? attempt : 8;
    const sim::Tick window = std::min(cap, base << exp);
    for (int draw = 0; draw < 500; ++draw) {
      const sim::Tick wait = draw_backoff_wait(base, cap, attempt, rng);
      ASSERT_GE(wait, window / 2);
      ASSERT_LT(wait, std::min(window + window / 2, cap + 1));
    }
  }
}

TEST(Backoff, ZeroWindowMeansZeroWaitAndNoDraw) {
  // base == 0 or cap == 0 must not draw (rng.below(0) would assert) and
  // must return 0 so disabled backoff stays a no-op.
  Rng rng(1);
  EXPECT_EQ(draw_backoff_wait(0, sim::msec(10), 3, rng), 0u);
  EXPECT_EQ(draw_backoff_wait(sim::msec(10), 0, 3, rng), 0u);
}

TEST(Backoff, ExactlyOneDrawPerCall) {
  // The clamp fix must not change how much randomness is consumed: two Rngs
  // with the same seed, one fed through draw_backoff_wait and one advanced
  // by hand with the same below() bound, must stay in lockstep.
  const sim::Tick base = sim::msec(1);
  const sim::Tick cap = sim::msec(50);
  Rng a(99), b(99);
  for (std::uint32_t attempt = 0; attempt <= 10; ++attempt) {
    (void)draw_backoff_wait(base, cap, attempt, a);
    const std::uint32_t exp = attempt < 8 ? attempt : 8;
    (void)b.below(std::min(cap, base << exp));
    EXPECT_EQ(a.next(), b.next()) << "streams diverged at attempt " << attempt;
  }
}

}  // namespace
}  // namespace qrdtm::core
