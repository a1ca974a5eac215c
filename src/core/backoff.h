// Randomised exponential backoff, shared by the QR runtime and both
// baselines so every retry loop enforces the same cap semantics.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "sim/simulator.h"

namespace qrdtm::core {

/// Randomised exponential backoff window applied on full (root) aborts by
/// all three runtimes: 1 ms doubling per attempt up to a 32 ms cap.
inline constexpr sim::Tick kRootBackoffBase = sim::msec(1);
inline constexpr sim::Tick kRootBackoffCap = sim::msec(32);

/// Draw the wait before retry `attempt` (1-based).  The window doubles with
/// each attempt up to `cap`; the draw is jittered into [window/2,
/// 1.5*window) so that two clients aborted by the same conflict do not
/// retry in lockstep, then clamped so no wait ever exceeds `cap` (the
/// configured bound is a promise to the workload, not a suggestion --
/// before the clamp, the jitter could overshoot the cap by up to 50 %).
/// Exactly one Rng draw per call, so instrumentation or clamping changes
/// never shift the consumer's random stream.
inline sim::Tick draw_backoff_wait(sim::Tick base, sim::Tick cap,
                                   std::uint32_t attempt, Rng& rng) {
  const std::uint32_t exp = std::min(attempt, 8u);
  const sim::Tick window = std::min(cap, base << exp);
  if (window == 0) return 0;
  const sim::Tick drawn =
      static_cast<sim::Tick>(rng.below(window)) + window / 2;
  return std::min(drawn, cap);
}

}  // namespace qrdtm::core
