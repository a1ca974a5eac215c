// Small shared helpers for the figure-reproduction binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/harness.h"
#include "bench/stats.h"

namespace qrdtm::bench {

/// Simulated duration per experiment point; QRDTM_FAST=1 shrinks it for
/// smoke runs (CI / quick iteration).
inline sim::Tick point_duration() {
  const char* fast = std::getenv("QRDTM_FAST");
  return (fast && fast[0] == '1') ? sim::sec(20) : sim::sec(300);
}

inline const char* mode_label(core::NestingMode m) {
  switch (m) {
    case core::NestingMode::kFlat:
      return "flat(QR)";
    case core::NestingMode::kClosed:
      return "closed(QR-CN)";
    case core::NestingMode::kCheckpoint:
      return "chk(QR-CHK)";
    case core::NestingMode::kQueued:
      return "queued(QR-Q)";
  }
  return "?";
}

inline void warn_if_corrupt(const ExperimentResult& r, const std::string& tag) {
  if (!r.invariants_ok) {
    std::printf("!! INVARIANT VIOLATION in %s\n", tag.c_str());
  }
}

}  // namespace qrdtm::bench
