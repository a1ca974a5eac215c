#include "core/faultpoint.h"

#include <algorithm>

#include "common/check.h"

namespace qrdtm {

void FaultPointRegistry::arm(fp::Point point, FaultAction action,
                             net::NodeId node, std::uint32_t uses,
                             std::uint32_t delay_fires) {
  QRDTM_CHECK_MSG(action != FaultAction::kNone, "arm with kNone");
  QRDTM_CHECK_MSG(uses > 0, "arm with zero uses");
  armings_[point] = Arming{action, node, uses, delay_fires};
}

void FaultPointRegistry::disarm_if_node(fp::Point point, net::NodeId node) {
  if (armed(point) && armings_[point].node == node) disarm(point);
}

FaultAction FaultPointRegistry::fire(fp::Point point, net::NodeId node) {
  Arming& a = armings_[point];
  if (a.action == FaultAction::kNone) return FaultAction::kNone;
  if (a.node != kAnyNode && a.node != node) return FaultAction::kNone;
  if (a.delay > 0) {
    --a.delay;
    return FaultAction::kNone;
  }
  ++hits_[point];
  const FaultAction action = a.action;
  if (a.remaining != kUnlimited && --a.remaining == 0) disarm(point);
  if (action == FaultAction::kPanic && panic_) panic_(node);
  return action;
}

sim::Future<bool> FaultPointRegistry::suspend(fp::Point point,
                                              net::NodeId /*node*/) {
  QRDTM_CHECK_MSG(sim_ != nullptr, "suspend without a simulator");
  waiters_.emplace_back(point, sim::Promise<bool>(*sim_));
  return waiters_.back().second.future();
}

std::size_t FaultPointRegistry::resume(fp::Point point) {
  std::size_t released = 0;
  for (auto& [p, promise] : waiters_) {
    if (p == point) {
      promise.set(true);
      ++released;
    }
  }
  waiters_.erase(
      std::remove_if(waiters_.begin(), waiters_.end(),
                     [&](const auto& w) { return w.first == point; }),
      waiters_.end());
  return released;
}

std::size_t FaultPointRegistry::suspended(fp::Point point) const {
  return static_cast<std::size_t>(
      std::count_if(waiters_.begin(), waiters_.end(),
                    [&](const auto& w) { return w.first == point; }));
}

void FaultPointRegistry::reset() {
  armings_.fill(Arming{});
  hits_.fill(0);
  waiters_.clear();
}

}  // namespace qrdtm
