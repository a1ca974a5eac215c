#include "core/faultpoint.h"

#include <algorithm>

#include "common/check.h"

namespace qrdtm {

void FaultPointRegistry::arm(const std::string& name, FaultAction action,
                             net::NodeId node, std::uint32_t uses,
                             std::uint32_t delay_fires) {
  QRDTM_CHECK_MSG(action != FaultAction::kNone, "arm with kNone");
  QRDTM_CHECK_MSG(uses > 0, "arm with zero uses");
  armings_[name] = Arming{action, node, uses, delay_fires};
}

void FaultPointRegistry::disarm(const std::string& name) {
  armings_.erase(name);
}

void FaultPointRegistry::disarm_if_node(const std::string& name,
                                        net::NodeId node) {
  auto it = armings_.find(name);
  if (it != armings_.end() && it->second.node == node) armings_.erase(it);
}

FaultAction FaultPointRegistry::fire(const char* name, net::NodeId node) {
  if (armings_.empty()) return FaultAction::kNone;  // the un-steered fast path
  auto it = armings_.find(name);
  if (it == armings_.end()) return FaultAction::kNone;
  Arming& a = it->second;
  if (a.node != kAnyNode && a.node != node) return FaultAction::kNone;
  if (a.delay > 0) {
    --a.delay;
    return FaultAction::kNone;
  }
  ++hits_[it->first];
  const FaultAction action = a.action;
  if (a.remaining != kUnlimited && --a.remaining == 0) armings_.erase(it);
  if (action == FaultAction::kPanic && panic_) panic_(node);
  return action;
}

sim::Future<bool> FaultPointRegistry::suspend(const std::string& name,
                                              net::NodeId /*node*/) {
  QRDTM_CHECK_MSG(sim_ != nullptr, "suspend without a simulator");
  waiters_.emplace_back(name, sim::Promise<bool>(*sim_));
  return waiters_.back().second.future();
}

std::size_t FaultPointRegistry::resume(const std::string& name) {
  std::size_t released = 0;
  for (auto& [n, p] : waiters_) {
    if (n == name) {
      p.set(true);
      ++released;
    }
  }
  waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(),
                                [&](const auto& w) { return w.first == name; }),
                 waiters_.end());
  return released;
}

std::uint64_t FaultPointRegistry::hits(const std::string& name) const {
  auto it = hits_.find(name);
  return it == hits_.end() ? 0 : it->second;
}

std::size_t FaultPointRegistry::suspended(const std::string& name) const {
  std::size_t n = 0;
  for (const auto& [wn, p] : waiters_) {
    if (wn == name) ++n;
  }
  return n;
}

void FaultPointRegistry::reset() {
  armings_.clear();
  hits_.clear();
  waiters_.clear();
}

}  // namespace qrdtm
