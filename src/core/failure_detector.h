// Timeout-based fail-stop detector.
//
// The paper's failure experiment assumes failures are known to the quorum
// policy ("with each failed node, the size of the read quorum increases by
// one").  This component closes the loop: transaction runtimes report every
// RPC outcome, and after `threshold` consecutive timeouts from one node the
// detector declares it suspected and informs the quorum provider, which
// routes subsequent quorums around it.
//
// A single successful reply resets the node's counter, so transient
// congestion (queueing near the RPC timeout) does not trip the detector
// unless it is persistent.  False suspicion of a live node is safe for
// consistency -- quorums merely stop using it -- but wastes capacity, so
// suspicion is rescindable: a successful reply from a suspected node
// (possible while in-flight requests still target it) clears the suspicion
// and fires the rescind callback so the quorum provider re-admits it.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "common/flat_table.h"
#include "net/message.h"

namespace qrdtm::core {

class FailureDetector {
 public:
  using SuspectCallback = std::function<void(net::NodeId)>;

  /// `threshold` consecutive timeouts suspect a node; `on_suspect` fires
  /// once per suspect transition, `on_rescind` once per rescind transition
  /// (a node that flaps fires both repeatedly, once per flap).
  FailureDetector(std::uint32_t threshold, SuspectCallback on_suspect,
                  SuspectCallback on_rescind = {})
      : threshold_(threshold),
        on_suspect_(std::move(on_suspect)),
        on_rescind_(std::move(on_rescind)) {}

  void report_timeout(net::NodeId node) {
    if (suspected_.contains(node)) return;
    if (++consecutive_timeouts_[node] >= threshold_) {
      suspected_.insert(node);
      consecutive_timeouts_.erase(node);
      if (on_suspect_) on_suspect_(node);
    }
  }

  void report_success(net::NodeId node) {
    consecutive_timeouts_.erase(node);
    if (suspected_.erase(node) > 0) {
      // The node answered: it was falsely suspected (its state is intact,
      // it never restarted), so re-admission needs no catch-up.
      if (on_rescind_) on_rescind_(node);
    }
  }

  /// Drop all detector state for `node` without firing callbacks.  Used by
  /// Cluster::recover_node, which drives provider re-admission itself once
  /// the catch-up pull completes.
  void forget(net::NodeId node) {
    consecutive_timeouts_.erase(node);
    suspected_.erase(node);
  }

  bool is_suspected(net::NodeId node) const {
    return suspected_.contains(node);
  }

  std::size_t suspected_count() const { return suspected_.size(); }

 private:
  std::uint32_t threshold_;
  SuspectCallback on_suspect_;
  SuspectCallback on_rescind_;
  FlatTable<std::uint32_t> consecutive_timeouts_;  // never iterated
  std::set<net::NodeId> suspected_;
};

}  // namespace qrdtm::core
