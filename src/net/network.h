// Simulated message-passing network with per-node service queues and
// failure injection.
//
// Delivery pipeline for Network::send(m):
//   now --(one-way link latency)--> arrival at m.dst
//       --(FIFO wait behind earlier messages)--> service start
//       --(service time)--> handler invoked.
// The per-node FIFO service queue models a replica's finite message-handling
// capacity; it is what produces the hotspot -> load-balance -> degradation
// shape of the paper's Fig. 10 (a single-node read quorum saturates).
//
// Failure injection: kill(n) makes node n drop every message addressed to it
// from the kill instant onward (fail-stop).  Messages already handed to a
// dead node are lost; callers recover via RPC timeouts or by reconfiguring
// quorums around known-dead nodes (paper §VI-D).  revive(n) restarts the
// node (Cluster::recover_node layers state catch-up on top); each kill and
// revive bumps the node's liveness epoch, and in-flight messages stamped
// with an older epoch are dropped at delivery -- a revived node never sees
// traffic addressed to its previous incarnation, and the dropped payloads
// go back to the pool.
//
// Partition injection: set_partition(side_a) drops request/response traffic
// crossing the cut (both directions) until clear_partition(); one-way
// notifies are exempt for the same reason as chaos drops (see
// set_drop_probability).
//
// Hot-path notes: messages move (never copy) from send() through the two
// delivery events into the handler, dropped payloads are recycled through
// the network's BufferPool, and per-kind counters/size-hints are flat arrays
// indexed by MsgKind (kind space is bounded, see kMsgKindSpace).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/pool.h"
#include "common/rng.h"
#include "net/latency.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace qrdtm::net {

/// Upper bound (exclusive) on MsgKind values, sized to cover every protocol
/// range (0x01xx QR family, 0x02xx TFA, 0x03xx DecentSTM) with headroom.
/// Keeping the kind space dense lets per-kind state be flat arrays.
constexpr std::size_t kMsgKindSpace = 0x0400;

/// Per-kind and aggregate message counters (paper Fig. 8 reports message
/// deltas; the core metrics map kinds onto read/commit categories), plus
/// per-kind payload bytes.  Requests and their responses share a kind, so a
/// kind's bytes cover both directions.
struct NetStats {
  std::uint64_t sent_total = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t dropped_dead = 0;
  std::uint64_t dropped_chaos = 0;
  std::uint64_t dropped_stale = 0;      // epoch mismatch (pre-crash traffic)
  std::uint64_t dropped_partition = 0;  // crossed an active partition cut
  std::uint64_t dropped_malformed = 0;  // a service rejected it (SerdeError)

  std::uint64_t sent_by_kind(MsgKind k) const { return sent_by_kind_[k]; }
  std::uint64_t bytes_by_kind(MsgKind k) const { return bytes_by_kind_[k]; }

  std::array<std::uint64_t, kMsgKindSpace> sent_by_kind_{};
  std::array<std::uint64_t, kMsgKindSpace> bytes_by_kind_{};
};

class Network {
 public:
  // Constructed once per node at registration, then only *invoked* per
  // delivery -- construction cost never hits the per-message path.
  // qrdtm-lint: allow(hot-std-function)
  using Handler = std::function<void(Message&&)>;

  Network(sim::Simulator& sim, std::unique_ptr<LatencyModel> latency,
          std::uint64_t seed, sim::Tick service_time = sim::usec(50))
      : sim_(sim),
        latency_(std::move(latency)),
        rng_(seed),
        service_time_(service_time) {}

  /// Register a node's message handler.  Node ids must be dense from 0.
  NodeId add_node(Handler h) {
    nodes_.push_back(NodeState{std::move(h), /*alive=*/true,
                               /*busy_until=*/0, /*epoch=*/0});
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  bool alive(NodeId n) const {
    QRDTM_CHECK(n < nodes_.size());
    return nodes_[n].alive;
  }

  /// Fail-stop the node.  Idempotent.  The epoch bump makes every message
  /// already in flight toward the node stale, so its queue drains to the
  /// buffer pool instead of lingering until a revive.
  void kill(NodeId n) {
    QRDTM_CHECK(n < nodes_.size());
    if (!nodes_[n].alive) return;
    nodes_[n].alive = false;
    ++nodes_[n].epoch;
  }

  /// Restart a killed node with a fresh incarnation.  Idempotent.  The
  /// epoch bump guarantees no pre-crash message can be replayed into the
  /// new incarnation; busy_until resets because the restarted replica's
  /// service queue is empty.
  void revive(NodeId n) {
    QRDTM_CHECK(n < nodes_.size());
    if (nodes_[n].alive) return;
    nodes_[n].alive = true;
    ++nodes_[n].epoch;
    nodes_[n].busy_until = 0;
  }

  /// Liveness-epoch counter for node n (bumped on each kill and revive).
  std::uint32_t epoch(NodeId n) const {
    QRDTM_CHECK(n < nodes_.size());
    return nodes_[n].epoch;
  }

  /// Enqueue a message for delivery.  Never blocks the sender (the paper's
  /// JGroups sends are asynchronous; senders wait on replies, not sends).
  void send(Message&& m);

  /// Chaos hook: drop each request/response message (rpc_id != 0) with
  /// probability p.  One-way notifies (rpc_id == 0: commit confirms, lock
  /// releases, baseline writebacks/applies) model JGroups reliable delivery
  /// and are exempt -- callers have no timeout path to recover a lost
  /// notify, whereas dropped RPC traffic is recovered exactly like a dead
  /// member (timeout + retry/abort).  The drop RNG is only consulted while
  /// a probability is set, so chaos-free runs stay bit-identical.
  void set_drop_probability(double p) {
    QRDTM_CHECK_MSG(p >= 0.0 && p < 1.0, "drop probability out of range");
    drop_prob_ = p;
  }
  double drop_probability() const { return drop_prob_; }

  /// Chaos hook: add `extra` one-way latency to every message sent or
  /// received by node n (a slow-but-alive node; 0 restores normal speed).
  /// Slowdowns above the RPC timeout make a live node look dead to its
  /// peers without losing its state -- the false-suspicion scenario.
  void set_node_slowdown(NodeId n, sim::Tick extra) {
    QRDTM_CHECK(n < nodes_.size());
    if (slowdown_.size() < nodes_.size()) slowdown_.resize(nodes_.size(), 0);
    slowdown_[n] = extra;
  }
  sim::Tick node_slowdown(NodeId n) const {
    return n < slowdown_.size() ? slowdown_[n] : 0;
  }

  /// Chaos hook: symmetric partition.  Nodes listed in `side_a` form one
  /// side of the cut, everyone else the other; request/response traffic
  /// crossing the cut is dropped at send time until clear_partition().
  /// One-way notifies are exempt (see set_drop_probability).  The check is
  /// gated on an active partition, so partition-free runs do no per-message
  /// work.
  void set_partition(const std::vector<NodeId>& side_a) {
    partition_side_.assign(nodes_.size(), 0);
    for (NodeId n : side_a) {
      QRDTM_CHECK(n < nodes_.size());
      partition_side_[n] = 1;
    }
    partition_active_ = true;
  }
  void clear_partition() { partition_active_ = false; }

  const NetStats& stats() const { return stats_; }

  /// Count a delivered request that its service rejected as malformed and
  /// dropped (RpcEndpoint::handle).
  void count_malformed() { ++stats_.dropped_malformed; }

  /// Service time charged per handled message at the destination replica.
  sim::Tick service_time() const { return service_time_; }

  /// Shared payload-buffer pool.  Encoders acquire here; consumed payloads
  /// are released back so steady-state traffic does not allocate.
  BufferPool& pool() { return pool_; }

  /// Running high-watermark of payload sizes seen per kind -- used as the
  /// reserve() hint when encoding the next message of that kind.
  std::size_t payload_size_hint(MsgKind k) const {
    return payload_hint_[k];
  }

 private:
  struct NodeState {
    Handler handler;
    bool alive;
    sim::Tick busy_until;
    std::uint32_t epoch;  // incarnation counter; bumped on kill and revive
  };

  sim::Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  sim::Tick service_time_;
  double drop_prob_ = 0.0;
  bool partition_active_ = false;
  std::vector<std::uint8_t> partition_side_;  // sized on set_partition
  std::vector<sim::Tick> slowdown_;  // lazily sized; empty = no slow nodes
  std::vector<NodeState> nodes_;
  NetStats stats_;
  BufferPool pool_;
  std::array<std::uint32_t, kMsgKindSpace> payload_hint_{};
};

}  // namespace qrdtm::net
