#include "net/network.h"

#include <algorithm>
#include <utility>

namespace qrdtm::net {

void Network::send(Message&& m) {
  QRDTM_CHECK_MSG(m.dst < nodes_.size(), "send to unknown node");
  QRDTM_CHECK_MSG(m.src < nodes_.size(), "send from unknown node");
  QRDTM_CHECK_MSG(m.kind < kMsgKindSpace, "message kind out of range");

  ++stats_.sent_total;
  ++stats_.sent_by_kind_[m.kind];
  stats_.bytes_by_kind_[m.kind] += m.payload.size();
  if (m.payload.size() > payload_hint_[m.kind]) {
    payload_hint_[m.kind] = static_cast<std::uint32_t>(m.payload.size());
  }

  // A dead *sender* cannot emit messages.
  if (!nodes_[m.src].alive) {
    ++stats_.dropped_dead;
    pool_.release(std::move(m.payload));
    return;
  }

  // Chaos drop: only request/response traffic (rpc_id != 0); see the
  // set_drop_probability comment for why one-way notifies are exempt.  The
  // RNG draw is gated on the probability so chaos-free runs consume the
  // same random stream as before the hook existed.
  if (drop_prob_ > 0.0 && m.rpc_id != 0 && rng_.chance(drop_prob_)) {
    ++stats_.dropped_chaos;
    pool_.release(std::move(m.payload));
    return;
  }

  // Partition cut: request/response traffic between the two sides is lost;
  // one-way notifies ride the reliable channel just like chaos drops.
  if (partition_active_ && m.rpc_id != 0 &&
      partition_side_[m.src] != partition_side_[m.dst]) {
    ++stats_.dropped_partition;
    pool_.release(std::move(m.payload));
    return;
  }

  // Stamp the destination's current incarnation: if the destination dies or
  // restarts while this message is in flight, the epoch check at delivery
  // drops it instead of handing pre-crash traffic to the new incarnation.
  m.dst_epoch = nodes_[m.dst].epoch;

  const sim::Tick arrival = sim_.now() + latency_->one_way(m.src, m.dst, rng_) +
                            node_slowdown(m.src) + node_slowdown(m.dst);

  // The destination's service slot is taken at arrival, not here: the
  // message queues behind whatever arrived before it (FIFO by arrival
  // time), and its service starts when those are done.  The message moves
  // through both events; its payload is never copied between send() and the
  // handler.
  sim_.schedule_at(arrival, [this, m = std::move(m)]() mutable {
    NodeState& dst = nodes_[m.dst];
    if (!dst.alive || dst.epoch != m.dst_epoch) {
      ++(dst.alive ? stats_.dropped_stale : stats_.dropped_dead);
      pool_.release(std::move(m.payload));
      return;
    }
    const sim::Tick start = std::max(sim_.now(), dst.busy_until);
    const sim::Tick done = start + service_time_;
    dst.busy_until = done;
    sim_.schedule_at(done, [this, m = std::move(m)]() mutable {
      NodeState& d = nodes_[m.dst];
      if (!d.alive || d.epoch != m.dst_epoch) {
        ++(d.alive ? stats_.dropped_stale : stats_.dropped_dead);
        pool_.release(std::move(m.payload));
        return;
      }
      ++stats_.delivered_total;
      d.handler(std::move(m));
    });
  });
}

}  // namespace qrdtm::net
