#include "net/rpc.h"

#include <utility>

#include "common/check.h"
#include "common/serde.h"

namespace qrdtm::net {

RpcEndpoint::RpcEndpoint(sim::Simulator& sim, Network& net)
    : sim_(sim), net_(net) {
  id_ = net_.add_node([this](Message&& m) { handle(std::move(m)); });
}

void RpcEndpoint::register_service(MsgKind kind, Service service) {
  QRDTM_CHECK_MSG(kind < kMsgKindSpace, "message kind out of range");
  QRDTM_CHECK_MSG(service_slot_[kind] == 0, "duplicate service registration");
  QRDTM_CHECK_MSG(services_.size() < 0xff, "too many services");
  services_.push_back(std::move(service));
  service_slot_[kind] = static_cast<std::uint8_t>(services_.size());
}

sim::Future<RpcResult> RpcEndpoint::call(NodeId dst, MsgKind kind, Bytes req,
                                         sim::Tick timeout) {
  const std::uint64_t rpc_id = next_rpc_id_++;
  sim::Promise<RpcResult> promise(sim_);
  auto future = promise.future();
  pending_.push_back(Pending{rpc_id, promise});

  net_.send(Message{.src = id_,
                    .dst = dst,
                    .kind = kind,
                    .response = false,
                    .rpc_id = rpc_id,
                    .payload = std::move(req),
                    .trace = trace_ctx_});

  // Callers pass one fixed timeout, so deadlines arrive in order and ride
  // the simulator's FIFO timer lane instead of its heap.
  sim_.schedule_timer_after(timeout, [this, rpc_id, dst]() {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].rpc_id != rpc_id) continue;
      pending_[i].promise.try_set(
          RpcResult{.ok = false, .from = dst, .payload = {}});
      pending_[i] = std::move(pending_.back());
      pending_.pop_back();
      return;
    }
    // Not found: already resolved by a response.
  });
  return future;
}

void RpcEndpoint::notify(NodeId dst, MsgKind kind, Bytes payload) {
  net_.send(Message{.src = id_,
                    .dst = dst,
                    .kind = kind,
                    .response = false,
                    .rpc_id = 0,
                    .payload = std::move(payload),
                    .trace = trace_ctx_});
}

void RpcEndpoint::multicast(const std::vector<NodeId>& members, MsgKind kind,
                            const Bytes& req, sim::Tick timeout,
                            std::vector<sim::Future<RpcResult>>* gather) {
  gather->clear();
  for (NodeId m : members) {
    // Per-member copy lands in a pooled buffer, not a fresh allocation.
    Bytes copy = net_.pool().acquire(req.size());
    copy.assign(req.begin(), req.end());
    gather->push_back(call(m, kind, std::move(copy), timeout));
  }
}

void RpcEndpoint::handle(Message&& m) {
  if (m.response) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].rpc_id != m.rpc_id) continue;
      pending_[i].promise.try_set(RpcResult{
          .ok = true, .from = m.src, .payload = std::move(m.payload)});
      pending_[i] = std::move(pending_.back());
      pending_.pop_back();
      return;
    }
    // Response raced with (and lost to) its timeout.
    net_.pool().release(std::move(m.payload));
    return;
  }

  const std::uint8_t slot = m.kind < kMsgKindSpace ? service_slot_[m.kind] : 0;
  QRDTM_CHECK_MSG(slot != 0, "no service for message kind");
  inbound_trace_ = m.trace;
  std::optional<Bytes> reply;
  try {
    reply = services_[slot - 1](m.src, m.payload);
  } catch (const SerdeError&) {
    // A malformed request is this message's fault, not the run's: drop it
    // with no reply (a caller times out, as for a lost message) and keep
    // its buffer in the pool.  Services parse the whole message before
    // acting on it, so the drop leaves the replica unchanged.
    net_.count_malformed();
  }
  inbound_trace_ = 0;
  net_.pool().release(std::move(m.payload));
  if (reply.has_value()) {
    if (m.rpc_id != 0) {
      net_.send(Message{.src = id_,
                        .dst = m.src,
                        .kind = m.kind,
                        .response = true,
                        .rpc_id = m.rpc_id,
                        .payload = std::move(*reply)});
    } else {
      // A one-way notify() handled by a replying service: the reply has no
      // recipient, but its buffer must still go back to the pool or the
      // pool's working set shrinks by one buffer per dropped reply.
      net_.pool().release(std::move(*reply));
    }
  }
}

}  // namespace qrdtm::net
