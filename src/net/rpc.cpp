#include "net/rpc.h"

#include <algorithm>
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

namespace {

// Call slots made on an endpoint's first call.
constexpr std::size_t kInitialCallSlots = 64;

}  // namespace

void RpcEndpoint::grow_pending() {
  std::vector<Pending> grown(
      std::max(kInitialCallSlots, 2 * pending_.size()));
  // Ids distinct modulo n stay distinct modulo 2n: no two calls collide.
  for (Pending& p : pending_) {
    if (p.rpc_id != 0) grown[p.rpc_id & (grown.size() - 1)] = std::move(p);
  }
  pending_ = std::move(grown);
}

bool RpcEndpoint::resolve(std::uint64_t rpc_id, RpcResult&& result) {
  if (pending_.empty()) return false;
  Pending& p = pending_[rpc_id & (pending_.size() - 1)];
  if (p.rpc_id != rpc_id) return false;
  sim::Promise<RpcResult> promise = std::move(*p.promise);
  p.promise.reset();
  p.rpc_id = 0;
  --in_flight_;
  promise.try_set(std::move(result));
  return true;
}

sim::Future<RpcResult> RpcEndpoint::call(NodeId dst, MsgKind kind, Bytes req,
                                         sim::Tick timeout) {
  if (2 * (in_flight_ + 1) > pending_.size()) grow_pending();
  const std::size_t mask = pending_.size() - 1;
  // Skip ids whose slot a longer-running call still holds.
  while (pending_[next_rpc_id_ & mask].rpc_id != 0) ++next_rpc_id_;
  const std::uint64_t rpc_id = next_rpc_id_++;
  sim::Promise<RpcResult> promise(sim_);
  auto future = promise.future();
  Pending& slot = pending_[rpc_id & mask];
  slot.rpc_id = rpc_id;
  slot.promise.emplace(std::move(promise));
  ++in_flight_;

  net_.send(Message{.src = id_,
                    .dst = dst,
                    .kind = kind,
                    .response = false,
                    .rpc_id = rpc_id,
                    .payload = std::move(req),
                    .trace = trace_ctx_});

  // Callers pass one fixed timeout, so deadlines arrive in order and ride
  // the simulator's FIFO timer lane instead of its heap.  A call already
  // answered is no longer in flight, and its timeout does nothing.
  sim_.schedule_timer_after(timeout, [this, rpc_id, dst]() {
    resolve(rpc_id, RpcResult{.ok = false, .from = dst, .payload = {}});
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
    RpcResult result{.ok = true, .from = m.src, .payload = std::move(m.payload)};
    if (!resolve(m.rpc_id, std::move(result))) {
      // Response raced with (and lost to) its timeout.
      net_.pool().release(std::move(result.payload));
    }
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
