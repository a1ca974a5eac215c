// Request/response RPC over the simulated network.
//
// Each node owns one RpcEndpoint.  Server-side protocol logic registers a
// synchronous service per message kind (replica handlers in QR are
// non-blocking: validate, read, vote -- all local work).  Client-side
// transaction runtimes issue `call`s and await the returned futures; quorum
// operations fan a request out to every member and gather all replies
// (multicast-and-gather, the JGroups pattern in the paper).
//
// A call either completes with the response payload or, after `timeout`,
// with ok=false (destination dead or response lost).
//
// Hot-path notes: the in-flight call table is a slot table addressed by the
// low bits of the rpc id, so a response and a timeout each check one slot
// (a call whose slot is taken skips to the next id; the table doubles
// before it is half full); the service table holds only the services a
// node registered, found in O(1) through a one-byte slot per message kind;
// and payload buffers are recycled through the network's BufferPool
// (request payloads after the service consumed them, response payloads
// after the caller decoded them).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "net/network.h"
#include "sim/sync.h"

namespace qrdtm::net {

struct RpcResult {
  bool ok = false;
  NodeId from = kNoNode;
  Bytes payload;
};

class RpcEndpoint {
 public:
  /// A service consumes a request payload and returns a response payload,
  /// or nullopt for one-way messages that take no reply.  A service that
  /// throws SerdeError rejects the payload as malformed: the message is
  /// dropped with no reply and counted in NetStats::dropped_malformed, so a
  /// service must parse the whole payload before it changes any state.
  /// Registered once per node at setup; only invoked on the per-message
  /// path.
  using Service =  // qrdtm-lint: allow(hot-std-function)
      std::function<std::optional<Bytes>(NodeId src, const Bytes& req)>;

  /// Creates the endpoint and registers it with the network.
  RpcEndpoint(sim::Simulator& sim, Network& net);

  NodeId id() const { return id_; }
  sim::Simulator& simulator() { return sim_; }
  Network& network() { return net_; }

  void register_service(MsgKind kind, Service service);

  /// Issue a request; the future resolves with the response or with
  /// ok=false after `timeout`.
  sim::Future<RpcResult> call(NodeId dst, MsgKind kind, Bytes req,
                              sim::Tick timeout);

  /// Fire-and-forget one-way message.
  void notify(NodeId dst, MsgKind kind, Bytes payload);

  /// Fan `req` out to every member and put the futures, in member order,
  /// into `*gather` (cleared first).  Await them all to implement
  /// multicast-and-gather.  The caller owns the gather storage, so a caller
  /// that keeps it across rounds multicasts without allocating.
  void multicast(const std::vector<NodeId>& members, MsgKind kind,
                 const Bytes& req, sim::Tick timeout,
                 std::vector<sim::Future<RpcResult>>* gather);

  /// Acquire a pooled payload buffer pre-reserved from the running size
  /// high-watermark for `kind`.
  Bytes acquire_buffer(MsgKind kind) {
    return net_.pool().acquire(net_.payload_size_hint(kind));
  }

  /// Return a consumed payload (e.g. a decoded RpcResult's) to the pool.
  void release_buffer(Bytes&& b) { net_.pool().release(std::move(b)); }

  /// Span context stamped into every outgoing *request* envelope (qrdtm-
  /// trace).  Several client coroutines share one endpoint, so callers set
  /// the context immediately before issuing sends, with no suspension in
  /// between; 0 means untraced.
  void set_trace_context(std::uint64_t ctx) { trace_ctx_ = ctx; }

  /// Span context of the request currently being served, valid only inside
  /// a registered service invocation (0 otherwise).  Lets server handlers
  /// tag trace events with the originating root transaction.
  std::uint64_t inbound_trace() const { return inbound_trace_; }

 private:
  void handle(Message&& m);

  /// An in-flight call's slot; rpc_id 0 = free.
  struct Pending {
    std::uint64_t rpc_id = 0;
    std::optional<sim::Promise<RpcResult>> promise;
  };

  /// Resolve the in-flight call `rpc_id` with `result`; false when it is
  /// no longer in flight (already answered or timed out).
  bool resolve(std::uint64_t rpc_id, RpcResult&& result);
  /// Double the call table, keeping every in-flight call.
  void grow_pending();

  sim::Simulator& sim_;
  Network& net_;
  NodeId id_;
  std::uint64_t next_rpc_id_ = 1;
  std::uint64_t trace_ctx_ = 0;
  std::uint64_t inbound_trace_ = 0;
  // services_[service_slot_[kind] - 1] serves `kind`; slot 0 = none.  A
  // node registers about ten of the kMsgKindSpace kinds.
  std::array<std::uint8_t, kMsgKindSpace> service_slot_{};
  std::vector<Service> services_;
  // pending_[rpc_id & (size - 1)] holds call rpc_id while it is in flight;
  // ids are never 0 (0 marks a notify) and never share a slot.
  std::vector<Pending> pending_;
  std::size_t in_flight_ = 0;
};

}  // namespace qrdtm::net
