// Unit tests for the simulated network and RPC layer (net/).
#include "net/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.h"
#include "net/latency.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace qrdtm::net {
namespace {

using sim::Simulator;
using sim::Task;
using sim::Tick;

std::unique_ptr<Network> make_net(Simulator& s, Tick latency,
                                  Tick service = sim::usec(50),
                                  Tick jitter = 0) {
  return std::make_unique<Network>(
      s, std::make_unique<UniformLatency>(latency, jitter), /*seed=*/7,
      service);
}

TEST(Network, DeliversAfterLatencyPlusService) {
  Simulator s;
  auto net = make_net(s, sim::msec(10), sim::usec(100));
  Tick delivered_at = 0;
  NodeId a = net->add_node([](const Message&) {});
  NodeId b = net->add_node([&](const Message&) { delivered_at = s.now(); });
  net->send(Message{.src = a, .dst = b, .kind = 1, .payload = {}});
  s.run();
  EXPECT_EQ(delivered_at, sim::msec(10) + sim::usec(100));
}

TEST(Network, ServiceQueueSerialisesArrivals) {
  Simulator s;
  auto net = make_net(s, sim::msec(1), sim::usec(500));
  std::vector<Tick> times;
  NodeId a = net->add_node([](const Message&) {});
  NodeId b = net->add_node([&](const Message&) { times.push_back(s.now()); });
  for (int i = 0; i < 3; ++i) {
    net->send(Message{.src = a, .dst = b, .kind = 1, .payload = {}});
  }
  s.run();
  ASSERT_EQ(times.size(), 3u);
  // All arrive at 1 ms; service slots are back-to-back 500 us each.
  EXPECT_EQ(times[0], sim::msec(1) + sim::usec(500));
  EXPECT_EQ(times[1], sim::msec(1) + sim::usec(1000));
  EXPECT_EQ(times[2], sim::msec(1) + sim::usec(1500));
}

TEST(Network, DeadDestinationDropsMessages) {
  Simulator s;
  auto net = make_net(s, sim::msec(1));
  int got = 0;
  NodeId a = net->add_node([](const Message&) {});
  NodeId b = net->add_node([&](const Message&) { ++got; });
  net->kill(b);
  net->send(Message{.src = a, .dst = b, .kind = 1, .payload = {}});
  s.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net->stats().dropped_dead, 1u);
  EXPECT_FALSE(net->alive(b));
}

TEST(Network, DeadSenderCannotSend) {
  Simulator s;
  auto net = make_net(s, sim::msec(1));
  int got = 0;
  NodeId a = net->add_node([](const Message&) {});
  NodeId b = net->add_node([&](const Message&) { ++got; });
  net->kill(a);
  net->send(Message{.src = a, .dst = b, .kind = 1, .payload = {}});
  s.run();
  EXPECT_EQ(got, 0);
}

TEST(Network, KillMidFlightDropsAtArrival) {
  Simulator s;
  auto net = make_net(s, sim::msec(10));
  int got = 0;
  NodeId a = net->add_node([](const Message&) {});
  NodeId b = net->add_node([&](const Message&) { ++got; });
  net->send(Message{.src = a, .dst = b, .kind = 1, .payload = {}});
  s.schedule_at(sim::msec(5), [&] { net->kill(b); });
  s.run();
  EXPECT_EQ(got, 0);
}

TEST(Network, StatsCountByKind) {
  Simulator s;
  auto net = make_net(s, sim::msec(1));
  NodeId a = net->add_node([](const Message&) {});
  NodeId b = net->add_node([](const Message&) {});
  net->send(Message{.src = a, .dst = b, .kind = 5, .payload = {}});
  net->send(Message{.src = a, .dst = b, .kind = 5, .payload = {}});
  net->send(Message{.src = a, .dst = b, .kind = 9, .payload = {}});
  s.run();
  EXPECT_EQ(net->stats().sent_total, 3u);
  EXPECT_EQ(net->stats().sent_by_kind(5), 2u);
  EXPECT_EQ(net->stats().sent_by_kind(9), 1u);
  EXPECT_EQ(net->stats().delivered_total, 3u);
}

TEST(Network, StatsCountPayloadBytesByKind) {
  Simulator s;
  auto net = make_net(s, sim::msec(1));
  NodeId a = net->add_node([](const Message&) {});
  NodeId b = net->add_node([](const Message&) {});
  net->send(Message{.src = a, .dst = b, .kind = 5, .payload = Bytes(3)});
  net->send(Message{.src = a, .dst = b, .kind = 5, .payload = Bytes(4)});
  net->send(Message{.src = a, .dst = b, .kind = 9, .payload = {}});
  // Bytes are counted where the message is, at send: a message to a dead
  // node still counts.
  net->kill(b);
  net->send(Message{.src = a, .dst = b, .kind = 9, .payload = Bytes(10)});
  s.run();
  EXPECT_EQ(net->stats().bytes_by_kind(5), 7u);
  EXPECT_EQ(net->stats().bytes_by_kind(9), 10u);
  EXPECT_EQ(net->stats().sent_by_kind(9), 2u);
  EXPECT_EQ(net->stats().bytes_by_kind(6), 0u);
}

TEST(GridLatency, IsSymmetricAndMetric) {
  Rng rng(3);
  GridLatency g(10, sim::msec(1), sim::msec(10), /*layout_seed=*/5);
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = 0; b < 10; ++b) {
      Tick ab = g.one_way(a, b, rng);
      Tick ba = g.one_way(b, a, rng);
      EXPECT_EQ(ab, ba) << a << "," << b;
      // Triangle inequality through any intermediate c (with base slack).
      for (NodeId c = 0; c < 10; ++c) {
        Tick ac = g.one_way(a, c, rng);
        Tick cb = g.one_way(c, b, rng);
        EXPECT_LE(ab, ac + cb + sim::msec(1));
      }
    }
  }
}

// ------------------------------------------------------------------- RPC

struct EchoCluster {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<RpcEndpoint> client;
  std::unique_ptr<RpcEndpoint> server;

  explicit EchoCluster(Tick latency = sim::msec(5)) {
    net = make_net(sim, latency);
    client = std::make_unique<RpcEndpoint>(sim, *net);
    server = std::make_unique<RpcEndpoint>(sim, *net);
    server->register_service(
        42, [](NodeId, const Bytes& req) -> std::optional<Bytes> {
          Bytes out = req;
          out.push_back(0xEE);
          return out;
        });
  }
};

TEST(Rpc, CallRoundTrips) {
  EchoCluster c;
  RpcResult got;
  c.sim.spawn([](EchoCluster* cl, RpcResult* out) -> Task<void> {
    auto fut = cl->client->call(cl->server->id(), 42, Bytes{1, 2},
                                sim::sec(1));
    *out = co_await fut;
  }(&c, &got));
  c.sim.run();
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.from, c.server->id());
  EXPECT_EQ(got.payload, (Bytes{1, 2, 0xEE}));
}

TEST(Rpc, TimeoutWhenServerDead) {
  EchoCluster c;
  c.net->kill(c.server->id());
  RpcResult got;
  Tick when = 0;
  c.sim.spawn([](EchoCluster* cl, RpcResult* out, Tick* t) -> Task<void> {
    *out = co_await cl->client->call(cl->server->id(), 42, Bytes{},
                                     sim::msec(100));
    *t = cl->sim.now();
  }(&c, &got, &when));
  c.sim.run();
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(when, sim::msec(100));
}

TEST(Rpc, MulticastGathersAllReplies) {
  Simulator s;
  auto net = make_net(s, sim::msec(2));
  RpcEndpoint client(s, *net);
  std::vector<std::unique_ptr<RpcEndpoint>> servers;
  std::vector<NodeId> members;
  for (int i = 0; i < 5; ++i) {
    servers.push_back(std::make_unique<RpcEndpoint>(s, *net));
    servers.back()->register_service(
        7, [i](NodeId, const Bytes&) -> std::optional<Bytes> {
          return Bytes{static_cast<std::uint8_t>(i)};
        });
    members.push_back(servers.back()->id());
  }
  std::vector<RpcResult> got;
  s.spawn([](RpcEndpoint* cl, std::vector<NodeId> m,
             std::vector<RpcResult>* out) -> Task<void> {
    std::vector<sim::Future<RpcResult>> futs;
    cl->multicast(m, 7, Bytes{}, sim::sec(1), &futs);
    for (auto& f : futs) out->push_back(co_await f);
  }(&client, members, &got));
  s.run();
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(got[i].ok);
    EXPECT_EQ(got[i].payload, Bytes{static_cast<std::uint8_t>(i)});
  }
}

TEST(Rpc, OneWayNotifyTakesNoReply) {
  Simulator s;
  auto net = make_net(s, sim::msec(1));
  RpcEndpoint a(s, *net);
  RpcEndpoint b(s, *net);
  int received = 0;
  b.register_service(9, [&](NodeId, const Bytes&) -> std::optional<Bytes> {
    ++received;
    return std::nullopt;
  });
  a.notify(b.id(), 9, Bytes{});
  s.run();
  EXPECT_EQ(received, 1);
  // Only the one request crossed the network (no response message).
  EXPECT_EQ(net->stats().sent_total, 1u);
}

TEST(Rpc, LateResponseAfterTimeoutIsIgnored) {
  // Server replies at 10 ms but the client gave up at 5 ms.
  Simulator s;
  auto net = make_net(s, sim::msec(5), /*service=*/sim::usec(1));
  RpcEndpoint client(s, *net);
  RpcEndpoint server(s, *net);
  server.register_service(1, [](NodeId, const Bytes&) -> std::optional<Bytes> {
    return Bytes{};
  });
  RpcResult got;
  s.spawn([](RpcEndpoint* cl, NodeId dst, RpcResult* out) -> Task<void> {
    *out = co_await cl->call(dst, 1, Bytes{}, sim::msec(5));
  }(&client, server.id(), &got));
  s.run();  // the response arrives ~10 ms, after the timeout resolved
  EXPECT_FALSE(got.ok);
}

/// Calls `dst` once with `req` and keeps the result and when it came.
Task<void> call_once(RpcEndpoint* from, NodeId dst, Bytes req, Tick timeout,
                     RpcResult* out, Tick* when) {
  *out = co_await from->call(dst, 42, std::move(req), timeout);
  *when = from->simulator().now();
}

TEST(Rpc, CallsOutlivingManyLaterCallsKeepTheirSlots) {
  // Three calls to a dead node hold their slots for the whole timeout,
  // while a burst of 200 concurrent calls grows the call table and 500
  // sequential ones cycle through it past the held slots.
  EchoCluster c(sim::usec(100));
  RpcEndpoint dead(c.sim, *c.net);
  c.net->kill(dead.id());
  constexpr int kLost = 3;
  constexpr int kBurst = 200;
  std::vector<RpcResult> lost(kLost);
  std::vector<RpcResult> burst(kBurst);
  std::vector<Tick> when(kLost + kBurst);
  for (int i = 0; i < kLost; ++i) {
    c.sim.spawn(call_once(c.client.get(), dead.id(), Bytes{}, sim::sec(1),
                          &lost[i], &when[i]));
  }
  for (int i = 0; i < kBurst; ++i) {
    c.sim.spawn(call_once(c.client.get(), c.server->id(),
                          Bytes{static_cast<std::uint8_t>(i), 7}, sim::sec(1),
                          &burst[i], &when[kLost + i]));
  }
  int echoed = 0;
  c.sim.spawn([](RpcEndpoint* cl, NodeId dst, int* ok) -> Task<void> {
    for (int i = 0; i < 500; ++i) {
      const Bytes req{static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)};
      RpcResult res = co_await cl->call(dst, 42, req, sim::sec(1));
      if (res.ok && res.payload == Bytes{req[0], req[1], 0xEE}) ++*ok;
    }
  }(c.client.get(), c.server->id(), &echoed));
  c.sim.run();
  EXPECT_EQ(echoed, 500);
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_TRUE(burst[i].ok) << i;
    EXPECT_EQ(burst[i].payload, (Bytes{static_cast<std::uint8_t>(i), 7, 0xEE}));
    EXPECT_LT(when[kLost + i], sim::sec(1));
  }
  for (int i = 0; i < kLost; ++i) {
    EXPECT_FALSE(lost[i].ok);
    EXPECT_EQ(lost[i].from, dead.id());
    EXPECT_EQ(when[i], sim::sec(1)) << "timed out, not answered by another";
  }
}

// --- allocation regression -------------------------------------------------
// With pooled payload buffers and the pooled event kernel, a full RPC round
// trip (request out, service, response back, decode, release) must not
// allocate in steady state.  The warm-up must outlast the RPC timeout:
// timeout events occupy event-pool slots until they expire, so the pool only
// reaches its steady-state size after the first timeouts start firing.

TEST(AllocRegression, SteadyStateRpcRoundTripIsAllocationFree) {
  if (!qrdtm::testing::alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build intercepts\n operator new, or replacement not linked in)";
  }
  Simulator s;
  auto net = make_net(s, sim::usec(100), sim::usec(10));
  RpcEndpoint client(s, *net);
  RpcEndpoint server(s, *net);
  server.register_service(
      42, [&server](NodeId, const Bytes& req) -> std::optional<Bytes> {
        Bytes out = server.acquire_buffer(42);
        out.assign(req.begin(), req.end());
        return out;
      });
  std::uint64_t after_warm = 0;
  std::uint64_t after_measure = 0;
  s.spawn([](RpcEndpoint* cl, NodeId dst, std::uint64_t* warm,
             std::uint64_t* measure) -> Task<void> {
    // ~220 us per round trip vs a 5 ms timeout: ~23 timeouts outstanding in
    // steady state, reached well within the first 2000 rounds.
    for (int i = 0; i <= 3000; ++i) {
      if (i == 2000) *warm = qrdtm::testing::alloc_count();
      Bytes req = cl->acquire_buffer(42);
      req.assign({1, 2, 3, 4});
      RpcResult res = co_await cl->call(dst, 42, std::move(req), sim::msec(5));
      if (res.ok) cl->release_buffer(std::move(res.payload));
    }
    *measure = qrdtm::testing::alloc_count();
  }(&client, server.id(), &after_warm, &after_measure));
  s.run();
  ASSERT_NE(after_measure, 0u);
  EXPECT_EQ(after_measure, after_warm);
}

}  // namespace
}  // namespace qrdtm::net
