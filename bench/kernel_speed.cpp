// Hot-path microbenchmarks for the simulation substrate itself: raw kernel
// event throughput, RPC round-trips, Rqv remote reads as the carried
// data-set grows, the client's transaction tree (remote reads, CT merges and
// aborts), and a replica serving 2PC rounds.  These are the paths
// every experiment in the reproduction funnels through; --benchmark_out
// here (and the end-to-end point qrdtm_run --metrics-json writes) tracks
// their trajectory across perf changes.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/cluster.h"
#include "core/qr_server.h"
#include "core/wire.h"
#include "net/latency.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace qrdtm {
namespace {

// ----------------------------------------------------------------- kernel

/// Self-rescheduling timer chain: one live event at a time, so this measures
/// pure schedule+fire cost (pool hit, heap push/pop, callable dispatch).
struct Chain {
  sim::Simulator* s;
  std::uint64_t left;
  void operator()() {
    if (left-- > 1) s->schedule_after(1, *this);
  }
};

void BM_KernelEventChain(benchmark::State& state) {
  constexpr std::uint64_t kEvents = 1 << 17;
  for (auto _ : state) {
    sim::Simulator s;
    s.schedule_after(1, Chain{&s, kEvents});
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.items_processed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelEventChain);

/// Wide heap: many pending events at once (the steady state of a cluster
/// with in-flight messages), exercising sift-up/down under load.
void BM_KernelEventHeap(benchmark::State& state) {
  constexpr std::uint64_t kPending = 4096;
  constexpr std::uint64_t kRounds = 64;
  for (auto _ : state) {
    sim::Simulator s;
    // Seed kPending staggered chains; each reschedules itself kRounds times.
    for (std::uint64_t i = 0; i < kPending; ++i) {
      s.schedule_at(1 + (i * 2654435761u) % 100000, Chain{&s, kRounds});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPending * kRounds));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.items_processed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelEventHeap);

// -------------------------------------------------------------------- rpc

void BM_RpcRoundTrip(benchmark::State& state) {
  constexpr std::uint64_t kCalls = 4096;
  sim::Simulator s;
  net::Network net(s, std::make_unique<net::UniformLatency>(sim::usec(10), 0),
                   /*seed=*/7, /*service_time=*/sim::usec(1));
  net::RpcEndpoint client(s, net);
  net::RpcEndpoint server(s, net);
  server.register_service(
      42, [](net::NodeId, const Bytes& req) -> std::optional<Bytes> {
        return req;  // echo
      });
  for (auto _ : state) {
    s.spawn([](net::RpcEndpoint* cl, net::NodeId dst) -> sim::Task<void> {
      Bytes req{1, 2, 3, 4, 5, 6, 7, 8};
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        auto fut = cl->call(dst, 42, req, sim::sec(1));
        net::RpcResult res = co_await fut;
        benchmark::DoNotOptimize(res.ok);
      }
    }(&client, server.id()));
    s.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCalls));
  state.counters["rpc_per_sec"] = benchmark::Counter(
      static_cast<double>(state.items_processed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RpcRoundTrip);

// -------------------------------------------------------- Rqv remote reads

/// Remote reads under QR-CN while the transaction's data-set grows to the
/// given size: every read ships the full data-set (Rqv), so per-read cost is
/// dominated by data-set collection + encoding.
void BM_ReadWithDataSet(benchmark::State& state) {
  const std::uint32_t dataset = static_cast<std::uint32_t>(state.range(0));
  core::ClusterConfig cc;
  cc.num_nodes = 4;
  cc.runtime.mode = core::NestingMode::kClosed;
  cc.link_latency = sim::usec(10);
  cc.link_jitter = 0;
  cc.service_time = sim::usec(1);
  core::Cluster cluster(cc);
  std::vector<core::ObjectId> ids;
  ids.reserve(dataset);
  for (std::uint32_t i = 0; i < dataset; ++i) {
    ids.push_back(cluster.seed_new_object(Bytes(16, 0xAB)));
  }
  for (auto _ : state) {
    // `ids` outlives the coroutine: run_to_completion() below drains the
    // client before the next iteration, and copying the dataset per spawn
    // would distort this allocation-free microbenchmark.
    // qrdtm-lint: allow(coro-ref-capture)
    cluster.spawn_client(0, [&ids](core::Txn& t) -> sim::Task<void> {
      for (core::ObjectId id : ids) {
        const core::ValueSpan b = co_await t.read(id);
        benchmark::DoNotOptimize(b.size());
      }
    });
    cluster.run_to_completion();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dataset));
  state.counters["reads_per_sec"] = benchmark::Counter(
      static_cast<double>(state.items_processed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReadWithDataSet)->Arg(4)->Arg(32)->Arg(128);

// --------------------------------------------- the client's transaction tree

/// A QR-CN cluster on fast links with `objects` seeded 16-byte objects.
struct TreeRig {
  explicit TreeRig(std::uint32_t objects) : cluster(config()) {
    ids.reserve(objects);
    for (std::uint32_t i = 0; i < objects; ++i) {
      ids.push_back(cluster.seed_new_object(Bytes(16, 0xAB)));
    }
  }
  static core::ClusterConfig config() {
    core::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.runtime.mode = core::NestingMode::kClosed;
    cc.link_latency = sim::usec(10);
    cc.link_jitter = 0;
    cc.service_time = sim::usec(1);
    return cc;
  }
  /// Apply `id` one version newer on every replica, so the next Rqv
  /// validation of a copy fetched before fails.
  void bump(core::ObjectId id) {
    const core::Version next = cluster.server(0).store().version_of(id) + 1;
    for (net::NodeId n = 0; n < cluster.num_nodes(); ++n) {
      cluster.server(n).store().apply(id, next, value);
    }
  }

  core::Cluster cluster;
  std::vector<core::ObjectId> ids;
  const Bytes value = Bytes(16, 0xCD);
  bool bumped = false;
};

/// The client half of a remote read: one root transaction per iteration
/// reading the given number of objects through the read quorum (Rqv under
/// QR-CN), then committing locally (read-only).  Counts the runtime's
/// per-read work -- request encode from the data-set, multicast and gather,
/// the winning value into the transaction's sets, the value handed to the
/// body -- next to the replica and network work BM_ReadWithDataSet covers.
void BM_ClientRemoteRead(benchmark::State& state) {
  const auto reads = static_cast<std::uint32_t>(state.range(0));
  TreeRig rig(reads);
  TreeRig* r = &rig;
  const core::TxnBody body = [r](core::Txn& t) -> sim::Task<void> {
    for (core::ObjectId id : r->ids) {
      const auto value = co_await t.read(id);
      benchmark::DoNotOptimize(value.size());
    }
  };
  for (auto _ : state) {
    rig.cluster.spawn_client(0, body);
    rig.cluster.run_to_completion();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(reads));
  state.counters["reads_per_sec"] = benchmark::Counter(
      static_cast<double>(state.items_processed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClientRemoteRead)->Arg(1)->Arg(16);

/// Closed-nested scopes merging and aborting: per iteration one root whose
/// first CT reads four objects and merges, and whose second CT reads one,
/// finds it invalidated (Rqv), aborts, retries and merges.  The root is
/// read-only and commits locally.
void BM_CtMergeAbort(benchmark::State& state) {
  TreeRig rig(6);
  TreeRig* r = &rig;
  const core::TxnBody body = [r](core::Txn& t) -> sim::Task<void> {
    co_await t.nested([r](core::Txn& ct) -> sim::Task<void> {
      for (std::size_t i = 0; i < 4; ++i) (void)co_await ct.read(r->ids[i]);
    });
    co_await t.nested([r](core::Txn& ct) -> sim::Task<void> {
      (void)co_await ct.read(r->ids[4]);
      if (!r->bumped) {
        r->bumped = true;
        r->bump(r->ids[4]);
      }
      (void)co_await ct.read(r->ids[5]);
    });
  };
  for (auto _ : state) {
    rig.bumped = false;
    rig.cluster.spawn_client(0, body);
    rig.cluster.run_to_completion();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["ct_aborts_per_root"] =
      static_cast<double>(rig.cluster.metrics().ct_aborts) /
      static_cast<double>(state.iterations());
  state.counters["roots_per_sec"] = benchmark::Counter(
      static_cast<double>(state.items_processed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CtMergeAbort);

// ------------------------------------------------------ 2PC, replica side

/// One replica serving a commit vote and its confirm per iteration, on a
/// write-set of the given size with 32-byte values: the decode, validation,
/// protection, WAL prepare and confirm, and apply that a write-quorum member
/// does per 2PC round.  Both messages are one-way and encoded into pooled
/// buffers, so the count is the server side plus two small encodes.
void BM_CommitVoteConfirm(benchmark::State& state) {
  const auto writes = static_cast<core::ObjectId>(state.range(0));
  sim::Simulator s;
  net::Network net(s, std::make_unique<net::UniformLatency>(sim::usec(10), 0),
                   /*seed=*/7, /*service_time=*/sim::usec(1));
  net::RpcEndpoint client(s, net);
  net::RpcEndpoint server_ep(s, net);
  core::Metrics metrics;
  core::QrServer server(server_ep, metrics);
  // Cut the log like a cluster replica does (RuntimeConfig's default).
  server.set_max_tail_bytes(core::RuntimeConfig{}.log_max_tail_bytes);
  core::CommitRequest req;
  for (core::ObjectId id = 1; id <= writes; ++id) {
    server.seed_object(id, Bytes(32, 0xAB));
    req.writeset.push_back(core::CommitWriteEntry{id, 1, Bytes(32, 0xCD)});
  }
  core::CommitConfirm confirm;
  confirm.commit = true;
  const auto send = [&](net::MsgKind kind, const auto& message) {
    Writer w(client.acquire_buffer(kind));
    message.encode_into(w);
    client.notify(server_ep.id(), kind, std::move(w).take());
  };
  core::TxnId txn = 1;
  for (auto _ : state) {
    req.txn = txn++;
    confirm.txn = req.txn;
    confirm.writeset = req.writeset;
    send(core::msg::kCommitRequest, req);
    send(core::msg::kCommitConfirm, confirm);
    s.run();
    for (core::CommitWriteEntry& e : req.writeset) ++e.base;
  }
  benchmark::DoNotOptimize(server.store().version_of(writes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(state.items_processed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CommitVoteConfirm)->Arg(1)->Arg(16);

}  // namespace
}  // namespace qrdtm

BENCHMARK_MAIN();
