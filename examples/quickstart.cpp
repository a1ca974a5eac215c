// Quickstart: a 13-node fault-tolerant DTM cluster running bank transfers
// under closed nesting.
//
//   $ ./build/examples/quickstart
//
// Walks through the whole public API: building a Cluster, seeding
// replicated objects, running transactions (with a closed-nested scope per
// transfer), and reading the metrics.
#include <cstdio>
#include <span>

#include "common/serde.h"
#include "core/cluster.h"

using namespace qrdtm;
using core::Cluster;
using core::ClusterConfig;
using core::ObjectId;
using core::Txn;

namespace {

Bytes enc_i64(std::int64_t v) {
  Writer w;
  w.i64(v);
  return std::move(w).take();
}

std::int64_t dec_i64(std::span<const std::uint8_t> b) {
  Reader r(b);
  return r.i64();
}

}  // namespace

int main() {
  // 1. Configure a cluster: 13 nodes in a ternary tree (paper Fig. 3),
  //    closed nesting (QR-CN), ~30 ms simulated quorum round trips.
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.runtime.mode = core::NestingMode::kClosed;
  cfg.seed = 2026;
  Cluster cluster(cfg);

  // 2. Seed two replicated account objects on every node.
  ObjectId alice = cluster.seed_new_object(enc_i64(100));
  ObjectId bob = cluster.seed_new_object(enc_i64(100));

  // 3. Run ten transfer transactions from different nodes, lightly
  //    staggered (two hot accounts shared by everyone is maximum
  //    contention).  Each transfer is one closed-nested scope: under
  //    contention it can retry alone, without restarting its enclosing
  //    transaction.
  for (int i = 0; i < 10; ++i) {
    cluster.simulator().schedule_at(sim::msec(60) * i, [&cluster, i, alice,
                                                       bob] {
      cluster.spawn_client(
          static_cast<net::NodeId>(i % cluster.num_nodes()),
          [alice, bob](Txn& t) -> sim::Task<void> {
            co_await t.nested([&](Txn& transfer) -> sim::Task<void> {
              std::int64_t a =
                  dec_i64(co_await transfer.read_for_write(alice));
              std::int64_t b = dec_i64(co_await transfer.read_for_write(bob));
              transfer.write(alice, enc_i64(a - 5));
              transfer.write(bob, enc_i64(b + 5));
            });
          });
    });
  }
  cluster.run_to_completion();

  // 4. Read the final balances through a read-only transaction (commits
  //    locally under QR-CN: zero commit messages).
  std::int64_t a = 0, b = 0;
  cluster.spawn_client(0, [&](Txn& t) -> sim::Task<void> {
    a = dec_i64(co_await t.read(alice));
    b = dec_i64(co_await t.read(bob));
  });
  cluster.run_to_completion();

  const core::Metrics& m = cluster.metrics();
  std::printf("final balances: alice=%lld bob=%lld (conserved: %s)\n",
              static_cast<long long>(a), static_cast<long long>(b),
              a + b == 200 ? "yes" : "NO");
  std::printf("commits=%llu root-aborts=%llu ct-retries=%llu\n",
              static_cast<unsigned long long>(m.commits),
              static_cast<unsigned long long>(m.root_aborts),
              static_cast<unsigned long long>(m.ct_aborts));
  std::printf("messages: read=%llu commit=%llu, simulated time=%.2f s\n",
              static_cast<unsigned long long>(m.read_messages),
              static_cast<unsigned long long>(m.commit_messages),
              sim::to_seconds(cluster.duration()));
  return a + b == 200 ? 0 : 1;
}
