// Fault-tolerance tests: fail-stop nodes before and during workloads and
// check the cluster keeps committing with invariants intact (paper §VI-D).
#include <gtest/gtest.h>
#include <span>

#include "apps/bank.h"
#include "common/serde.h"
#include "core/cluster.h"

namespace qrdtm::core {
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

TEST(Failures, TreeQuorumSurvivesLeafDeath) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 3;
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(0));

  // Kill three leaves (none of which block level-1 read quorums or the
  // rooted write majority).
  c.kill_node(10);
  c.kill_node(11);
  c.kill_node(12);

  for (int i = 0; i < 5; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i), [obj](Txn& t) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await t.read_for_write(obj));
      t.write(obj, enc_i64(v + 1));
    });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 5u);

  std::int64_t final_v = 0;
  c.spawn_client(0, [&, obj](Txn& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, 5);
}

TEST(Failures, ReadsSurviveInternalNodeDeath) {
  // Killing n1 forces the read quorum to substitute its children.
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 4;
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(7));
  c.kill_node(1);

  std::int64_t seen = 0;
  c.spawn_client(5, [&, obj](Txn& t) -> sim::Task<void> {
    seen = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 7);
}

TEST(Failures, MidRunFailureDoesNotLoseCommittedState) {
  // Writes committed while a (future-dead) node was alive must stay
  // readable after it dies: the write quorum replicated them.
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 5;
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(100));

  c.spawn_client(2, [obj](Txn& t) -> sim::Task<void> {
    (void)co_await t.read_for_write(obj);
    t.write(obj, enc_i64(200));
  });
  c.run_to_completion();

  // Now kill two members; a fresh reader must still see 200.
  c.kill_node(12);
  c.kill_node(9);
  std::int64_t seen = 0;
  c.spawn_client(4, [&, obj](Txn& t) -> sim::Task<void> {
    seen = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 200);
}

TEST(Failures, FlatFailureAwareWorkloadSurvivesEightDeaths) {
  ClusterConfig cfg;
  cfg.num_nodes = 28;
  cfg.quorum = QuorumKind::kFlatFailureAware;
  cfg.seed = 6;
  Cluster c(cfg);
  apps::BankApp bank;
  apps::WorkloadParams params;
  params.num_objects = 32;
  params.read_ratio = 0.2;
  Rng setup_rng(9);
  bank.setup(c, params, setup_rng);

  for (net::NodeId f = 27; f >= 20; --f) {
    c.kill_node(f);
  }
  for (net::NodeId n = 0; n < 12; ++n) {
    c.spawn_loop_client(n, [&](Rng& rng) { return bank.make_txn(params, rng); });
  }
  c.run_for(sim::sec(10));
  c.run_to_completion();
  EXPECT_GT(c.metrics().commits, 20u);

  bool ok = false;
  c.spawn_client(0, bank.make_checker(&ok));
  c.run_to_completion();
  EXPECT_TRUE(ok) << "balance conservation violated under failures";
}

TEST(Failures, KillDuringWorkloadIsSurvivable) {
  // Nodes die while transactions are in flight; in-flight requests to dead
  // members time out, quorums reconfigure, and the workload finishes with
  // conserved balances.
  ClusterConfig cfg;
  cfg.num_nodes = 28;
  cfg.quorum = QuorumKind::kFlatFailureAware;
  cfg.seed = 7;
  cfg.runtime.rpc_timeout = sim::msec(150);
  Cluster c(cfg);
  apps::BankApp bank;
  apps::WorkloadParams params;
  params.num_objects = 32;
  params.read_ratio = 0.2;
  Rng setup_rng(10);
  bank.setup(c, params, setup_rng);

  for (net::NodeId n = 0; n < 10; ++n) {
    c.spawn_loop_client(n, [&](Rng& rng) { return bank.make_txn(params, rng); });
  }
  // Staggered mid-run deaths.
  for (int i = 0; i < 4; ++i) {
    c.simulator().schedule_at(sim::sec(2 + i), [&c, i] {
      c.kill_node(static_cast<net::NodeId>(27 - i));
    });
  }
  c.run_for(sim::sec(12));
  c.run_to_completion();
  EXPECT_GT(c.metrics().commits, 20u);

  bool ok = false;
  c.spawn_client(0, bank.make_checker(&ok));
  c.run_to_completion();
  EXPECT_TRUE(ok);
}

TEST(Failures, WholeReadQuorumDeadAbortsInsteadOfHanging) {
  // With the tree provider, killing every level-1 node and every leaf that
  // could substitute leaves no read quorum formable: the transaction must
  // surface an error (QuorumUnavailable), not deadlock the simulation.
  ClusterConfig cfg;
  cfg.num_nodes = 4;  // root + 3 children: read level 1 = 2 of {1,2,3}
  cfg.seed = 8;
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(1));
  c.kill_node(1);
  c.kill_node(2);
  c.kill_node(3);

  bool threw = false;
  c.spawn_client(0, [&, obj](Txn& t) -> sim::Task<void> {
    try {
      (void)co_await t.read(obj);
    } catch (const quorum::QuorumUnavailable&) {
      threw = true;
    }
  });
  c.run_to_completion();
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace qrdtm::core
