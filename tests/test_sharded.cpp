// End-to-end tests for sharded quorum cohorts (partial replication):
// object placement, single- vs cross-shard 2PC, the cross_shard_rounds
// metric, churn + per-cohort recovery, and serializability throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cluster.h"
#include "core/history.h"

namespace qrdtm::core {
namespace {

ClusterConfig sharded_cfg(std::uint32_t nodes, std::uint32_t shards,
                          std::uint32_t cohort_size, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.quorum = QuorumKind::kSharded;
  cfg.num_shards = shards;
  cfg.cohort_size = cohort_size;
  cfg.seed = seed;
  return cfg;
}

TxnBody bump_body(ObjectId id) {
  return [id](Txn& t) -> sim::Task<void> {
    const ValueSpan v = co_await t.read_for_write(id);
    Bytes b(v.begin(), v.end());
    b[0] += 1;
    t.write(id, b);
  };
}

sim::Task<void> run_bounded(Cluster* c, net::NodeId node, TxnBody body,
                            bool* committed) {
  *committed = co_await c->runtime(node).run_transaction_bounded(
      std::move(body), 50);
}

// Partial replication: a seeded object must exist on exactly its cohort's
// members, and placement must agree with QuorumProvider::replicates.
TEST(Sharded, SeedsPlaceReplicasOnlyOnCohortMembers) {
  Cluster c(sharded_cfg(52, 8, 13, 7));
  const ObjectId obj = c.seed_new_object(Bytes{1});
  std::size_t replicas = 0;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    const net::NodeId node = static_cast<net::NodeId>(n);
    const bool has = c.server(node).store().find(obj) != nullptr;
    EXPECT_EQ(has, c.quorums().replicates(node, obj)) << "node " << n;
    replicas += has ? 1 : 0;
  }
  EXPECT_EQ(replicas, 13u) << "one cohort's worth of replicas, no more";
}

// A transaction confined to one cohort commits without a cross-shard
// round; one spanning two cohorts drives a single 2PC vote round over the
// union of both write quorums, and both writes are visible everywhere.
TEST(Sharded, SingleAndCrossShardCommits) {
  Cluster c(sharded_cfg(52, 8, 13, 9));
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 16; ++i) objs.push_back(c.seed_new_object(Bytes{1}));
  const ObjectId a = objs[0];
  ObjectId b = a;
  for (ObjectId id : objs) {
    if (c.quorums().cohort_of(id) != c.quorums().cohort_of(a)) {
      b = id;
      break;
    }
  }
  ASSERT_NE(c.quorums().cohort_of(a), c.quorums().cohort_of(b))
      << "test setup: 16 objects over 8 shards must span two cohorts";

  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(a), &committed));
  c.run_to_completion();
  ASSERT_TRUE(committed);
  EXPECT_EQ(c.metrics().cross_shard_rounds, 0u)
      << "a single-cohort commit must not count as cross-shard";

  committed = false;
  TxnBody both = [a, b](Txn& t) -> sim::Task<void> {
    const ValueSpan va = co_await t.read_for_write(a);
    const ValueSpan vb = co_await t.read_for_write(b);
    Bytes ba(va.begin(), va.end()), bb(vb.begin(), vb.end());
    ba[0] += 1;
    bb[0] += 1;
    t.write(a, ba);
    t.write(b, bb);
  };
  c.simulator().spawn(run_bounded(&c, 3, std::move(both), &committed));
  c.run_to_completion();
  ASSERT_TRUE(committed);
  EXPECT_GE(c.metrics().cross_shard_rounds, 1u);

  // A fresh reader on an unrelated node sees both committed values.
  std::int64_t va = 0;
  std::int64_t vb = 0;
  c.spawn_client(20, [&, a, b](Txn& t) -> sim::Task<void> {
    va = (co_await t.read(a))[0];
    vb = (co_await t.read(b))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(va, 3);  // seed + single-shard bump + cross-shard bump
  EXPECT_EQ(vb, 2);  // seed + cross-shard bump
  const CheckResult r = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(r.ok) << r.report;
}

// Read validation must reach the readset's cohorts too: a read-a/write-b
// cross-cohort transaction whose read goes stale mid-flight must abort and
// retry rather than commit against the old version.
TEST(Sharded, CrossShardReadValidationAborts) {
  Cluster c(sharded_cfg(52, 8, 13, 17));
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 16; ++i) objs.push_back(c.seed_new_object(Bytes{1}));
  const ObjectId a = objs[0];
  ObjectId b = a;
  for (ObjectId id : objs) {
    if (c.quorums().cohort_of(id) != c.quorums().cohort_of(a)) {
      b = id;
      break;
    }
  }
  ASSERT_NE(a, b);

  // Two loop clients hammer a (writes) while one repeatedly copies a's
  // value into b (read a, write b).  Serializability across the cohorts is
  // exactly what the readset-cohort union protects.
  for (net::NodeId n : {net::NodeId{1}, net::NodeId{30}}) {
    c.spawn_loop_client(n, [a](Rng&) { return bump_body(a); });
  }
  c.spawn_loop_client(14, [a, b](Rng&) {
    return TxnBody([a, b](Txn& t) -> sim::Task<void> {
      // The span lent for `a` stays valid across the read_for_write of b.
      const ValueSpan va = co_await t.read(a);
      (void)co_await t.read_for_write(b);
      t.write(b, va);
    });
  });
  c.run_for(sim::sec(4));
  c.run_to_completion();
  EXPECT_GT(c.metrics().commits, 10u);
  const CheckResult r = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(r.ok) << r.report;
}

// Churn over a sharded cluster with majority cohorts (the fuzzer's
// configuration): kill and recover a node mid-workload; recovery pulls
// each of the node's cohorts, the history stays serializable, and the
// mixed workload keeps committing cross-shard rounds.
TEST(Sharded, ChurnWithRecoveryStaysSerializable) {
  ClusterConfig cfg = sharded_cfg(39, 6, 13, 21);
  cfg.sharded_majority_inner = true;  // no inner root: kills cannot wedge
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 12; ++i) objs.push_back(c.seed_new_object(Bytes{1}));

  for (net::NodeId n : {net::NodeId{0}, net::NodeId{14}, net::NodeId{27}}) {
    c.spawn_loop_client(n, [&objs](Rng& rng) -> TxnBody {
      if (rng.below(4) == 0) {  // ~25% touch two (usually cross-shard)
        const ObjectId x = objs[rng.below(objs.size())];
        const ObjectId y = objs[rng.below(objs.size())];
        return [x, y](Txn& t) -> sim::Task<void> {
          const ValueSpan vx = co_await t.read_for_write(x);
          Bytes bx(vx.begin(), vx.end());
          bx[0] += 1;
          t.write(x, bx);
          if (y != x) {
            const ValueSpan vy = co_await t.read_for_write(y);
            Bytes by(vy.begin(), vy.end());
            by[0] += 1;
            t.write(y, by);
          }
        };
      }
      return bump_body(objs[rng.below(objs.size())]);
    });
  }
  c.simulator().schedule_at(sim::sec(2), [&c] { c.kill_node(5); });
  c.simulator().schedule_at(sim::sec(4), [&c] { c.recover_node(5); });
  c.run_for(sim::sec(8));
  c.run_to_completion();

  EXPECT_EQ(c.metrics().node_recoveries, 1u);
  EXPECT_FALSE(c.server(5).syncing());
  EXPECT_GT(c.metrics().commits, 20u);
  EXPECT_GT(c.metrics().cross_shard_rounds, 0u);
  const CheckResult r = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(r.ok) << r.report;
}

// One shard over the whole cluster is exactly full replication: the
// sharded provider must behave like the plain tree (same quorum shapes,
// every node replicates everything).
TEST(Sharded, SingleShardDegeneratesToFullReplication) {
  Cluster c(sharded_cfg(13, 1, 13, 3));
  const ObjectId obj = c.seed_new_object(Bytes{1});
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    EXPECT_TRUE(c.quorums().replicates(static_cast<net::NodeId>(n), obj));
    EXPECT_NE(c.server(static_cast<net::NodeId>(n)).store().find(obj),
              nullptr);
  }
  EXPECT_EQ(c.quorums().cohort_write_quorum(0, 0).size(), 7u)
      << "13-node ternary tree write quorum (paper Fig. 3)";
  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), &committed));
  c.run_to_completion();
  EXPECT_TRUE(committed);
  EXPECT_EQ(c.metrics().cross_shard_rounds, 0u);
}

}  // namespace
}  // namespace qrdtm::core
