// Cluster facade behaviour: loop clients, phased runs, settle defaults,
// and metric plumbing.
#include <gtest/gtest.h>

#include "common/serde.h"
#include "core/cluster.h"

namespace qrdtm::core {
namespace {

Bytes enc_i64(std::int64_t v) {
  Writer w;
  w.i64(v);
  return std::move(w).take();
}

std::int64_t dec_i64(const Bytes& b) {
  Reader r(b);
  return r.i64();
}

TEST(Cluster, LoopClientsStopAfterRunFor) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 1;
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(0));
  c.spawn_loop_client(0, [obj](Rng&) {
    return [obj](Txn& t) -> sim::Task<void> { (void)co_await t.read(obj); };
  });
  c.run_for(sim::sec(5));
  std::uint64_t commits_at_deadline = c.metrics().commits;
  EXPECT_GT(commits_at_deadline, 10u);
  // Draining lets only the in-flight transaction finish; the loop exits.
  c.run_to_completion();
  EXPECT_LE(c.metrics().commits, commits_at_deadline + 1);
}

TEST(Cluster, AdvanceForKeepsLoopClientsAlive) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 2;
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(0));
  c.spawn_loop_client(0, [obj](Rng&) {
    return [obj](Txn& t) -> sim::Task<void> { (void)co_await t.read(obj); };
  });
  c.advance_for(sim::sec(5));
  std::uint64_t first = c.metrics().commits;
  c.advance_for(sim::sec(5));
  std::uint64_t second = c.metrics().commits;
  EXPECT_GT(first, 10u);
  EXPECT_GT(second, first + 10) << "clients must keep issuing";
  c.simulator().request_stop();
  c.run_to_completion();
}

TEST(Cluster, CommitSettleDefaultsToLinkLatencyBound) {
  ClusterConfig cfg;
  cfg.link_latency = sim::msec(7);
  cfg.link_jitter = sim::msec(3);
  Cluster c(cfg);
  EXPECT_EQ(c.runtime(0).config().commit_settle, sim::msec(10));
}

TEST(Cluster, CommitSettleOverrideIsRespected) {
  ClusterConfig cfg;
  cfg.runtime.commit_settle = sim::msec(1);
  Cluster c(cfg);
  EXPECT_EQ(c.runtime(0).config().commit_settle, sim::msec(1));
}

TEST(Cluster, BackToBackTransactionsDoNotRaceOwnConfirms) {
  // A single client issuing sequential writes must never abort: the settle
  // charge covers its own confirm propagation.
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 3;
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(0));
  c.simulator().spawn([](Cluster* cl, ObjectId o) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      co_await cl->runtime(4).run_transaction([o](Txn& t) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await t.read_for_write(o));
        t.write(o, enc_i64(v + 1));
      });
    }
  }(&c, obj));
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 20u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);
}

TEST(Cluster, SeedObjectInstallsOnEveryReplica) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(5));
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    EXPECT_EQ(c.server(n).store().version_of(obj), 1u);
  }
}

}  // namespace
}  // namespace qrdtm::core
