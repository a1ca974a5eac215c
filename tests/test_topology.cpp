// Metric-space topology tests: the Cluster option placing nodes on a unit
// square (cc DTM assumes a metric-space network, paper §I).
#include <gtest/gtest.h>
#include <span>

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

ClusterConfig grid_cfg() {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 101;
  cfg.metric_space = true;
  cfg.runtime.mode = NestingMode::kClosed;
  return cfg;
}

TEST(Topology, MetricSpaceClusterCommitsAndConserves) {
  Cluster c(grid_cfg());
  ObjectId a = c.seed_new_object(enc_i64(50));
  ObjectId b = c.seed_new_object(enc_i64(50));
  for (int i = 0; i < 10; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [a, b](Txn& t) -> sim::Task<void> {
                     std::int64_t va = dec_i64(co_await t.read_for_write(a));
                     std::int64_t vb = dec_i64(co_await t.read_for_write(b));
                     t.write(a, enc_i64(va - 1));
                     t.write(b, enc_i64(vb + 1));
                   });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 10u);

  std::int64_t total = 0;
  c.spawn_client(0, [&](Txn& t) -> sim::Task<void> {
    total = dec_i64(co_await t.read(a)) + dec_i64(co_await t.read(b));
  });
  c.run_to_completion();
  EXPECT_EQ(total, 100);
}

TEST(Topology, MetricSpaceIsDeterministic) {
  auto run = []() {
    Cluster c(grid_cfg());
    ObjectId obj = c.seed_new_object(enc_i64(0));
    for (int i = 0; i < 6; ++i) {
      c.spawn_client(static_cast<net::NodeId>(i), [obj](Txn& t) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await t.read_for_write(obj));
        t.write(obj, enc_i64(v + 1));
      });
    }
    c.run_to_completion();
    return std::pair{c.duration(), c.simulator().events_executed()};
  };
  EXPECT_EQ(run(), run());
}

TEST(Topology, NodePlacementAffectsLatency) {
  // The same logical transaction takes different simulated time from
  // different client nodes under the metric model (distance matters),
  // whereas the uniform model is position-independent up to jitter.
  auto read_duration = [](bool metric, net::NodeId from) {
    ClusterConfig cfg;
    cfg.num_nodes = 13;
    cfg.seed = 102;
    cfg.metric_space = metric;
    cfg.link_jitter = 0;  // isolate the distance term
    Cluster c(cfg);
    ObjectId obj = c.seed_new_object(enc_i64(1));
    c.spawn_client(from, [obj](Txn& t) -> sim::Task<void> {
      (void)co_await t.read(obj);
    });
    c.run_to_completion();
    return c.duration();
  };
  // Uniform: identical durations from any client.
  EXPECT_EQ(read_duration(false, 3), read_duration(false, 9));
  // Metric: at least one pair of client positions differs.
  bool differs = false;
  sim::Tick base = read_duration(true, 0);
  for (net::NodeId n = 1; n < 13 && !differs; ++n) {
    differs = read_duration(true, n) != base;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace qrdtm::core
