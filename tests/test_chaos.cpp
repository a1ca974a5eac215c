// FaultSchedule generation/replayability, the Network chaos hooks, and
// quorum-memoisation invalidation under fail-stops (Fig. 10 policy).
#include <gtest/gtest.h>

#include <set>

#include "core/chaos.h"
#include "core/cluster.h"
#include "core/history.h"

using namespace qrdtm;
using core::ChaosOptions;
using core::FaultSchedule;

namespace {

ChaosOptions busy_options() {
  ChaosOptions opts;
  opts.horizon = sim::sec(10);
  opts.max_kills = 3;
  for (net::NodeId n = 4; n < 13; ++n) opts.kill_candidates.push_back(n);
  opts.drop_bursts = 5;
  opts.drop_prob = 0.2;
  opts.burst_len = sim::sec(2);  // deliberately above the per-slice cap
  opts.latency_spikes = 4;
  opts.spike_extra = sim::msec(300);
  opts.spike_len = sim::msec(500);
  return opts;
}

TEST(FaultSchedule, SameSeedSameSchedule) {
  const ChaosOptions opts = busy_options();
  const FaultSchedule a = FaultSchedule::generate(42, 13, opts);
  const FaultSchedule b = FaultSchedule::generate(42, 13, opts);
  ASSERT_EQ(a.kills.size(), b.kills.size());
  for (std::size_t i = 0; i < a.kills.size(); ++i) {
    EXPECT_EQ(a.kills[i].at, b.kills[i].at);
    EXPECT_EQ(a.kills[i].node, b.kills[i].node);
  }
  ASSERT_EQ(a.bursts.size(), b.bursts.size());
  for (std::size_t i = 0; i < a.bursts.size(); ++i) {
    EXPECT_EQ(a.bursts[i].at, b.bursts[i].at);
    EXPECT_EQ(a.bursts[i].len, b.bursts[i].len);
  }
  ASSERT_EQ(a.spikes.size(), b.spikes.size());
  for (std::size_t i = 0; i < a.spikes.size(); ++i) {
    EXPECT_EQ(a.spikes[i].at, b.spikes[i].at);
    EXPECT_EQ(a.spikes[i].node, b.spikes[i].node);
  }
  EXPECT_FALSE(a.empty());
  EXPECT_FALSE(a.describe().empty());
}

TEST(FaultSchedule, KillsAreDistinctCandidatesInsideTheWindow) {
  const ChaosOptions opts = busy_options();
  const FaultSchedule s = FaultSchedule::generate(7, 13, opts);
  EXPECT_EQ(s.kills.size(), 3u);
  std::set<net::NodeId> victims;
  for (const auto& k : s.kills) {
    victims.insert(k.node);
    EXPECT_GE(k.node, 4u);
    EXPECT_LT(k.node, 13u);
    EXPECT_GE(k.at, opts.horizon / 5);
    EXPECT_LE(k.at, opts.horizon * 4 / 5);
  }
  EXPECT_EQ(victims.size(), s.kills.size()) << "kill victims must be distinct";
}

TEST(FaultSchedule, BurstsNeverOverlap) {
  const FaultSchedule s = FaultSchedule::generate(99, 13, busy_options());
  ASSERT_EQ(s.bursts.size(), 5u);
  for (std::size_t i = 1; i < s.bursts.size(); ++i) {
    EXPECT_LE(s.bursts[i - 1].at + s.bursts[i - 1].len, s.bursts[i].at)
        << "bursts " << i - 1 << " and " << i << " overlap";
  }
}

TEST(FaultSchedule, AtMostOneSpikePerNode) {
  const FaultSchedule s = FaultSchedule::generate(123, 13, busy_options());
  EXPECT_FALSE(s.spikes.empty());
  std::set<net::NodeId> spiked;
  for (const auto& sp : s.spikes) {
    EXPECT_TRUE(spiked.insert(sp.node).second)
        << "node " << sp.node << " spiked twice";
  }
}

core::TxnBody bump_body(core::ObjectId id) {
  return [id](core::Txn& t) -> sim::Task<void> {
    const core::ValueSpan v = co_await t.read_for_write(id);
    core::Bytes b(v.begin(), v.end());
    b[0] += 1;
    t.write(id, b);
  };
}

TEST(FaultSchedule, RecoversPairKillsAndLandAfterThem) {
  ChaosOptions opts = busy_options();
  opts.recover_after = sim::msec(600);
  opts.recover_jitter = sim::msec(150);
  const FaultSchedule s = FaultSchedule::generate(7, 13, opts);
  ASSERT_FALSE(s.kills.empty());
  ASSERT_EQ(s.recovers.size(), s.kills.size());
  std::set<net::NodeId> killed;
  for (const auto& k : s.kills) killed.insert(k.node);
  for (std::size_t i = 0; i < s.recovers.size(); ++i) {
    EXPECT_TRUE(killed.contains(s.recovers[i].node))
        << "recover " << i << " targets a node that was never killed";
    // Each recover must land strictly after its node's kill, within
    // recover_after + recover_jitter.
    sim::Tick kill_at = 0;
    for (const auto& k : s.kills) {
      if (k.node == s.recovers[i].node) kill_at = k.at;
    }
    EXPECT_GT(s.recovers[i].at, kill_at);
    EXPECT_LE(s.recovers[i].at,
              kill_at + opts.recover_after + opts.recover_jitter);
  }
}

TEST(FaultSchedule, PartitionSidesRespectCandidatesAndWindows) {
  ChaosOptions opts = busy_options();
  opts.partition_windows = 3;
  opts.partition_len = sim::msec(300);
  opts.partition_max_side = 2;
  for (net::NodeId n = 4; n < 13; ++n) opts.partition_candidates.push_back(n);
  const FaultSchedule s = FaultSchedule::generate(9, 13, opts);
  ASSERT_EQ(s.partitions.size(), 3u);
  for (const auto& p : s.partitions) {
    EXPECT_GE(p.side.size(), 1u);
    EXPECT_LE(p.side.size(), 2u);
    for (net::NodeId n : p.side) {
      EXPECT_GE(n, 4u);
      EXPECT_LT(n, 13u);
    }
    EXPECT_LE(p.at + p.len, opts.horizon);
  }
  // Windows must not overlap (disarm of one cannot clobber the next).
  for (std::size_t i = 1; i < s.partitions.size(); ++i) {
    EXPECT_GE(s.partitions[i].at,
              s.partitions[i - 1].at + s.partitions[i - 1].len);
  }
}

TEST(FaultSchedule, LegacyOptionsProduceNoChurnOrPartitions) {
  // Pre-churn options (no recover_after, no partition_windows) must yield
  // schedules identical in shape to the old generator: replayability of
  // published fuzz seeds depends on it.
  const FaultSchedule s = FaultSchedule::generate(42, 13, busy_options());
  EXPECT_TRUE(s.recovers.empty());
  EXPECT_TRUE(s.partitions.empty());
}

TEST(NetworkChaos, DropsAreCountedAndRequestsRecoverByRetry) {
  core::ClusterConfig cfg;
  cfg.seed = 5;
  core::Cluster cluster(cfg);
  const core::ObjectId id = cluster.seed_new_object(core::Bytes{1});

  cluster.network().set_drop_probability(0.5);
  EXPECT_DOUBLE_EQ(cluster.network().drop_probability(), 0.5);
  cluster.spawn_client(0, bump_body(id));
  // Let the client fight the lossy window, then clear it and drain.
  cluster.advance_for(sim::sec(5));
  cluster.network().set_drop_probability(0.0);
  cluster.run_to_completion();

  EXPECT_EQ(cluster.metrics().commits, 1u);
  EXPECT_GT(cluster.network().stats().dropped_chaos, 0u);
  // The committed write reached the write quorum: requests/responses are
  // droppable, commit confirms (one-way) are not.
  core::Version best = 0;
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    best = std::max(best, cluster.server(n).store().version_of(id));
  }
  EXPECT_EQ(best, 2u);
}

TEST(NetworkChaos, NodeSlowdownStretchesTransactionLatency) {
  auto run_once = [](sim::Tick slowdown) {
    core::ClusterConfig cfg;
    cfg.seed = 6;
    core::Cluster cluster(cfg);
    const core::ObjectId id = cluster.seed_new_object(core::Bytes{1});
    if (slowdown > 0) {
      for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n) {
        cluster.network().set_node_slowdown(n, slowdown);
      }
    }
    cluster.spawn_client(0, bump_body(id));
    cluster.run_to_completion();
    EXPECT_EQ(cluster.metrics().commits, 1u);
    return cluster.duration();
  };
  const sim::Tick fast = run_once(0);
  const sim::Tick slow = run_once(sim::msec(50));
  // Every message gains sender + receiver slowdown: >= 100 ms per RTT.
  EXPECT_GT(slow, fast + sim::msec(100));
}

TEST(NetworkChaos, ArmedScheduleEmitsFaultEventsAndRunStaysCorrect) {
  core::ClusterConfig cfg;
  cfg.seed = 21;
  core::Cluster cluster(cfg);
  core::HistoryRecorder rec;
  cluster.set_history_recorder(&rec);
  const core::ObjectId id = cluster.seed_new_object(core::Bytes{1});

  ChaosOptions opts;
  opts.horizon = sim::sec(2);
  opts.drop_bursts = 1;
  opts.drop_prob = 0.3;
  opts.burst_len = sim::msec(300);
  opts.latency_spikes = 1;
  opts.spike_candidates = {5};
  opts.spike_extra = sim::msec(100);
  opts.spike_len = sim::msec(300);
  const FaultSchedule sched = FaultSchedule::generate(3, 13, opts);
  sched.arm(cluster, &rec);

  for (net::NodeId n = 0; n < 3; ++n) cluster.spawn_client(n, bump_body(id));
  cluster.run_to_completion();

  EXPECT_EQ(cluster.metrics().commits, 3u);
  std::size_t faults = 0;
  for (const auto& e : rec.events()) {
    if (e.kind == core::HistoryEvent::Kind::kFault) ++faults;
  }
  EXPECT_EQ(faults, 4u);  // burst on/off + spike on/off
  // Chaos state must be fully disarmed by the schedule's own events.
  EXPECT_DOUBLE_EQ(cluster.network().drop_probability(), 0.0);
  EXPECT_EQ(cluster.network().node_slowdown(5), 0u);
  const core::CheckResult r =
      core::check_history(rec, core::CheckLevel::kSerializable);
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_EQ(r.final_state.at(id).version, 4u);
}

// Satellite: quorum memoisation invalidation (Fig. 10 policy).  Killing a
// node mid-run must bump the provider generation, and the next read must go
// through a re-derived, grown read quorum rather than the memoised one.
TEST(NetworkChaos, KillInvalidatesMemoisedQuorumsAndGrowsReadQuorum) {
  core::ClusterConfig cfg;
  cfg.seed = 9;
  cfg.quorum = core::QuorumKind::kFlatFailureAware;
  core::Cluster cluster(cfg);
  const core::ObjectId id = cluster.seed_new_object(core::Bytes{1});

  // Warm the runtime's memoised quorum caches with one committed txn.
  cluster.spawn_client(0, bump_body(id));
  cluster.run_to_completion();
  ASSERT_EQ(cluster.metrics().commits, 1u);
  const std::uint64_t gen0 = cluster.quorums().generation();
  ASSERT_EQ(cluster.quorums().cohort_read_quorum(0, 0).size(), 1u);
  const std::uint64_t reads0 = cluster.metrics().read_messages;

  cluster.kill_node(5);

  EXPECT_GT(cluster.quorums().generation(), gen0);
  const std::vector<net::NodeId> rq =
      cluster.quorums().cohort_read_quorum(0, 0);
  EXPECT_EQ(rq.size(), 2u) << "one failure -> read quorum grows to f+1";
  for (net::NodeId n : rq) EXPECT_NE(n, 5u);

  cluster.spawn_client(1, bump_body(id));
  cluster.run_to_completion();
  EXPECT_EQ(cluster.metrics().commits, 2u);
  // The grown quorum was actually used: the read multicast fanned out to
  // both members (a stale memoised quorum would have sent one message).
  EXPECT_GE(cluster.metrics().read_messages - reads0, 2u);
}

}  // namespace
