// Node recovery tests: Cluster::recover_node's anti-entropy catch-up,
// quorum re-admission, liveness-epoch message hygiene, and the
// coordinator-liveness lease that un-wedges orphaned 2PC protections.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/chaos.h"
#include "core/cluster.h"
#include "core/history.h"

namespace qrdtm::core {
namespace {

TxnBody bump_body(ObjectId id) {
  return [id](Txn& t) -> sim::Task<void> {
    Bytes b = co_await t.read_for_write(id);
    b[0] += 1;
    t.write(id, b);
  };
}

sim::Task<void> run_bounded(Cluster* c, net::NodeId node, TxnBody body,
                            std::uint32_t attempts, bool* committed) {
  *committed = co_await c->runtime(node).run_transaction_bounded(
      std::move(body), attempts);
}

bool any_protected(Cluster& c, ObjectId obj) {
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    if (c.server(static_cast<net::NodeId>(n))
            .store()
            .protected_against(obj, 0)) {
      return true;
    }
  }
  return false;
}

std::uint64_t total_lease_breaks(Cluster& c) {
  std::uint64_t total = 0;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    total += c.server(static_cast<net::NodeId>(n)).lease_breaks();
  }
  return total;
}

// Acceptance: kill a node, commit a write while it is down, recover it; the
// rejoined replica must serve the latest committed version and the read
// quorum must shrink back to its pre-failure size.
TEST(Recovery, CatchUpServesWritesMadeWhileDown) {
  ClusterConfig cfg;
  cfg.quorum = QuorumKind::kFlatFailureAware;
  cfg.seed = 12;
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});
  const std::size_t rq_before = c.quorums().read_quorum(0).size();
  const std::uint64_t gen0 = c.quorums().generation();

  c.kill_node(7);
  EXPECT_EQ(c.quorums().read_quorum(0).size(), rq_before + 1);

  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), 50, &committed));
  c.run_to_completion();
  ASSERT_TRUE(committed);
  // The dead node missed the commit: it still holds the seed version.
  EXPECT_EQ(c.server(7).store().version_of(obj), 1u);

  c.recover_node(7);
  EXPECT_TRUE(c.server(7).syncing()) << "catch-up must start in syncing mode";
  c.run_to_completion();

  EXPECT_FALSE(c.server(7).syncing());
  EXPECT_EQ(c.metrics().node_recoveries, 1u);
  const store::ReplicaEntry* e = c.server(7).store().find(obj);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, 2u) << "catch-up must install the missed commit";
  EXPECT_EQ(e->data, Bytes{2});
  EXPECT_EQ(c.quorums().read_quorum(0).size(), rq_before)
      << "read quorum must shrink back after re-admission";
  EXPECT_GT(c.quorums().generation(), gen0);

  // The rejoined node now counts toward quorums: a fresh reader (whose
  // round-robin quorum may pick node 7) sees the committed value.
  std::int64_t seen = 0;
  c.spawn_client(3, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 2);
}

TEST(Recovery, RecoverIsIdempotentAndNoOpOnLiveNodes) {
  ClusterConfig cfg;
  cfg.seed = 19;
  Cluster c(cfg);
  c.seed_new_object(Bytes{1});

  c.recover_node(5);  // alive: nothing to do
  c.run_to_completion();
  EXPECT_EQ(c.metrics().node_recoveries, 0u);
  EXPECT_FALSE(c.server(5).syncing());

  c.kill_node(5);
  c.recover_node(5);
  c.recover_node(5);  // second call: node already alive again
  c.run_to_completion();
  EXPECT_EQ(c.metrics().node_recoveries, 1u);
}

// Tree-root rejoin: with rooted write quorums the root's death makes writes
// impossible; recovery must restore writability and put the root back in
// every write quorum.
TEST(Recovery, TreeRootRejoins) {
  ClusterConfig cfg;
  cfg.seed = 13;
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.kill_node(0);
  EXPECT_THROW(c.quorums().write_quorum(1), quorum::QuorumUnavailable);

  c.recover_node(0);
  c.run_to_completion();
  EXPECT_EQ(c.metrics().node_recoveries, 1u);
  const std::vector<net::NodeId> wq = c.quorums().write_quorum(1);
  EXPECT_NE(std::find(wq.begin(), wq.end(), 0u), wq.end());

  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 1, bump_body(obj), 50, &committed));
  c.run_to_completion();
  EXPECT_TRUE(committed);
  EXPECT_EQ(c.server(0).store().version_of(obj), 2u);
}

// Liveness epochs: traffic sent to a node's previous incarnation must be
// dropped at delivery (payloads back to the pool), never replayed into the
// restarted node.
TEST(Recovery, PreCrashMessagesAreNotReplayedAfterRevive) {
  ClusterConfig cfg;
  cfg.seed = 14;
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  // Put a read request to a read-quorum member in flight, then kill +
  // recover that member before the request arrives (link latency >> the
  // restart): the delivery-time epoch check must discard it.
  const net::NodeId victim = c.quorums().read_quorum(4).front();
  bool threw = false;
  c.spawn_client(4, [&, obj](Txn& t) -> sim::Task<void> {
    try {
      (void)co_await t.read(obj);
    } catch (const quorum::QuorumUnavailable&) {
      threw = true;
    }
  });
  c.simulator().schedule_at(sim::msec(5), [&c, victim] {
    c.kill_node(victim, /*notify_provider=*/false);
    c.recover_node(victim);
  });
  c.run_to_completion();
  (void)threw;  // the read itself may succeed via other quorum members

  EXPECT_GT(c.network().stats().dropped_stale +
                c.network().stats().dropped_dead,
            0u)
      << "in-flight pre-crash traffic must be dropped by the epoch check";
  EXPECT_FALSE(c.server(victim).syncing());
}

// Acceptance: orphaned-protection cleanup.  A coordinator that dies between
// the vote and the confirm leaves its write-set protected on every voter;
// the protection lease must shed it so a later writer commits.  Every vote
// skips the log.prepare record, so no protection is ever *prepared* and the
// lease may shed them freely -- the prepared case must instead run the
// termination protocol and is covered by test_termination.cpp
// (DESIGN.md §17).
TEST(Recovery, OrphanedProtectionShedByLease) {
  ClusterConfig cfg;
  cfg.seed = 15;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});
  c.fault_points().arm(fp::kLogPrepare, FaultAction::kSkip,
                       FaultPointRegistry::kAnyNode,
                       FaultPointRegistry::kUnlimited);

  // Doomed coordinator on node 4: run until its commit-request votes have
  // protected the object somewhere, then fail-stop it -- its one-way
  // confirms can never be sent.
  bool doomed_committed = false;
  c.simulator().spawn(
      run_bounded(&c, 4, bump_body(obj), 1, &doomed_committed));
  // advance_to only moves the clock when events fire before the deadline,
  // so the poll must track an absolute deadline of its own.
  bool saw_protected = false;
  sim::Tick poll_at = 0;
  for (int i = 0; i < 4000 && !saw_protected; ++i) {
    poll_at += sim::usec(500);
    c.simulator().advance_to(poll_at);
    saw_protected = any_protected(c, obj);
  }
  ASSERT_TRUE(saw_protected) << "test setup: votes never protected the object";
  c.kill_node(4);

  // A second writer must get through once the lease expires.
  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), 50, &committed));
  c.run_to_completion();

  EXPECT_TRUE(committed) << "object stayed wedged behind an orphaned 2PC "
                            "protection";
  EXPECT_GT(total_lease_breaks(c), 0u);
  // Shedding is lazy (checked on access), so replicas outside the second
  // writer's quorum may still carry the stale flag; what matters is that
  // the new value committed and is readable everywhere it was written.
  std::int64_t seen = 0;
  c.spawn_client(2, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 2);
}

// End-to-end churn: kill two replicas mid-workload (one internal tree node,
// one leaf), restart them, and require (a) a serializable history, (b) the
// recovered replicas caught up, and (c) the read quorum back at its
// pre-failure size.
TEST(Recovery, EndToEndChurnStaysSerializable) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 11;
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 8; ++i) objs.push_back(c.seed_new_object(Bytes{1}));
  const std::size_t rq_before = c.quorums().read_quorum(0).size();

  // Clients on nodes that never die.
  for (net::NodeId n : {net::NodeId{0}, net::NodeId{2}, net::NodeId{3}}) {
    c.spawn_loop_client(n, [&objs](Rng& rng) {
      const ObjectId id = objs[rng.below(objs.size())];
      return bump_body(id);
    });
  }
  c.simulator().schedule_at(sim::sec(2), [&c] { c.kill_node(1); });
  c.simulator().schedule_at(sim::msec(2500), [&c] { c.kill_node(10); });
  c.simulator().schedule_at(sim::sec(4), [&c] { c.recover_node(1); });
  c.simulator().schedule_at(sim::msec(4500), [&c] { c.recover_node(10); });
  c.run_for(sim::sec(8));
  c.run_to_completion();

  EXPECT_EQ(c.metrics().node_recoveries, 2u);
  EXPECT_FALSE(c.server(1).syncing());
  EXPECT_FALSE(c.server(10).syncing());
  EXPECT_EQ(c.quorums().read_quorum(0).size(), rq_before);
  EXPECT_GT(c.metrics().commits, 20u);

  const CheckResult r = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(r.ok) << r.report;
}

// Regression: exhausting every delta-pull attempt used to end the recovery
// coroutine *silently* -- no metric, no further attempts, the node syncing
// (and excluded from quorums) forever.  A churn schedule that starved the
// pull window therefore wedged the node permanently.  Now a starved budget
// counts metrics().recovery_failures and schedules another bounded round,
// so the node still rejoins once the network heals.
TEST(Recovery, StarvedCatchUpCountsFailuresAndRetriesAfterHeal) {
  ClusterConfig cfg;
  cfg.seed = 29;
  // Keep one 32-attempt round short: fast links plus a tight (but still
  // RTT-covering) timeout make a round ~1.3 s simulated.
  cfg.link_latency = sim::msec(1);
  cfg.link_jitter = sim::msec(1);
  cfg.runtime.rpc_timeout = sim::msec(20);
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.kill_node(7);
  // Isolate node 7: every pull request crosses the cut and is dropped, so
  // all kAttempts delta pulls time out.
  c.network().set_partition({net::NodeId{7}});
  c.recover_node(7);
  // One round = 32 attempts x (timeout + backoff) ~= 1.3 s simulated.
  c.advance_for(sim::sec(2));
  EXPECT_GE(c.metrics().recovery_failures, 1u)
      << "a starved attempt budget must be counted, not silently dropped";
  EXPECT_TRUE(c.server(7).syncing());
  EXPECT_EQ(c.metrics().node_recoveries, 0u);

  // Heal the partition: the scheduled re-attempt round must complete the
  // pull and re-admit the node.  Pre-fix the coroutine was already gone
  // here and the node stayed syncing no matter how long the run continued.
  c.network().clear_partition();
  c.run_to_completion();
  EXPECT_FALSE(c.server(7).syncing());
  EXPECT_EQ(c.metrics().node_recoveries, 1u);
  EXPECT_EQ(c.server(7).store().version_of(obj), 1u);
}

// The same churn driven through a FaultSchedule armed on the Cluster: the
// schedule's recover events must run the full catch-up path.
TEST(Recovery, ArmedChurnScheduleRecoversAndStaysSerializable) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 23;
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 6; ++i) objs.push_back(c.seed_new_object(Bytes{1}));

  ChaosOptions opts;
  opts.horizon = sim::sec(6);
  opts.max_kills = 2;
  for (net::NodeId n = 4; n < 13; ++n) opts.kill_candidates.push_back(n);
  opts.recover_after = sim::msec(800);
  opts.recover_jitter = sim::msec(200);
  const FaultSchedule sched = FaultSchedule::generate(77, 13, opts);
  ASSERT_EQ(sched.recovers.size(), sched.kills.size());
  sched.arm(c, &rec);

  for (net::NodeId n : {net::NodeId{0}, net::NodeId{2}}) {
    c.spawn_loop_client(n, [&objs](Rng& rng) {
      return bump_body(objs[rng.below(objs.size())]);
    });
  }
  c.run_for(sim::sec(8));
  c.run_to_completion();

  EXPECT_EQ(c.metrics().node_recoveries, sched.recovers.size());
  for (const auto& r : sched.recovers) {
    EXPECT_FALSE(c.server(r.node).syncing());
    EXPECT_TRUE(c.network().alive(r.node));
  }
  const CheckResult cr = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(cr.ok) << cr.report;
}

}  // namespace
}  // namespace qrdtm::core
