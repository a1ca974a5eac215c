// Failure-detector tests: unit behaviour of the timeout counter, and the
// end-to-end recovery story -- a silent fail-stop is discovered from RPC
// timeouts and quorums reconfigure around it.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/serde.h"
#include "core/cluster.h"
#include "core/failure_detector.h"
#include "core/history.h"

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

TEST(FailureDetectorUnit, SuspectsAfterThresholdConsecutiveTimeouts) {
  std::vector<net::NodeId> suspects;
  FailureDetector fd(3, [&](net::NodeId n) { suspects.push_back(n); });
  fd.report_timeout(5);
  fd.report_timeout(5);
  EXPECT_TRUE(suspects.empty());
  fd.report_timeout(5);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], 5u);
  EXPECT_TRUE(fd.is_suspected(5));
}

TEST(FailureDetectorUnit, SuccessResetsTheCounter) {
  int fired = 0;
  FailureDetector fd(3, [&](net::NodeId) { ++fired; });
  fd.report_timeout(5);
  fd.report_timeout(5);
  fd.report_success(5);  // transient congestion, not a failure
  fd.report_timeout(5);
  fd.report_timeout(5);
  EXPECT_EQ(fired, 0);
  fd.report_timeout(5);
  EXPECT_EQ(fired, 1);
}

TEST(FailureDetectorUnit, FiresOncePerNodeAndTracksIndependently) {
  int fired = 0;
  FailureDetector fd(2, [&](net::NodeId) { ++fired; });
  fd.report_timeout(1);
  fd.report_timeout(2);
  fd.report_timeout(1);  // node 1 suspected
  fd.report_timeout(1);  // already suspected: no second callback
  fd.report_timeout(2);  // node 2 suspected
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(fd.suspected_count(), 2u);
}

TEST(FailureDetectorUnit, FlappingNodeFiresBothCallbacksPerFlap) {
  // A node that oscillates between unresponsive and responsive: every
  // suspect transition fires on_suspect, every successful reply while
  // suspected fires on_rescind, and the node can be re-suspected after.
  int suspected = 0;
  int rescinded = 0;
  FailureDetector fd(
      2, [&](net::NodeId) { ++suspected; }, [&](net::NodeId) { ++rescinded; });
  for (int flap = 0; flap < 3; ++flap) {
    fd.report_timeout(7);
    fd.report_timeout(7);
    EXPECT_TRUE(fd.is_suspected(7));
    fd.report_success(7);
    EXPECT_FALSE(fd.is_suspected(7));
  }
  EXPECT_EQ(suspected, 3);
  EXPECT_EQ(rescinded, 3);
  // A success from a never-suspected node must not fire on_rescind.
  fd.report_success(8);
  EXPECT_EQ(rescinded, 3);
  // forget() clears state silently: no callback, and the timeout counter
  // restarts from zero.
  fd.report_timeout(7);
  fd.report_timeout(7);
  EXPECT_EQ(suspected, 4);
  fd.forget(7);
  EXPECT_EQ(rescinded, 3);
  EXPECT_FALSE(fd.is_suspected(7));
  fd.report_timeout(7);
  EXPECT_FALSE(fd.is_suspected(7)) << "forget must reset the counter";
  fd.report_timeout(7);
  EXPECT_TRUE(fd.is_suspected(7));
  EXPECT_EQ(suspected, 5);
}

TEST(FailureDetectorE2E, SilentFailureIsDiscoveredAndRoutedAround) {
  // Kill a read-quorum member WITHOUT telling the provider.  With detection
  // enabled, the first few transactions time out against it, the detector
  // fires, quorums reconfigure, and the workload completes.
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 31;
  cfg.failure_detection_threshold = 3;
  cfg.runtime.rpc_timeout = sim::msec(120);
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(0));

  auto rq = c.quorums().cohort_read_quorum(0, 0);
  ASSERT_FALSE(rq.empty());
  c.kill_node(rq[0], /*notify_provider=*/false);

  c.simulator().spawn([](Cluster* cl, ObjectId o) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await cl->runtime(0).run_transaction([o](Txn& t) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await t.read_for_write(o));
        t.write(o, enc_i64(v + 1));
      });
    }
  }(&c, obj));
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 10u);
  EXPECT_EQ(c.suspected_nodes(), 1u);
  // Once reconfigured, the dead node must be out of the quorums.
  auto rq_after = c.quorums().cohort_read_quorum(0, 0);
  EXPECT_TRUE(std::find(rq_after.begin(), rq_after.end(), rq[0]) ==
              rq_after.end());
}

TEST(FailureDetectorE2E, WriteQuorumMemberFailureBlocksOnlyUntilDetected) {
  // A dead *write-quorum* member makes every 2PC lose a vote; without
  // detection writers live-lock.  With detection the commits eventually
  // flow: the first transactions burn timeouts, then quorums reconfigure.
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 32;
  cfg.failure_detection_threshold = 2;
  cfg.runtime.rpc_timeout = sim::msec(120);
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(0));

  // Kill a leaf write-quorum member that no read quorum uses.
  auto wq = c.quorums().cohort_write_quorum(0, 0);
  auto rq = c.quorums().cohort_read_quorum(0, 0);
  net::NodeId victim = net::kNoNode;
  for (net::NodeId n : wq) {
    if (n != 0 && std::find(rq.begin(), rq.end(), n) == rq.end()) victim = n;
  }
  ASSERT_NE(victim, net::kNoNode);
  c.kill_node(victim, /*notify_provider=*/false);

  c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(obj));
    t.write(obj, enc_i64(v + 1));
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_GE(c.metrics().vote_aborts, 1u) << "first 2PC must have timed out";
  EXPECT_EQ(c.suspected_nodes(), 1u);
}

TEST(FailureDetectorE2E, DisabledDetectionCannotCommitPastDeadVoter) {
  // Without detection a silently-dead read-quorum member stalls every read:
  // the strict quorum gather refuses to proceed on a partial quorum (a
  // missing reply is indistinguishable from a stale member), so the
  // transaction aborts before it ever reaches 2PC -- and without the
  // detector the quorums never reconfigure.  This is exactly the failure
  // mode the detector exists to break.
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 33;
  cfg.failure_detection_threshold = 0;  // off
  cfg.runtime.rpc_timeout = sim::msec(80);
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(7));

  auto rq = c.quorums().cohort_read_quorum(0, 0);
  ASSERT_FALSE(rq.empty());
  c.kill_node(rq[0], /*notify_provider=*/false);

  std::int64_t seen = 0;
  bool committed = true;
  c.simulator().spawn([](Cluster* cl, ObjectId o, std::int64_t* out,
                         bool* ok) -> sim::Task<void> {
    *ok = co_await cl->runtime(0).run_transaction_bounded(
        [o, out](Txn& t) -> sim::Task<void> {
          *out = dec_i64(co_await t.read(o));
        },
        /*max_attempts=*/3);
  }(&c, obj, &seen, &committed));
  c.run_to_completion();

  EXPECT_EQ(seen, 0) << "the incomplete read quorum must not serve data";
  EXPECT_FALSE(committed);
  EXPECT_GE(c.metrics().root_aborts, 3u) << "every attempt aborts at the read";
  EXPECT_EQ(c.metrics().vote_aborts, 0u) << "2PC is never reached";
  EXPECT_EQ(c.suspected_nodes(), 0u);
  EXPECT_EQ(c.quorums().cohort_read_quorum(0, 0), rq) << "no reconfiguration";
}

TEST(FailureDetectorE2E, FalseSuspicionOfSlowNodeKeepsCommittedStateConsistent) {
  // A node that is alive but slower than the RPC timeout looks exactly like
  // a crashed one.  Suspecting it is allowed (the detector need not be
  // accurate) -- but the late replies that keep trickling in from it must
  // never corrupt or diverge committed state.
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 34;
  cfg.failure_detection_threshold = 2;
  cfg.runtime.rpc_timeout = sim::msec(100);
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  ObjectId obj = c.seed_new_object(enc_i64(0));

  auto rq = c.quorums().cohort_read_quorum(0, 0);
  ASSERT_FALSE(rq.empty());
  const net::NodeId slow = rq[0];
  // Sender + receiver slowdown: every RPC through `slow` gains 240 ms,
  // far above the 100 ms timeout, yet every reply is eventually delivered.
  c.network().set_node_slowdown(slow, sim::msec(120));

  c.simulator().spawn([](Cluster* cl, ObjectId o) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      co_await cl->runtime(0).run_transaction([o](Txn& t) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await t.read_for_write(o));
        t.write(o, enc_i64(v + 1));
      });
    }
  }(&c, obj));
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 8u);
  EXPECT_TRUE(c.network().alive(slow)) << "nobody killed it; it is just slow";
  EXPECT_GE(c.suspected_nodes(), 1u) << "slow != dead, but the FD cannot tell";

  // The false positive may cost availability (retries, a shrunken quorum)
  // but never correctness: the history certifies 1-copy serializable and no
  // replica -- the slow one included -- ran past the certified final state.
  const CheckResult r = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(r.ok) << r.report;
  ASSERT_EQ(r.final_state.count(obj), 1u);
  const auto& fin = r.final_state.at(obj);
  EXPECT_EQ(dec_i64(fin.data), 8);
  Version best = 0;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    const Version v = c.server(n).store().version_of(obj);
    EXPECT_LE(v, fin.version) << "replica " << n << " ran past commit";
    if (v == fin.version) {
      EXPECT_EQ(c.server(n).store().find(obj)->data, fin.data);
    }
    best = std::max(best, v);
  }
  EXPECT_EQ(best, fin.version) << "the newest live replica is the final state";
}

}  // namespace
}  // namespace qrdtm::core
