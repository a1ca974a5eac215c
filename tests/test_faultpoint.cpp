// FaultPointRegistry semantics (arming, one-shot consumption, node
// targeting, suspend/resume steering, panic wiring) and the cluster-level
// Greengage torn-checkpoint regression the registry exists to steer.
#include <gtest/gtest.h>

#include <utility>

#include "alloc_counter.h"
#include "core/cluster.h"
#include "core/faultpoint.h"
#include "core/history.h"

namespace qrdtm {
namespace {

TEST(FaultPoint, UnarmedFiresReturnNoneAndCountNothing) {
  FaultPointRegistry reg;
  EXPECT_EQ(reg.fire(fp::kServerVote, 3), FaultAction::kNone);
  EXPECT_EQ(reg.hits(fp::kServerVote), 0u);
  EXPECT_FALSE(reg.armed(fp::kServerVote));
}

TEST(FaultPoint, OneShotArmingConsumesOnFirstMatch) {
  FaultPointRegistry reg;
  reg.arm(fp::kServerVote, FaultAction::kSkip);
  EXPECT_TRUE(reg.armed(fp::kServerVote));
  EXPECT_EQ(reg.fire(fp::kServerVote, 0), FaultAction::kSkip);
  EXPECT_FALSE(reg.armed(fp::kServerVote)) << "default uses=1 is one-shot";
  EXPECT_EQ(reg.fire(fp::kServerVote, 0), FaultAction::kNone);
  EXPECT_EQ(reg.hits(fp::kServerVote), 1u);
}

TEST(FaultPoint, MultiUseArmingFiresExactlyUsesTimes) {
  FaultPointRegistry reg;
  reg.arm(fp::kServerVote, FaultAction::kSkip, FaultPointRegistry::kAnyNode,
          /*uses=*/3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(reg.fire(fp::kServerVote, 0), FaultAction::kSkip);
  }
  EXPECT_EQ(reg.fire(fp::kServerVote, 0), FaultAction::kNone);
  EXPECT_EQ(reg.hits(fp::kServerVote), 3u);
}

TEST(FaultPoint, UnlimitedArmingNeverConsumes) {
  FaultPointRegistry reg;
  reg.arm(fp::kServerVote, FaultAction::kSkip, FaultPointRegistry::kAnyNode,
          FaultPointRegistry::kUnlimited);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(reg.fire(fp::kServerVote, 0), FaultAction::kSkip);
  }
  EXPECT_TRUE(reg.armed(fp::kServerVote));
  EXPECT_EQ(reg.hits(fp::kServerVote), 100u);
}

TEST(FaultPoint, NodeTargetingIgnoresOtherNodesWithoutConsuming) {
  FaultPointRegistry reg;
  reg.arm(fp::kServerVote, FaultAction::kSkip, /*node=*/5);
  EXPECT_EQ(reg.fire(fp::kServerVote, 4), FaultAction::kNone);
  EXPECT_EQ(reg.hits(fp::kServerVote), 0u)
      << "a non-matching node must not consume the arming";
  EXPECT_EQ(reg.fire(fp::kServerVote, 5), FaultAction::kSkip);
  EXPECT_EQ(reg.hits(fp::kServerVote), 1u);
}

TEST(FaultPoint, RearmingReplacesTheAction) {
  FaultPointRegistry reg;
  reg.arm(fp::kServerVote, FaultAction::kSkip);
  reg.arm(fp::kServerVote, FaultAction::kSuspend);
  EXPECT_EQ(reg.fire(fp::kServerVote, 0), FaultAction::kSuspend);
}

TEST(FaultPoint, DisarmAndResetDropArmings) {
  FaultPointRegistry reg;
  reg.arm(fp::kServerVote, FaultAction::kSkip);
  reg.disarm(fp::kServerVote);
  EXPECT_EQ(reg.fire(fp::kServerVote, 0), FaultAction::kNone);
  reg.arm(fp::kLogPrepare, FaultAction::kSkip);
  reg.fire(fp::kLogPrepare, 0);
  reg.reset();
  EXPECT_EQ(reg.hits(fp::kLogPrepare), 0u);
  EXPECT_FALSE(reg.armed(fp::kLogPrepare));
}

TEST(FaultPoint, PanicInvokesTheHandlerWithTheHittingNode) {
  FaultPointRegistry reg;
  net::NodeId panicked = 999;
  reg.set_panic_handler([&](net::NodeId n) { panicked = n; });
  reg.arm(fp::kServerVote, FaultAction::kPanic, /*node=*/7);
  EXPECT_EQ(reg.fire(fp::kServerVote, 7), FaultAction::kPanic);
  EXPECT_EQ(panicked, 7u);
}

sim::Task<void> fire_and_park(FaultPointRegistry* reg, bool* done) {
  if (reg->fire(fp::kCommitBeforeConfirm, 0) == FaultAction::kSuspend) {
    co_await reg->suspend(fp::kCommitBeforeConfirm, 0);
  }
  *done = true;
}

TEST(FaultPoint, SuspendParksUntilResume) {
  sim::Simulator sim;
  FaultPointRegistry reg;
  reg.set_simulator(&sim);
  reg.arm(fp::kCommitBeforeConfirm, FaultAction::kSuspend);

  bool done = false;
  sim.spawn(fire_and_park(&reg, &done));
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(reg.suspended(fp::kCommitBeforeConfirm), 1u);

  EXPECT_EQ(reg.resume(fp::kCommitBeforeConfirm), 1u);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(reg.suspended(fp::kCommitBeforeConfirm), 0u);
}

// The registry keeps one arming and one hit count per point: arming,
// firing, reading hits and disarming each of the 11 points allocates
// nothing once warm.
TEST(AllocRegression, FaultPointArmFireDisarmIsAllocationFree) {
  if (!qrdtm::testing::alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build "
                    "intercepts operator new, or replacement not linked in)";
  }
  const auto points = {
      fp::kCommitBeforeConfirm, fp::kServerVote,     fp::kServerConfirmApply,
      fp::kLogPrepare,          fp::kLogConfirm,     fp::kChkCutCarry,
      fp::kRecoverySkipReplay,  fp::kRecoverySkipSync, fp::kDecisionBeforeLog,
      fp::kConfirmPartial,      fp::kTermQuery};
  ASSERT_EQ(points.size(), 11u);
  FaultPointRegistry reg;
  std::uint64_t fired = 0;
  bool consistent = true;
  const auto cycle = [&] {
    for (const auto point : points) {
      reg.arm(point, FaultAction::kSkip, /*node=*/3, /*uses=*/2);
      consistent &= reg.armed(point);
      consistent &= reg.fire(point, 4) == FaultAction::kNone;
      consistent &= reg.fire(point, 3) == FaultAction::kSkip;
      fired += reg.hits(point);
      reg.disarm(point);
      consistent &= !reg.armed(point);
      reg.arm(point, FaultAction::kPanic, FaultPointRegistry::kAnyNode,
              FaultPointRegistry::kUnlimited, /*delay_fires=*/1);
      consistent &= reg.fire(point, 5) == FaultAction::kNone;
      reg.disarm_if_node(point, 5);
      consistent &= reg.armed(point);
      reg.disarm(point);
    }
  };
  cycle();  // warm
  const std::uint64_t before = qrdtm::testing::alloc_count();
  cycle();
  EXPECT_EQ(qrdtm::testing::alloc_count() - before, 0u);
  EXPECT_TRUE(consistent);
  EXPECT_EQ(fired, 11u * (1 + 2)) << "hits survive disarm across cycles";
}

}  // namespace
}  // namespace qrdtm

namespace qrdtm::core {
namespace {

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

// A panic point is a crash at its protocol boundary: only the hitting node
// dies, and the protocol rides it out like any other fail-stop.
TEST(FaultPointCluster, PanicKillsOnlyTheTargetNode) {
  ClusterConfig cfg;
  cfg.quorum = QuorumKind::kFlatFailureAware;
  cfg.seed = 31;
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.fault_points().arm(fp::kServerVote, FaultAction::kPanic, /*node=*/6);
  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), &committed));
  c.run_to_completion();

  EXPECT_GE(c.fault_points().hits(fp::kServerVote), 1u);
  EXPECT_FALSE(c.network().alive(6)) << "the panicking node must be dead";
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    if (n == 6) continue;
    EXPECT_TRUE(c.network().alive(static_cast<net::NodeId>(n)))
        << "panic must not touch node " << n;
  }
  EXPECT_TRUE(committed)
      << "a failure-aware quorum must commit around the crashed voter";
}

// The coordinator parks in the vote->confirm window and nothing commits
// until the test releases it -- the steering primitive every torn-checkpoint
// scenario builds on.
TEST(FaultPointCluster, CommitParksInTheVoteConfirmWindow) {
  ClusterConfig cfg;
  cfg.num_nodes = 7;
  cfg.quorum = QuorumKind::kMajority;
  cfg.seed = 32;
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.fault_points().arm(fp::kCommitBeforeConfirm, FaultAction::kSuspend,
                       /*node=*/0);
  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), &committed));
  c.run_to_completion();
  EXPECT_FALSE(committed);
  ASSERT_EQ(c.fault_points().suspended(fp::kCommitBeforeConfirm), 1u);

  c.fault_points().resume(fp::kCommitBeforeConfirm);
  c.run_to_completion();
  EXPECT_TRUE(committed);
  EXPECT_EQ(c.server(1).store().version_of(obj), 2u);
}

struct TornOutcome {
  bool committed = false;
  bool history_ok = false;
  Version certified = 0;  // final version per the history checker
  Version best_live = 0;  // newest version on any live replica
};

// The canonical Greengage checkpoint_dtx_info race: park the coordinator
// between its votes and its confirm, cut a checkpoint on every replica
// inside that window, resume, then crash-and-restart every replica one at a
// time.  With `broken` the cuts drop the in-flight carry and the restarts
// skip the anti-entropy pull, so the committed write must vanish.  Under
// kQueued the bump commits as a one-member QR-Q batch, which parks in the
// same window: per-transaction commits and batches share one 2PC round.
TornOutcome run_torn_race(std::uint64_t seed, bool broken, NestingMode mode) {
  ClusterConfig cfg;
  cfg.num_nodes = 7;
  cfg.quorum = QuorumKind::kMajority;
  cfg.seed = seed;
  cfg.runtime.mode = mode;
  Cluster c(cfg);
  HistoryRecorder recorder;
  c.set_history_recorder(&recorder);
  const ObjectId obj = c.seed_new_object(Bytes{1});
  FaultPointRegistry& faults = c.fault_points();

  faults.arm(fp::kCommitBeforeConfirm, FaultAction::kSuspend, /*node=*/0);
  TornOutcome out;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), &out.committed));
  c.run_to_completion();
  EXPECT_EQ(faults.suspended(fp::kCommitBeforeConfirm), 1u);

  if (broken) {
    faults.arm(fp::kChkCutCarry, FaultAction::kSkip,
               FaultPointRegistry::kAnyNode, FaultPointRegistry::kUnlimited);
  }
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    c.cut_checkpoint(static_cast<net::NodeId>(n));
  }
  faults.disarm(fp::kChkCutCarry);

  faults.resume(fp::kCommitBeforeConfirm);
  c.run_to_completion();

  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    const net::NodeId node = static_cast<net::NodeId>(n);
    if (broken) {
      faults.arm(fp::kRecoverySkipSync, FaultAction::kSkip, node);
    }
    c.kill_node(node);
    c.recover_node(node);
    c.run_to_completion();
  }

  const CheckResult cr = check_history(recorder, CheckLevel::kSerializable);
  out.history_ok = cr.ok;
  const auto fin = cr.final_state.find(obj);
  if (fin != cr.final_state.end()) out.certified = fin->second.version;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    const store::ReplicaEntry* e =
        c.server(static_cast<net::NodeId>(n)).store().find(obj);
    if (e != nullptr && e->version > out.best_live) {
      out.best_live = e->version;
    }
  }
  return out;
}

// With the carry and the delta pull intact, the commit survives every
// restart: the cut carried the prepare, replay matched the post-cut confirm
// against it, and the pull healed nothing because nothing was lost.
TEST(FaultPointCluster, TornCheckpointRaceCertifiesWithCarry) {
  for (NestingMode mode : {NestingMode::kFlat, NestingMode::kQueued}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const TornOutcome out =
        run_torn_race(/*seed=*/77, /*broken=*/false, mode);
    EXPECT_TRUE(out.committed);
    EXPECT_TRUE(out.history_ok);
    EXPECT_EQ(out.certified, 2u);
    EXPECT_EQ(out.best_live, 2u)
        << "the committed version must survive on the replicas";
  }
}

// The regression with teeth: replaying the same race with the Greengage bug
// injected (cuts drop the carry) and the healing pull disabled loses the
// certified commit from EVERY replica -- exactly the divergence the fuzz
// canary (qrdtm_fuzz --break-recovery) must flag.
TEST(FaultPointCluster, TornCheckpointRaceLosesCommitWhenCarryDropped) {
  for (NestingMode mode : {NestingMode::kFlat, NestingMode::kQueued}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const TornOutcome out = run_torn_race(/*seed=*/77, /*broken=*/true, mode);
    EXPECT_TRUE(out.committed)
        << "the transaction certified before the crash";
    EXPECT_EQ(out.certified, 2u);
    EXPECT_LT(out.best_live, out.certified)
        << "broken recovery must lose the committed version, proving the "
           "replica-divergence check has something real to catch";
  }
}

}  // namespace
}  // namespace qrdtm::core
