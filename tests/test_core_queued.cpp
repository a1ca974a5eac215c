// Integration tests of QR-Q (queued speculative batch commit) on a
// simulated cluster: batch formation and amortisation, intra-batch
// conflict resolution by queue order, speculation rollback on cross-node
// conflicts, history certification, and the bounded give-up path.
#include <gtest/gtest.h>

#include <span>
#include <tuple>

#include "common/serde.h"
#include "core/cluster.h"
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

ClusterConfig queued_cfg() {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.runtime.mode = NestingMode::kQueued;
  cfg.seed = 42;
  return cfg;
}

TEST(QrQueued, SingleTransactionCommitsAndIsVisibleEverywhere) {
  Cluster c(queued_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(10));
  c.spawn_client(1, [obj](Txn& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(obj));
    t.write(obj, enc_i64(v + 5));
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().batches_committed, 1u);
  EXPECT_EQ(c.metrics().speculation_rollbacks, 0u);

  std::int64_t seen = -1;
  // qrdtm-lint: allow(coro-ref-capture) run_to_completion keeps `seen` alive
  c.spawn_client(9, [obj, &seen](Txn& t) -> sim::Task<void> {
    seen = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 15);
}

TEST(QrQueued, CoSubmittedConflictingIncrementsShareOneBatch) {
  // Six concurrent increments of one hot counter, all submitted on the same
  // node inside one formation window: under the per-transaction modes this
  // is an abort storm, under QR-Q it is one batch whose members read each
  // other's speculative values in queue order.
  Cluster c(queued_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));
  constexpr int kTxns = 6;
  for (int i = 0; i < kTxns; ++i) {
    c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await t.read_for_write(obj));
      t.write(obj, enc_i64(v + 1));
    });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(c.metrics().batches_committed, 1u);
  EXPECT_EQ(c.metrics().speculation_rollbacks, 0u);
  // One quorum fetch for the first touch; the other five members hit the
  // batch cache.
  auto rq = c.quorums().cohort_read_quorum(0, 0);
  EXPECT_EQ(c.metrics().read_messages, rq.size());
  EXPECT_EQ(c.metrics().batch_read_hits, static_cast<std::uint64_t>(kTxns - 1));
  // The whole batch commits through one 2PC round.
  EXPECT_EQ(c.metrics().commit_requests, 1u);

  std::int64_t final_value = -1;
  // qrdtm-lint: allow(coro-ref-capture) run_to_completion outlives the body
  c.spawn_client(5, [obj, &final_value](Txn& t) -> sim::Task<void> {
    final_value = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(final_value, kTxns);
}

TEST(QrQueued, ReadOnlyBatchSkipsConfirmRound) {
  Cluster c(queued_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(1));
  c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(obj);
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().commit_requests, 1u);
  // Vote round only: nothing was protected, so no confirm is broadcast.
  auto wq = c.quorums().cohort_write_quorum(0, 0);
  EXPECT_EQ(c.metrics().commit_messages, wq.size());
}

TEST(QrQueued, EmptyTransactionCommitsLocally) {
  Cluster c(queued_cfg());
  c.spawn_client(0, [](Txn&) -> sim::Task<void> { co_return; });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().local_commits, 1u);
  EXPECT_EQ(c.metrics().commit_requests, 0u);
  EXPECT_EQ(c.metrics().read_messages, 0u);
}

TEST(QrQueued, CrossNodeConflictRollsBackSpeculationAndConverges) {
  // Two nodes batch increments of the same counter concurrently: the loser
  // of the 2PC race discards its round (speculation rollback), re-fetches
  // the stale queue, re-executes locally and commits on a later round.  No
  // update may be lost.
  Cluster c(queued_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));
  constexpr int kPerNode = 4;
  for (int i = 0; i < kPerNode; ++i) {
    for (net::NodeId n : {net::NodeId{0}, net::NodeId{1}}) {
      c.spawn_client(n, [obj](Txn& t) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await t.read_for_write(obj));
        t.write(obj, enc_i64(v + 1));
      });
    }
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 2u * kPerNode);
  EXPECT_GE(c.metrics().batches_committed, 2u);
  EXPECT_GE(c.metrics().speculation_rollbacks, 1u);

  std::int64_t final_value = -1;
  // qrdtm-lint: allow(coro-ref-capture) run_to_completion outlives the body
  c.spawn_client(7, [obj, &final_value](Txn& t) -> sim::Task<void> {
    final_value = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(final_value, 2 * kPerNode);
}

TEST(QrQueued, HistoryIsCertifiedSerializable) {
  // The recorder sees one CommittedTxn per batch member with writes chained
  // in queue order; the unchanged 4-pass checker must certify the result.
  Cluster c(queued_cfg());
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  constexpr int kAccounts = 5;
  constexpr std::int64_t kInitial = 100;
  std::vector<ObjectId> accts;
  for (int i = 0; i < kAccounts; ++i) {
    accts.push_back(c.seed_new_object(enc_i64(kInitial)));
  }
  for (int i = 0; i < 12; ++i) {
    ObjectId from = accts[i % kAccounts];
    ObjectId to = accts[(i + 2) % kAccounts];
    c.spawn_client(static_cast<net::NodeId>(i % 3),
                   [from, to](Txn& t) -> sim::Task<void> {
                     std::int64_t f = dec_i64(co_await t.read_for_write(from));
                     std::int64_t g = dec_i64(co_await t.read_for_write(to));
                     t.write(from, enc_i64(f - 7));
                     t.write(to, enc_i64(g + 7));
                   });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 12u);

  const CheckResult cr = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(cr.ok) << cr.report;
  EXPECT_EQ(cr.committed, 12u);

  std::int64_t total = 0;
  // qrdtm-lint: allow(coro-ref-capture) run_to_completion keeps locals alive
  c.spawn_client(0, [&accts, &total](Txn& t) -> sim::Task<void> {
    for (ObjectId a : accts) total += dec_i64(co_await t.read(a));
  });
  c.run_to_completion();
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(QrQueued, BatchMetricsAreConsistent) {
  Cluster c(queued_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));
  for (int i = 0; i < 9; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i % 2),
                   [obj](Txn& t) -> sim::Task<void> {
                     std::int64_t v = dec_i64(co_await t.read_for_write(obj));
                     t.write(obj, enc_i64(v + 1));
                   });
  }
  c.run_to_completion();
  const LatencyMetrics lat = c.merged_latency();
  // One batch-size sample per committed batch; every committed member
  // recorded its formation wait and commit latency.
  EXPECT_EQ(lat.batch_size.count(), c.metrics().batches_committed);
  EXPECT_EQ(lat.commit_latency.count(), c.metrics().commits);
  EXPECT_GE(lat.batch_wait.count(), c.metrics().commits);
  // Under queued mode aborts are batch rounds, never root retries or Rqv
  // failures (queued reads are flat-style).
  EXPECT_EQ(c.metrics().root_aborts, 0u);
  EXPECT_EQ(c.metrics().ct_aborts, 0u);
  EXPECT_EQ(c.metrics().validation_failures, 0u);
  EXPECT_EQ(c.metrics().total_aborts(),
            c.metrics().speculation_rollbacks);
}

sim::Task<void> bounded_txn(Cluster* c, net::NodeId node, ObjectId obj,
                            std::uint32_t max_attempts, bool* result,
                            bool* finished) {
  *result = co_await c->runtime(node).run_transaction_bounded(
      [obj](Txn& t) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await t.read_for_write(obj));
        t.write(obj, enc_i64(v + 1));
      },
      max_attempts);
  *finished = true;
}

TEST(QrQueued, BoundedBatchGivesUpWhenQuorumUnreachable) {
  Cluster c(queued_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));
  // Total message loss: every quorum fetch times out, so each batch round
  // fails as an infrastructure abort and the attempt budget drains.
  c.network().set_drop_probability(0.99);
  bool result = true;
  bool finished = false;
  c.simulator().spawn(bounded_txn(&c, 0, obj, 3, &result, &finished));
  c.run_to_completion();
  ASSERT_TRUE(finished);
  EXPECT_FALSE(result);
  EXPECT_EQ(c.metrics().commits, 0u);
  EXPECT_EQ(c.metrics().speculation_rollbacks, 3u);
}

TEST(QrQueued, DeterministicAcrossRuns) {
  auto run = []() {
    Cluster c(queued_cfg());
    ObjectId obj = c.seed_new_object(enc_i64(0));
    for (int i = 0; i < 8; ++i) {
      c.spawn_client(static_cast<net::NodeId>(i % 3),
                     [obj](Txn& t) -> sim::Task<void> {
                       std::int64_t v = dec_i64(co_await t.read_for_write(obj));
                       t.write(obj, enc_i64(v + 1));
                     });
    }
    c.run_to_completion();
    return std::tuple{c.metrics().commits, c.metrics().batches_committed,
                      c.metrics().speculation_rollbacks,
                      c.metrics().read_messages, c.metrics().commit_messages,
                      c.duration()};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace qrdtm::core
