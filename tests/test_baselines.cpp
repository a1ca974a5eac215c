// Tests for the Fig. 9 comparison baselines: TFA (HyFlow) and DecentSTM.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "baselines/decent.h"
#include "baselines/tfa.h"
#include "common/serde.h"
#include "core/history.h"

namespace qrdtm::baselines {
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

// ------------------------------------------------------------------- TFA

TEST(Tfa, SingleTransferCommits) {
  TfaCluster c(TfaConfig{});
  ObjectId a = c.seed_new_object(enc_i64(100));
  ObjectId b = c.seed_new_object(enc_i64(100));
  c.spawn_client(0, [a, b](TfaTxn& t) -> sim::Task<void> {
    std::int64_t va = dec_i64(co_await t.read_for_write(a));
    std::int64_t vb = dec_i64(co_await t.read_for_write(b));
    t.write(a, enc_i64(va - 10));
    t.write(b, enc_i64(vb + 10));
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);

  std::int64_t got_a = 0, got_b = 0;
  c.spawn_client(3, [&, a, b](TfaTxn& t) -> sim::Task<void> {
    got_a = dec_i64(co_await t.read(a));
    got_b = dec_i64(co_await t.read(b));
  });
  c.run_to_completion();
  EXPECT_EQ(got_a, 90);
  EXPECT_EQ(got_b, 110);
}

TEST(Tfa, ReadOnlyCommitsWithoutCommitMessages) {
  TfaCluster c(TfaConfig{});
  ObjectId a = c.seed_new_object(enc_i64(1));
  c.spawn_client(0, [a](TfaTxn& t) -> sim::Task<void> {
    (void)co_await t.read(a);
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().commit_messages, 0u);
  EXPECT_EQ(c.metrics().local_commits, 1u);
}

TEST(Tfa, ReadsAreUnicast) {
  TfaCluster c(TfaConfig{});
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  c.spawn_client(0, [a, b](TfaTxn& t) -> sim::Task<void> {
    (void)co_await t.read(a);
    (void)co_await t.read(b);
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().read_messages, 2u) << "one unicast per object";
}

TEST(Tfa, ConcurrentIncrementsSerialise) {
  TfaCluster c(TfaConfig{});
  ObjectId ctr = c.seed_new_object(enc_i64(0));
  constexpr int kClients = 10;
  for (int i = 0; i < kClients; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [ctr](TfaTxn& t) -> sim::Task<void> {
                     std::int64_t v = dec_i64(co_await t.read_for_write(ctr));
                     t.write(ctr, enc_i64(v + 1));
                   });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kClients));
  std::int64_t final_v = 0;
  c.spawn_client(0, [&, ctr](TfaTxn& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(ctr));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, kClients);
}

TEST(Tfa, TransfersConserveBalance) {
  TfaCluster c(TfaConfig{});
  constexpr int kAccounts = 8;
  std::vector<ObjectId> accts;
  for (int i = 0; i < kAccounts; ++i) {
    accts.push_back(c.seed_new_object(enc_i64(100)));
  }
  for (int i = 0; i < 30; ++i) {
    ObjectId from = accts[i % kAccounts];
    ObjectId to = accts[(i + 3) % kAccounts];
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [from, to](TfaTxn& t) -> sim::Task<void> {
                     std::int64_t f = dec_i64(co_await t.read_for_write(from));
                     std::int64_t g = dec_i64(co_await t.read_for_write(to));
                     t.write(from, enc_i64(f - 5));
                     t.write(to, enc_i64(g + 5));
                   });
  }
  c.run_to_completion();
  std::int64_t total = 0;
  c.spawn_client(0, [&](TfaTxn& t) -> sim::Task<void> {
    for (ObjectId a : accts) total += dec_i64(co_await t.read(a));
  });
  c.run_to_completion();
  EXPECT_EQ(total, kAccounts * 100);
}

// ------------------------------------------------------------- DecentSTM

DecentConfig fast_decent() {
  DecentConfig cfg;
  cfg.snapshot_compute = 0;  // isolate protocol logic in unit tests
  return cfg;
}

TEST(Decent, SingleTransferCommits) {
  DecentCluster c(fast_decent());
  ObjectId a = c.seed_new_object(enc_i64(100));
  ObjectId b = c.seed_new_object(enc_i64(100));
  c.spawn_client(0, [a, b](DecentTxn& t) -> sim::Task<void> {
    std::int64_t va = dec_i64(co_await t.read_for_write(a));
    std::int64_t vb = dec_i64(co_await t.read_for_write(b));
    t.write(a, enc_i64(va - 10));
    t.write(b, enc_i64(vb + 10));
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);

  std::int64_t got_a = 0, got_b = 0;
  c.spawn_client(5, [&, a, b](DecentTxn& t) -> sim::Task<void> {
    got_a = dec_i64(co_await t.read(a));
    got_b = dec_i64(co_await t.read(b));
  });
  c.run_to_completion();
  EXPECT_EQ(got_a, 90);
  EXPECT_EQ(got_b, 110);
}

TEST(Decent, ReadOnlySnapshotIsConsistentAndFree) {
  DecentCluster c(fast_decent());
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  std::uint64_t snapshot = 0;
  c.spawn_client(0, [&, a, b](DecentTxn& t) -> sim::Task<void> {
    (void)co_await t.read(a);
    (void)co_await t.read(b);
    snapshot = t.snapshot_ts();
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commit_messages, 0u);
  EXPECT_EQ(c.metrics().local_commits, 1u);
  EXPECT_EQ(snapshot, 1u) << "first read pins the seeded version";
}

TEST(Decent, OldVersionsServeLaggingSnapshots) {
  // A reader that pinned its window before an update must still be served
  // the *old* version from the history.
  DecentCluster c(fast_decent());
  ObjectId a = c.seed_new_object(enc_i64(10));
  ObjectId b = c.seed_new_object(enc_i64(20));

  std::int64_t reader_a = 0, reader_b = 0;
  c.spawn_client(0, [&, a, b](DecentTxn& t) -> sim::Task<void> {
    reader_a = dec_i64(co_await t.read(a));  // pins window at version 1
    co_await c.simulator().delay(sim::msec(200));
    reader_b = dec_i64(co_await t.read(b));
  });
  // Writer bumps b mid-way through the reader.
  c.simulator().schedule_at(sim::msec(50), [&c, b] {
    c.spawn_client(1, [b](DecentTxn& t) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await t.read_for_write(b));
      t.write(b, enc_i64(v + 100));
    });
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 2u);
  EXPECT_EQ(reader_a, 10);
  // The reader's window was pinned below the writer's timestamp; the
  // history must serve the old value 20, not 120.
  EXPECT_EQ(reader_b, 20);
}

TEST(Decent, FirstCommitterWinsOnWriteWriteConflict) {
  DecentCluster c(fast_decent());
  ObjectId a = c.seed_new_object(enc_i64(0));
  constexpr int kClients = 6;
  for (int i = 0; i < kClients; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [a](DecentTxn& t) -> sim::Task<void> {
                     std::int64_t v = dec_i64(co_await t.read_for_write(a));
                     t.write(a, enc_i64(v + 1));
                   });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kClients));
  std::int64_t final_v = 0;
  c.spawn_client(0, [&, a](DecentTxn& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(a));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, kClients);
}

TEST(Decent, CommitBroadcastsToAllReplicas) {
  DecentConfig cfg = fast_decent();
  cfg.replication = 3;
  DecentCluster c(cfg);
  ObjectId a = c.seed_new_object(enc_i64(0));
  c.spawn_client(0, [a](DecentTxn& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(a));
    t.write(a, enc_i64(v + 1));
  });
  c.run_to_completion();
  // Vote + apply, each to all three replicas of the one written object.
  EXPECT_EQ(c.metrics().commit_messages, 6u);
}

// ------------------------------------------------- orphaned-lock leases
//
// Both baselines grant an exclusive lock during 2PC and release it with a
// later message from the coordinator.  If the coordinator fail-stops in
// between, that release never arrives; the lock lease must shed the orphan
// so the object becomes writable again.

template <class Cluster>
sim::Task<void> run_bounded(Cluster* c, net::NodeId node,
                            typename Cluster::Body body,
                            std::uint32_t attempts, bool* committed) {
  *committed =
      co_await c->run_transaction_bounded(node, std::move(body), attempts);
}

TEST(Tfa, OrphanedLockShedByLeaseUnwedgesObject) {
  TfaConfig cfg;
  cfg.lock_lease = sim::msec(200);
  TfaCluster c(cfg);
  const ObjectId obj = c.seed_new_object(enc_i64(0));
  // Doomed coordinator on a node that is NOT the object's home, so its
  // writeback has to cross the (soon dead) network link.
  const net::NodeId doomed =
      c.home_of(obj) == 0 ? net::NodeId{1} : net::NodeId{0};
  TfaBody bump = [obj](TfaTxn& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(obj));
    t.write(obj, enc_i64(v + 1));
  };

  bool doomed_committed = false;
  c.simulator().spawn(run_bounded(&c, doomed, bump, 1, &doomed_committed));
  // Run until the home has granted the lock, then fail-stop the coordinator
  // before its writeback is sent: the lock is now orphaned.
  bool locked = false;
  sim::Tick poll_at = 0;
  for (int i = 0; i < 1000 && !locked; ++i) {
    poll_at += sim::usec(250);
    c.simulator().advance_to(poll_at);
    locked = c.object_locked(obj);
  }
  ASSERT_TRUE(locked) << "test setup: the lock was never granted";
  c.network().kill(doomed);

  bool committed = false;
  const net::NodeId writer =
      c.home_of(obj) == 2 ? net::NodeId{3} : net::NodeId{2};
  c.simulator().spawn(run_bounded(&c, writer, bump, 50, &committed));
  c.run_to_completion();

  EXPECT_TRUE(committed) << "object stayed wedged behind the orphaned lock";
  EXPECT_GT(c.metrics().lease_breaks, 0u);
  EXPECT_FALSE(doomed_committed);
  std::int64_t final_v = -1;
  c.spawn_client(4, [&, obj](TfaTxn& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, 1) << "only the second writer's increment commits";
}

TEST(Decent, OrphanedLockShedByLeaseUnwedgesObject) {
  DecentConfig cfg = fast_decent();
  cfg.lock_lease = sim::msec(200);
  DecentCluster c(cfg);
  const ObjectId obj = c.seed_new_object(enc_i64(0));
  // Doomed coordinator off the replica set: its commit-apply must cross
  // the network, so killing it after the votes orphans the replica locks.
  const std::vector<net::NodeId> replicas = c.replicas_of(obj);
  net::NodeId doomed = 0;
  while (std::find(replicas.begin(), replicas.end(), doomed) !=
         replicas.end()) {
    ++doomed;
  }
  DecentBody bump = [obj](DecentTxn& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(obj));
    t.write(obj, enc_i64(v + 1));
  };

  bool doomed_committed = false;
  c.simulator().spawn(run_bounded(&c, doomed, bump, 1, &doomed_committed));
  bool locked = false;
  sim::Tick poll_at = 0;
  for (int i = 0; i < 1000 && !locked; ++i) {
    poll_at += sim::msec(1);
    c.simulator().advance_to(poll_at);
    locked = c.object_locked(obj);
  }
  ASSERT_TRUE(locked) << "test setup: no replica ever voted the lock";
  c.network().kill(doomed);

  bool committed = false;
  const net::NodeId writer = doomed == 0 ? net::NodeId{1} : net::NodeId{0};
  c.simulator().spawn(run_bounded(&c, writer, bump, 50, &committed));
  c.run_to_completion();

  EXPECT_TRUE(committed) << "object stayed wedged behind the orphaned lock";
  EXPECT_GT(c.metrics().lease_breaks, 0u);
  EXPECT_FALSE(doomed_committed);
  std::int64_t final_v = -1;
  c.spawn_client(writer, [&, obj](DecentTxn& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, 1) << "only the second writer's increment commits";
}

// ------------------------------------------------- shared retry loop
//
// Both baselines run their transactions through the shell's one retry loop:
// every abort is counted and recorded, and every abort but the last waits
// out a root backoff before the next attempt.

template <class Cluster>
class BaselineShell : public ::testing::Test {};
using BaselineClusters = ::testing::Types<TfaCluster, DecentCluster>;
TYPED_TEST_SUITE(BaselineShell, BaselineClusters);

TYPED_TEST(BaselineShell, BoundedRetryGivesUpAfterMaxAttempts) {
  TypeParam c(typename TypeParam::Config{});
  core::HistoryRecorder rec;
  c.set_history_recorder(&rec);
  const ObjectId missing = c.seed_new_object(enc_i64(0)) + 1;
  // Neither protocol can serve a never-seeded object: each attempt aborts.
  typename TypeParam::Body read_missing =
      [missing](typename TypeParam::Txn& t) -> sim::Task<void> {
    (void)co_await t.read(missing);
  };
  bool committed = true;
  c.simulator().spawn(run_bounded(&c, 0, read_missing, 3, &committed));
  c.run_to_completion();

  EXPECT_FALSE(committed);
  EXPECT_EQ(c.metrics().root_aborts, 3u);
  EXPECT_EQ(c.metrics().commits, 0u);
  EXPECT_EQ(c.latency().backoff_wait.count(), 2u);
  EXPECT_EQ(c.latency().retry_gap.count(), 2u);
  EXPECT_EQ(rec.events().size(), 3u);
  for (const core::HistoryEvent& e : rec.events()) {
    EXPECT_EQ(e.kind, core::HistoryEvent::Kind::kAbort);
  }
}

}  // namespace
}  // namespace qrdtm::baselines
