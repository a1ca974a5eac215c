// Integration tests of the flat QR protocol on a simulated cluster.
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

ClusterConfig small_cfg(NestingMode mode = NestingMode::kFlat) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.runtime.mode = mode;
  cfg.seed = 42;
  return cfg;
}

TEST(QrFlat, SingleTransactionCommitsAndIsVisibleEverywhereViaQuorum) {
  Cluster c(small_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(10));

  c.spawn_client(1, [obj](Txn& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(obj));
    t.write(obj, enc_i64(v + 5));
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);

  // Every later reader, from any node, sees 15 (1-copy equivalence).
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    std::int64_t seen = -1;
    c.spawn_client(n, [obj, &seen](Txn& t) -> sim::Task<void> {
      seen = dec_i64(co_await t.read(obj));
    });
    c.run_to_completion();
    EXPECT_EQ(seen, 15) << "node " << n;
  }
}

TEST(QrFlat, CommitUpdatesOnlyWriteQuorumReplicas) {
  Cluster c(small_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));
  c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
    (void)co_await t.read_for_write(obj);
    t.write(obj, enc_i64(1));
  });
  c.run_to_completion();

  auto wq = c.quorums().cohort_write_quorum(0, 0);
  std::size_t fresh = 0, stale = 0;
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    Version v = c.server(n).store().version_of(obj);
    if (v == 2) {
      ++fresh;
      EXPECT_TRUE(std::find(wq.begin(), wq.end(), n) != wq.end());
    } else {
      EXPECT_EQ(v, 1u);
      ++stale;
    }
  }
  EXPECT_EQ(fresh, wq.size());
  EXPECT_EQ(stale, c.num_nodes() - wq.size());
}

TEST(QrFlat, ConflictingIncrementsAllApply) {
  // N concurrent increments of one counter must serialise to +N despite
  // conflicts (some transactions abort and retry).
  Cluster c(small_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));
  constexpr int kClients = 8;
  for (int i = 0; i < kClients; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i), [obj](Txn& t) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await t.read_for_write(obj));
      t.write(obj, enc_i64(v + 1));
    });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kClients));

  std::int64_t final_value = -1;
  c.spawn_client(5, [obj, &final_value](Txn& t) -> sim::Task<void> {
    final_value = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(final_value, kClients);
}

TEST(QrFlat, TransfersConserveTotalBalance) {
  Cluster c(small_cfg());
  constexpr int kAccounts = 6;
  constexpr std::int64_t kInitial = 100;
  std::vector<ObjectId> accts;
  for (int i = 0; i < kAccounts; ++i) {
    accts.push_back(c.seed_new_object(enc_i64(kInitial)));
  }
  // 20 transfers moving amount 7 between rotating account pairs.
  for (int i = 0; i < 20; ++i) {
    ObjectId from = accts[i % kAccounts];
    ObjectId to = accts[(i + 3) % kAccounts];
    if (from == to) continue;
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [from, to](Txn& t) -> sim::Task<void> {
                     std::int64_t f = dec_i64(co_await t.read_for_write(from));
                     std::int64_t g = dec_i64(co_await t.read_for_write(to));
                     t.write(from, enc_i64(f - 7));
                     t.write(to, enc_i64(g + 7));
                   });
  }
  c.run_to_completion();

  std::int64_t total = 0;
  c.spawn_client(0, [&accts, &total](Txn& t) -> sim::Task<void> {
    for (ObjectId a : accts) total += dec_i64(co_await t.read(a));
  });
  c.run_to_completion();
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(QrFlat, ReadOnlyTransactionStillSends2pc) {
  // Flat QR has no Rqv: even read-only transactions validate via commit
  // request (QR-CN removes this; see test_core_cn).
  Cluster c(small_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(1));
  c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(obj);
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commit_requests, 1u);
  EXPECT_EQ(c.metrics().local_commits, 0u);
}

TEST(QrFlat, CreateMakesObjectVisibleAfterCommit) {
  Cluster c(small_cfg());
  ObjectId created = store::kNullObject;
  c.spawn_client(2, [&created](Txn& t) -> sim::Task<void> {
    created = t.create(enc_i64(77));
    co_return;
  });
  c.run_to_completion();
  ASSERT_NE(created, store::kNullObject);

  std::int64_t seen = 0;
  c.spawn_client(9, [created, &seen](Txn& t) -> sim::Task<void> {
    seen = dec_i64(co_await t.read(created));
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 77);
}

TEST(QrFlat, WriteWithoutAcquireIsRejected) {
  Cluster c(small_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));
  bool threw = false;
  c.spawn_client(0, [obj, &threw](Txn& t) -> sim::Task<void> {
    try {
      t.write(obj, enc_i64(1));
    } catch (const InvariantError&) {
      threw = true;
    }
    co_return;
  });
  c.run_to_completion();
  EXPECT_TRUE(threw);
}

TEST(QrFlat, ReadYourOwnWrites) {
  Cluster c(small_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(1));
  std::int64_t reread = 0;
  c.spawn_client(0, [obj, &reread](Txn& t) -> sim::Task<void> {
    (void)co_await t.read_for_write(obj);
    t.write(obj, enc_i64(99));
    reread = dec_i64(co_await t.read(obj));  // local hit on own write-set
  });
  c.run_to_completion();
  EXPECT_EQ(reread, 99);
  EXPECT_EQ(c.metrics().local_read_hits, 1u);
}

TEST(QrFlat, MessageAccountingMatchesQuorumSizes) {
  Cluster c(small_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));
  c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
    (void)co_await t.read_for_write(obj);
    t.write(obj, enc_i64(1));
  });
  c.run_to_completion();
  auto rq = c.quorums().cohort_read_quorum(0, 0);
  auto wq = c.quorums().cohort_write_quorum(0, 0);
  EXPECT_EQ(c.metrics().read_messages, rq.size());
  // One commit request + one confirm, each to the whole write quorum.
  EXPECT_EQ(c.metrics().commit_messages, 2 * wq.size());
}

TEST(QrFlat, DeterministicAcrossRuns) {
  auto run = []() {
    Cluster c(small_cfg());
    ObjectId obj = c.seed_new_object(enc_i64(0));
    for (int i = 0; i < 6; ++i) {
      c.spawn_client(static_cast<net::NodeId>(i), [obj](Txn& t) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await t.read_for_write(obj));
        t.write(obj, enc_i64(v + 1));
      });
    }
    c.run_to_completion();
    return std::tuple{c.metrics().commits, c.metrics().root_aborts,
                      c.metrics().read_messages, c.duration()};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace qrdtm::core
