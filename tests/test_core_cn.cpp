// Integration tests of QR-CN: closed nesting with Rqv incremental
// validation (paper §III).
//
// Conflicts are injected by applying a committed write to *every* replica at
// a chosen simulated time (equivalent to an external transaction whose write
// quorum is the full node set), which makes the conflict visible to any read
// quorum deterministically.
#include <gtest/gtest.h>

#include <set>
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

ClusterConfig cn_cfg() {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.runtime.mode = NestingMode::kClosed;
  cfg.seed = 7;
  return cfg;
}

/// Commits `value` to `obj` on every replica at simulated time `at`,
/// bumping the version by one.
void bump_everywhere(Cluster& c, sim::Tick at, ObjectId obj,
                     std::int64_t value) {
  c.simulator().schedule_at(at, [&c, obj, value] {
    Version v = c.server(0).store().version_of(obj);
    for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
      c.server(n).store().apply(obj, v + 1, enc_i64(value));
    }
  });
}

TEST(QrCn, CtCommitMergesIntoParentAndRootCommits) {
  Cluster c(cn_cfg());
  ObjectId m1 = c.seed_new_object(enc_i64(1));
  ObjectId m2 = c.seed_new_object(enc_i64(2));
  ObjectId m3 = c.seed_new_object(enc_i64(4));
  ObjectId out = c.seed_new_object(enc_i64(0));

  // The paper's matrix-sum example (Fig. 2): parent adds m1+m2, the CT adds
  // the intermediate and m3, the root writes the result.
  c.spawn_client(1, [=](Txn& t) -> sim::Task<void> {
    std::int64_t a = dec_i64(co_await t.read(m1));
    std::int64_t b = dec_i64(co_await t.read(m2));
    std::int64_t intm = a + b;
    std::int64_t result = 0;
    co_await t.nested([&, m3](Txn& ct) -> sim::Task<void> {
      std::int64_t d = dec_i64(co_await ct.read(m3));
      result = intm + d;
      (void)co_await ct.read_for_write(out);
      ct.write(out, enc_i64(result));
    });
  });
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().ct_aborts, 0u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);

  std::int64_t seen = 0;
  c.spawn_client(5, [out, &seen](Txn& t) -> sim::Task<void> {
    seen = dec_i64(co_await t.read(out));
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 7);
}

TEST(QrCn, ReadOnlyRootCommitsLocallyWithZeroCommitMessages) {
  Cluster c(cn_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(5));
  c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(obj);
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().local_commits, 1u);
  EXPECT_EQ(c.metrics().commit_requests, 0u);
  EXPECT_EQ(c.metrics().commit_messages, 0u);
}

TEST(QrCn, ConflictOnCtOwnedObjectRetriesOnlyTheCt) {
  Cluster c(cn_cfg());
  ObjectId x = c.seed_new_object(enc_i64(10));
  ObjectId y = c.seed_new_object(enc_i64(20));

  std::int64_t seen_x = 0;
  c.spawn_client(1, [&, x, y](Txn& t) -> sim::Task<void> {
    co_await t.nested([&, x, y](Txn& ct) -> sim::Task<void> {
      seen_x = dec_i64(co_await ct.read(x));
      co_await ct.compute(sim::msec(200));
      (void)co_await ct.read(y);  // Rqv validates {x} here
    });
  });
  // Bump x while the CT is inside its compute window.
  bump_everywhere(c, sim::msec(100), x, 11);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().ct_aborts, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);
  EXPECT_EQ(seen_x, 11) << "retried CT must observe the new value";
}

TEST(QrCn, ConflictOnParentOwnedObjectAbortsRoot) {
  Cluster c(cn_cfg());
  ObjectId p = c.seed_new_object(enc_i64(1));
  ObjectId y = c.seed_new_object(enc_i64(2));

  std::int64_t seen_p = 0;
  c.spawn_client(1, [&, p, y](Txn& t) -> sim::Task<void> {
    seen_p = dec_i64(co_await t.read(p));  // owned by the root
    co_await t.compute(sim::msec(200));
    co_await t.nested([&, y](Txn& ct) -> sim::Task<void> {
      (void)co_await ct.read(y);  // Rqv validates {p}: invalid -> abortClosed=root
    });
  });
  bump_everywhere(c, sim::msec(100), p, 99);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 1u);
  EXPECT_EQ(c.metrics().ct_aborts, 0u);
  EXPECT_EQ(seen_p, 99) << "root retry must observe the new value";
}

TEST(QrCn, MergedObjectsBecomeParentOwned) {
  // After a CT commits, a conflict on an object it read must abort the
  // *parent* (the CT no longer exists to retry).
  Cluster c(cn_cfg());
  ObjectId x = c.seed_new_object(enc_i64(1));
  ObjectId z = c.seed_new_object(enc_i64(2));

  c.spawn_client(1, [&, x, z](Txn& t) -> sim::Task<void> {
    co_await t.nested([x](Txn& ct) -> sim::Task<void> {
      (void)co_await ct.read(x);
    });  // merges: x now owned by the root
    co_await t.compute(sim::msec(200));
    (void)co_await t.read(z);  // Rqv validates {x}
  });
  bump_everywhere(c, sim::msec(150), x, 3);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 1u);
  EXPECT_EQ(c.metrics().ct_aborts, 0u);
}

TEST(QrCn, CheckParentServesLocallyWithNoMessages) {
  Cluster c(cn_cfg());
  ObjectId x = c.seed_new_object(enc_i64(42));
  std::uint64_t reads_before = 0;
  std::int64_t inner = 0;
  c.spawn_client(0, [&, x](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(x);
    reads_before = t.runtime().metrics().remote_reads;
    co_await t.nested([&, x](Txn& ct) -> sim::Task<void> {
      inner = dec_i64(co_await ct.read(x));  // checkParent: local
    });
  });
  c.run_to_completion();
  EXPECT_EQ(inner, 42);
  EXPECT_EQ(c.metrics().remote_reads, reads_before);
  EXPECT_GE(c.metrics().local_read_hits, 1u);
}

TEST(QrCn, CtCommitSendsNoMessages) {
  Cluster c(cn_cfg());
  ObjectId x = c.seed_new_object(enc_i64(1));
  std::uint64_t msgs_at_ct_end = 0, msgs_after_merge = 0;
  c.spawn_client(0, [&, x](Txn& t) -> sim::Task<void> {
    co_await t.nested([&, x](Txn& ct) -> sim::Task<void> {
      (void)co_await ct.read(x);
      msgs_at_ct_end = ct.runtime().metrics().total_messages();
    });
    msgs_after_merge = t.runtime().metrics().total_messages();
  });
  c.run_to_completion();
  EXPECT_EQ(msgs_at_ct_end, msgs_after_merge)
      << "commitCT must be purely local (paper Alg. 3)";
}

TEST(QrCn, DeepNestingAbortsInnermostOwner) {
  // Grandchild conflict on an object the *child* owns: abortClosed is the
  // child; the child retries (re-running the grandchild), the root stays.
  Cluster c(cn_cfg());
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));

  int child_runs = 0, grandchild_runs = 0;
  c.spawn_client(1, [&, a, b](Txn& t) -> sim::Task<void> {
    co_await t.nested([&, a, b](Txn& child) -> sim::Task<void> {
      ++child_runs;
      (void)co_await child.read(a);  // owned by child
      co_await child.compute(sim::msec(200));
      co_await child.nested([&, b](Txn& gc) -> sim::Task<void> {
        ++grandchild_runs;
        (void)co_await gc.read(b);  // validates {a}: invalid -> abort child
      });
    });
  });
  bump_everywhere(c, sim::msec(100), a, 5);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);
  EXPECT_EQ(c.metrics().ct_aborts, 1u);
  EXPECT_EQ(child_runs, 2);
  EXPECT_EQ(grandchild_runs, 2);
}

TEST(QrCn, NestedWritesCommitThroughRoot) {
  // Writes made inside CTs merge upward and reach the replicas exactly once
  // at root commit.
  Cluster c(cn_cfg());
  ObjectId x = c.seed_new_object(enc_i64(0));
  ObjectId y = c.seed_new_object(enc_i64(0));
  c.spawn_client(2, [=](Txn& t) -> sim::Task<void> {
    co_await t.nested([x](Txn& ct) -> sim::Task<void> {
      (void)co_await ct.read_for_write(x);
      ct.write(x, enc_i64(1));
    });
    co_await t.nested([y](Txn& ct) -> sim::Task<void> {
      (void)co_await ct.read_for_write(y);
      ct.write(y, enc_i64(2));
    });
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().commit_requests, 1u);

  std::int64_t sx = -1, sy = -1;
  c.spawn_client(8, [&, x, y](Txn& t) -> sim::Task<void> {
    sx = dec_i64(co_await t.read(x));
    sy = dec_i64(co_await t.read(y));
  });
  c.run_to_completion();
  EXPECT_EQ(sx, 1);
  EXPECT_EQ(sy, 2);
}

TEST(QrCn, AbortedCtDiscardsItsWritesAndRetriesFresh) {
  Cluster c(cn_cfg());
  ObjectId x = c.seed_new_object(enc_i64(1));
  ObjectId y = c.seed_new_object(enc_i64(0));
  ObjectId z = c.seed_new_object(enc_i64(0));

  int attempts = 0;
  c.spawn_client(1, [&, x, y, z](Txn& t) -> sim::Task<void> {
    co_await t.nested([&, x, y, z](Txn& ct) -> sim::Task<void> {
      ++attempts;
      std::int64_t v = dec_i64(co_await ct.read(x));
      (void)co_await ct.read_for_write(y);
      ct.write(y, enc_i64(v * 100));
      co_await ct.compute(sim::msec(200));
      (void)co_await ct.read(z);  // remote: Rqv sees the bumped x
    });
  });
  bump_everywhere(c, sim::msec(100), x, 2);
  c.run_to_completion();

  EXPECT_EQ(c.metrics().ct_aborts, 1u);
  EXPECT_EQ(attempts, 2);
  // The committed write of y derives from the *fresh* x value (2): the
  // aborted attempt's buffered write (100) was discarded.
  std::int64_t fy = 0;
  c.spawn_client(3, [&, y](Txn& t) -> sim::Task<void> {
    fy = dec_i64(co_await t.read(y));
  });
  c.run_to_completion();
  EXPECT_EQ(fy, 200);
}

TEST(QrCn, FlatModeFlattensNestedScopes) {
  ClusterConfig cfg = cn_cfg();
  cfg.runtime.mode = NestingMode::kFlat;
  Cluster c(cfg);
  ObjectId x = c.seed_new_object(enc_i64(1));
  ObjectId y = c.seed_new_object(enc_i64(2));

  c.spawn_client(1, [&, x, y](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(x);
    co_await t.compute(sim::msec(200));
    co_await t.nested([y](Txn& inner) -> sim::Task<void> {
      (void)co_await inner.read(y);
    });
    (void)co_await t.read_for_write(y);
    t.write(y, enc_i64(3));
  });
  bump_everywhere(c, sim::msec(100), x, 9);
  c.run_to_completion();

  // Flat nesting: the conflict on x surfaces at commit and aborts the whole
  // transaction; there are no CT aborts by definition.
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().ct_aborts, 0u);
  EXPECT_GE(c.metrics().root_aborts, 1u);
}

TEST(QrCn, ConcurrentNestedIncrementsSerialise) {
  Cluster c(cn_cfg());
  ObjectId ctr = c.seed_new_object(enc_i64(0));
  constexpr int kClients = 10;
  for (int i = 0; i < kClients; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [ctr](Txn& t) -> sim::Task<void> {
                     co_await t.nested([ctr](Txn& ct) -> sim::Task<void> {
                       std::int64_t v =
                           dec_i64(co_await ct.read_for_write(ctr));
                       ct.write(ctr, enc_i64(v + 1));
                     });
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

// DESIGN §8: when a CT upgrades (read_for_write) an object its ancestor
// already holds, the merge must not leave two data-set entries for the same
// object -- duplicate entries inflate every later Rqv message and make the
// replica validate the same object twice.
TEST(QrCn, CtUpgradeOfAncestorObjectLeavesUniqueDatasetEntries) {
  Cluster c(cn_cfg());
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));

  std::vector<ObjectId> dataset_ids;
  c.spawn_client(1, [&, a, b](Txn& t) -> sim::Task<void> {
    // Root acquires `a` for writing; the grandchild CT re-reads it (served
    // from the ancestor write-set) and upgrades it again, then merges up
    // through two levels.
    (void)co_await t.read_for_write(a);
    co_await t.nested([&, a, b](Txn& mid) -> sim::Task<void> {
      (void)co_await mid.read(b);
      co_await mid.nested([&, a](Txn& ct) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await ct.read_for_write(a));
        ct.write(a, enc_i64(v + 10));
      });
    });
    for (const DataSetEntry& e : t.dataset_entries()) {
      dataset_ids.push_back(e.id);
    }
  });
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, 1u);
  std::set<ObjectId> unique(dataset_ids.begin(), dataset_ids.end());
  EXPECT_EQ(unique.size(), dataset_ids.size())
      << "merged data-set must hold each object at most once";
  EXPECT_EQ(unique.count(a), 1u);
  EXPECT_EQ(unique.count(b), 1u);

  std::int64_t final_a = 0;
  c.spawn_client(5, [&, a](Txn& t) -> sim::Task<void> {
    final_a = dec_i64(co_await t.read(a));
  });
  c.run_to_completion();
  EXPECT_EQ(final_a, 11);
}

}  // namespace
}  // namespace qrdtm::core
