// N-TFA tests: closed nesting over the TFA baseline (related work the
// paper compares against -- Turcu, Ravindran & Saad's N-TFA).
#include <gtest/gtest.h>
#include <span>

#include "baselines/tfa.h"
#include "common/serde.h"

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

TfaConfig nested_cfg() {
  TfaConfig cfg;
  cfg.closed_nesting = true;
  cfg.seed = 61;
  return cfg;
}

/// Seed an object whose home node matches `with`'s home: transaction
/// forwarding only triggers when a read reaches a node whose clock advanced,
/// so conflict-detection tests need the probe object co-located with the
/// contended one.
ObjectId seed_colocated(TfaCluster& c, ObjectId with, std::int64_t value) {
  for (int i = 0; i < 1000; ++i) {
    ObjectId id = c.seed_new_object(enc_i64(value));
    if (c.home_of(id) == c.home_of(with)) return id;
  }
  ADD_FAILURE() << "could not co-locate an object";
  return 0;
}

TEST(Ntfa, NestedScopesMergeAndCommit) {
  TfaCluster c(nested_cfg());
  ObjectId x = c.seed_new_object(enc_i64(1));
  ObjectId y = c.seed_new_object(enc_i64(2));
  c.spawn_client(0, [x, y](TfaTxn& t) -> sim::Task<void> {
    co_await t.nested([x](TfaTxn& ct) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await ct.read_for_write(x));
      ct.write(x, enc_i64(v + 10));
    });
    co_await t.nested([y](TfaTxn& ct) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await ct.read_for_write(y));
      ct.write(y, enc_i64(v + 20));
    });
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);

  std::int64_t sx = 0, sy = 0;
  c.spawn_client(3, [&, x, y](TfaTxn& t) -> sim::Task<void> {
    sx = dec_i64(co_await t.read(x));
    sy = dec_i64(co_await t.read(y));
  });
  c.run_to_completion();
  EXPECT_EQ(sx, 11);
  EXPECT_EQ(sy, 22);
}

TEST(Ntfa, FlatConfigInlinesNestedScopes) {
  TfaConfig cfg;
  cfg.closed_nesting = false;
  TfaCluster c(cfg);
  ObjectId x = c.seed_new_object(enc_i64(5));
  std::size_t depth_inside = 99;
  c.spawn_client(0, [&, x](TfaTxn& t) -> sim::Task<void> {
    co_await t.nested([&, x](TfaTxn& inner) -> sim::Task<void> {
      (void)co_await inner.read(x);
      depth_inside = inner.depth();
    });
  });
  c.run_to_completion();
  EXPECT_EQ(depth_inside, 1u) << "flat TFA must not open scopes";
}

TEST(Ntfa, InnerConflictRetriesOnlyTheScope) {
  // Forwarding validation fails on an object read by the *inner* scope:
  // only that scope retries (ct_aborts), not the whole transaction.
  TfaCluster c(nested_cfg());
  ObjectId outer_obj = c.seed_new_object(enc_i64(1));
  ObjectId inner_obj = c.seed_new_object(enc_i64(2));
  ObjectId trigger = seed_colocated(c, inner_obj, 3);

  int inner_runs = 0;
  c.spawn_client(0, [&](TfaTxn& t) -> sim::Task<void> {
    (void)co_await t.read(outer_obj);
    co_await t.nested([&](TfaTxn& ct) -> sim::Task<void> {
      ++inner_runs;
      (void)co_await ct.read(inner_obj);
      co_await c.simulator().delay(sim::msec(150));
      // Reading `trigger` after the writer commits forwards the clock and
      // validates both scopes' read-sets.
      (void)co_await ct.read(trigger);
    });
  });
  // Concurrent writer bumps inner_obj while the inner scope is sleeping.
  c.simulator().schedule_at(sim::msec(50), [&c, inner_obj] {
    c.spawn_client(1, [inner_obj](TfaTxn& t) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await t.read_for_write(inner_obj));
      t.write(inner_obj, enc_i64(v + 100));
    });
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 2u);
  EXPECT_EQ(c.metrics().ct_aborts, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);
  EXPECT_EQ(inner_runs, 2);
}

TEST(Ntfa, OuterConflictAbortsWholeTransaction) {
  TfaCluster c(nested_cfg());
  ObjectId outer_obj = c.seed_new_object(enc_i64(1));
  ObjectId trigger = seed_colocated(c, outer_obj, 3);

  int root_runs = 0;
  c.spawn_client(0, [&](TfaTxn& t) -> sim::Task<void> {
    ++root_runs;
    (void)co_await t.read(outer_obj);  // owned by the root scope
    co_await c.simulator().delay(sim::msec(150));
    co_await t.nested([&](TfaTxn& ct) -> sim::Task<void> {
      (void)co_await ct.read(trigger);  // forwards + validates outer_obj
    });
  });
  c.simulator().schedule_at(sim::msec(50), [&c, outer_obj] {
    c.spawn_client(1, [outer_obj](TfaTxn& t) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await t.read_for_write(outer_obj));
      t.write(outer_obj, enc_i64(v + 100));
    });
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 2u);
  EXPECT_GE(c.metrics().root_aborts, 1u);
  EXPECT_EQ(root_runs, 2);
}

TEST(Ntfa, AbortedScopeDiscardsItsBufferedWrites) {
  TfaCluster c(nested_cfg());
  ObjectId x = c.seed_new_object(enc_i64(1));
  ObjectId y = c.seed_new_object(enc_i64(0));
  ObjectId trigger = seed_colocated(c, x, 0);

  c.spawn_client(0, [&](TfaTxn& t) -> sim::Task<void> {
    co_await t.nested([&](TfaTxn& ct) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await ct.read(x));
      (void)co_await ct.read_for_write(y);
      ct.write(y, enc_i64(v * 100));
      co_await c.simulator().delay(sim::msec(150));
      (void)co_await ct.read(trigger);  // detects the bumped x
    });
  });
  c.simulator().schedule_at(sim::msec(50), [&c, x] {
    c.spawn_client(1, [x](TfaTxn& t) -> sim::Task<void> {
      (void)co_await t.read_for_write(x);
      t.write(x, enc_i64(2));
    });
  });
  c.run_to_completion();

  std::int64_t fy = 0;
  c.spawn_client(3, [&, y](TfaTxn& t) -> sim::Task<void> {
    fy = dec_i64(co_await t.read(y));
  });
  c.run_to_completion();
  EXPECT_EQ(fy, 200) << "retried scope must derive from the fresh x";
}

TEST(Ntfa, NestedTransfersConserveUnderContention) {
  TfaCluster c(nested_cfg());
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
                     co_await t.nested([&](TfaTxn& ct) -> sim::Task<void> {
                       std::int64_t f =
                           dec_i64(co_await ct.read_for_write(from));
                       std::int64_t g =
                           dec_i64(co_await ct.read_for_write(to));
                       ct.write(from, enc_i64(f - 5));
                       ct.write(to, enc_i64(g + 5));
                     });
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

}  // namespace
}  // namespace qrdtm::baselines
