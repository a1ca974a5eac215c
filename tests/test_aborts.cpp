// Zero-throw regression tests: protocol aborts travel as values.
//
// Each test drives one abort kind through the runtime and asserts that the
// abort happened (its metric moved) while no exception was raised: the
// abort site hands control to its scope boundary by symmetric transfer and
// the boundary destroys the suspended frames.  The last test pins the
// other half of the contract: a genuine error (a live QuorumUnavailable)
// still reaches an unbounded caller as an exception.
#include <gtest/gtest.h>
#include <span>

#include "common/serde.h"
#include "core/cluster.h"
#include "throw_counter.h"

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

ClusterConfig cfg_for(NestingMode mode) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.runtime.mode = mode;
  cfg.seed = 7;
  return cfg;
}

/// Commits `value` to `obj` on every replica at simulated time `at`, so any
/// read quorum sees the conflict.
void bump_everywhere(Cluster& c, sim::Tick at, ObjectId obj,
                     std::int64_t value) {
  c.simulator().schedule_at(at, [&c, obj, value] {
    Version v = c.server(0).store().version_of(obj);
    for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
      c.server(n).store().apply(obj, v + 1, enc_i64(value));
    }
  });
}

/// Runs the cluster to completion and returns the raises it made.
std::uint64_t raises_during_run(Cluster& c) {
  const std::uint64_t before = qrdtm::testing::raise_count();
  c.run_to_completion();
  return qrdtm::testing::raise_count() - before;
}

#define SKIP_WITHOUT_THROW_HOOK()                                     \
  if (!qrdtm::testing::throw_hook_active()) {                         \
    GTEST_SKIP() << "exception interposition unavailable";            \
  }

TEST(AbortRegression, CtRetryRaisesNothing) {
  SKIP_WITHOUT_THROW_HOOK();
  Cluster c(cfg_for(NestingMode::kClosed));
  ObjectId x = c.seed_new_object(enc_i64(10));
  ObjectId y = c.seed_new_object(enc_i64(20));
  c.spawn_client(1, [x, y](Txn& t) -> sim::Task<void> {
    co_await t.nested([x, y](Txn& ct) -> sim::Task<void> {
      (void)co_await ct.read(x);
      co_await ct.compute(sim::msec(200));
      (void)co_await ct.read(y);  // Rqv finds x stale: abortClosed(ct)
    });
  });
  bump_everywhere(c, sim::msec(100), x, 11);
  EXPECT_EQ(raises_during_run(c), 0u);
  EXPECT_GT(c.metrics().ct_aborts, 0u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);
  EXPECT_EQ(c.metrics().commits, 1u);
}

TEST(AbortRegression, CtAbortNamingScopeTwoLevelsUpRaisesNothing) {
  SKIP_WITHOUT_THROW_HOOK();
  Cluster c(cfg_for(NestingMode::kClosed));
  ObjectId x = c.seed_new_object(enc_i64(10));
  ObjectId y = c.seed_new_object(enc_i64(20));
  int outer_runs = 0;
  int inner_runs = 0;
  std::int64_t seen_x = 0;
  // Scopes root > A > B > C.  A reads x; C, two levels below A, finds x
  // stale, so the abort crosses C's and B's boundaries and A retries.
  c.spawn_client(1, [&, x, y](Txn& t) -> sim::Task<void> {
    co_await t.nested([&, x, y](Txn& a) -> sim::Task<void> {
      ++outer_runs;
      seen_x = dec_i64(co_await a.read(x));
      co_await a.nested([&, y](Txn& b) -> sim::Task<void> {
        co_await b.nested([&, y](Txn& cs) -> sim::Task<void> {
          ++inner_runs;
          co_await cs.compute(sim::msec(200));
          (void)co_await cs.read(y);
        });
      });
    });
  });
  bump_everywhere(c, sim::msec(100), x, 11);
  EXPECT_EQ(raises_during_run(c), 0u);
  EXPECT_EQ(c.metrics().ct_aborts, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(outer_runs, 2) << "scope A retries";
  EXPECT_EQ(inner_runs, 2);
  EXPECT_EQ(seen_x, 11);
}

TEST(AbortRegression, ChkPartialRollbackRaisesNothing) {
  SKIP_WITHOUT_THROW_HOOK();
  ClusterConfig cfg = cfg_for(NestingMode::kCheckpoint);
  cfg.runtime.chk_threshold = 1;
  Cluster c(cfg);
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  ObjectId d = c.seed_new_object(enc_i64(3));
  c.spawn_client(1, [a, b, d](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(a);
    (void)co_await t.read(b);
    co_await t.compute(sim::msec(300));
    (void)co_await t.read(d);  // Rqv finds b stale: roll back to its epoch
  });
  bump_everywhere(c, sim::msec(150), b, 22);
  EXPECT_EQ(raises_during_run(c), 0u);
  EXPECT_GT(c.metrics().partial_rollbacks, 0u);
  EXPECT_EQ(c.metrics().root_aborts, 0u);
  EXPECT_EQ(c.metrics().commits, 1u);
}

TEST(AbortRegression, FlatRootAbortOnFailedVoteRaisesNothing) {
  SKIP_WITHOUT_THROW_HOOK();
  Cluster c(cfg_for(NestingMode::kFlat));
  ObjectId obj = c.seed_new_object(enc_i64(0));
  auto increment = [obj](Txn& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(obj));
    t.write(obj, enc_i64(v + 1));
  };
  constexpr int kClients = 8;
  for (int i = 0; i < kClients; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i), increment);
  }
  EXPECT_EQ(raises_during_run(c), 0u);
  EXPECT_GT(c.metrics().vote_aborts, 0u);
  EXPECT_GT(c.metrics().root_aborts, 0u);
  EXPECT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kClients));
}

sim::Task<void> bounded_increment(Cluster* c, ObjectId obj,
                                  std::uint32_t max_attempts, bool* result) {
  *result = co_await c->runtime(0).run_transaction_bounded(
      [obj](Txn& t) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await t.read_for_write(obj));
        t.write(obj, enc_i64(v + 1));
      },
      max_attempts);
}

TEST(AbortRegression, QueuedMemberInfrastructureAbortRaisesNothing) {
  SKIP_WITHOUT_THROW_HOOK();
  Cluster c(cfg_for(NestingMode::kQueued));
  ObjectId obj = c.seed_new_object(enc_i64(0));
  // Near-total message loss: every member's quorum fetch fails, an
  // infrastructure abort that unwinds to BatchPlanner::run_batch.
  c.network().set_drop_probability(0.99);
  bool result = true;
  c.simulator().spawn(bounded_increment(&c, obj, 3, &result));
  EXPECT_EQ(raises_during_run(c), 0u);
  EXPECT_FALSE(result);
  EXPECT_EQ(c.metrics().speculation_rollbacks, 3u);
  EXPECT_EQ(c.metrics().vote_aborts, 0u) << "no round reached its vote";
}

TEST(AbortRegression, StepGuardInCreateUnwindsAtTheNextOperation) {
  SKIP_WITHOUT_THROW_HOOK();
  Cluster c(cfg_for(NestingMode::kFlat));
  ObjectId obj = c.seed_new_object(enc_i64(0));
  int runs = 0;
  ObjectId first_created = 1;
  bool read_after_trip = false;
  c.spawn_client(1, [&, obj](Txn& t) -> sim::Task<void> {
    if (++runs == 1) {
      // Fill the attempt's step budget; create() is the operation that
      // trips it.  It cannot unwind, so it returns the null id and the
      // write is ignored; the next co_awaited operation unwinds.  Every
      // 1000th step suspends for a tick: at -O0 a symmetric transfer is
      // not a tail call, so 100000 steps that never suspend would
      // overflow the native stack.
      for (int i = 0; i < 100000; ++i) {
        co_await t.compute(i % 1000 == 0 ? 1 : 0);
      }
      first_created = t.create(enc_i64(1));
      t.write(first_created, enc_i64(2));
      (void)co_await t.read(obj);
      read_after_trip = true;
    }
    std::int64_t v = dec_i64(co_await t.read_for_write(obj));
    t.write(obj, enc_i64(v + 1));
  });
  EXPECT_EQ(raises_during_run(c), 0u);
  EXPECT_EQ(c.metrics().step_guard_trips, 1u);
  EXPECT_EQ(c.metrics().root_aborts, 1u);
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(first_created, store::kNullObject);
  EXPECT_FALSE(read_after_trip);
}

TEST(AbortRegression, LiveQuorumUnavailableStillThrowsToUnboundedCaller) {
  // Tree quorums on 4 nodes: with nodes 1-3 dead no read quorum can form.
  // The requester is alive, so this is a genuine error, not an abort: it
  // escapes run_transaction from inside a CT, and Simulator::run rethrows.
  ClusterConfig cfg = cfg_for(NestingMode::kClosed);
  cfg.num_nodes = 4;
  Cluster c(cfg);
  ObjectId obj = c.seed_new_object(enc_i64(1));
  c.kill_node(1);
  c.kill_node(2);
  c.kill_node(3);
  c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
    co_await t.nested([obj](Txn& ct) -> sim::Task<void> {
      (void)co_await ct.read(obj);
    });
  });
  EXPECT_THROW(c.run_to_completion(), quorum::QuorumUnavailable);
  EXPECT_EQ(c.metrics().commits, 0u);
}

}  // namespace
}  // namespace qrdtm::core
