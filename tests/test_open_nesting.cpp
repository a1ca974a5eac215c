// QR-ON (open nesting) tests: global early commit, abstract-lock semantic
// isolation, and compensation on root abort.
#include <gtest/gtest.h>
#include <span>

#include "apps/hashmap.h"
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

ClusterConfig on_cfg() {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 81;
  return cfg;
}

TEST(OpenNesting, BodyCommitsGloballyBeforeRootFinishes) {
  Cluster c(on_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));

  std::int64_t observed_mid_root = -1;
  c.spawn_client(1, [&, obj](Txn& t) -> sim::Task<void> {
    OpenOp op;
    op.locks = {1};
    op.body = [obj](Txn& ot) -> sim::Task<void> {
      (void)co_await ot.read_for_write(obj);
      ot.write(obj, enc_i64(42));
    };
    co_await t.open_nested(std::move(op));
    // The open body has committed; the root dawdles before finishing.
    co_await t.compute(sim::msec(500));
  });
  // An independent reader looks while the root is still dawdling.
  c.simulator().schedule_at(sim::msec(300), [&c, obj, &observed_mid_root] {
    c.spawn_client(5, [obj, &observed_mid_root](Txn& t) -> sim::Task<void> {
      observed_mid_root = dec_i64(co_await t.read(obj));
    });
  });
  c.run_to_completion();
  EXPECT_EQ(observed_mid_root, 42)
      << "open-nested commits must be globally visible before root commit";
  EXPECT_EQ(c.metrics().open_commits, 1u);
}

TEST(OpenNesting, LocksReleaseAfterRootCommit) {
  Cluster c(on_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));
  c.spawn_client(0, [obj](Txn& t) -> sim::Task<void> {
    OpenOp op;
    op.locks = {7, 9};
    op.body = [obj](Txn& ot) -> sim::Task<void> {
      (void)co_await ot.read(obj);
    };
    co_await t.open_nested(std::move(op));
  });
  c.run_to_completion();
  std::size_t held = 0;
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    held += c.lock_manager(n).held_count();
  }
  EXPECT_EQ(held, 0u) << "all abstract locks must be released";
}

TEST(OpenNesting, AbstractLockSerialisesConflictingRoots) {
  // Two roots contend on the same abstract lock; the second must wait (or
  // retry) until the first's root settles -- their open bodies never
  // interleave on the semantic entity.
  Cluster c(on_cfg());
  ObjectId obj = c.seed_new_object(enc_i64(0));

  std::vector<int> order;
  auto make_root = [&](int tag) {
    return [&, tag, obj](Txn& t) -> sim::Task<void> {
      OpenOp op;
      op.locks = {5};
      op.body = [&, tag, obj](Txn& ot) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await ot.read_for_write(obj));
        ot.write(obj, enc_i64(v + 1));
        order.push_back(tag);
      };
      op.compensation = [](Txn&) -> sim::Task<void> { co_return; };
      co_await t.open_nested(std::move(op));
      co_await t.compute(sim::msec(200));  // hold the lock a while
    };
  };
  c.spawn_client(1, make_root(1));
  c.spawn_client(2, make_root(2));
  c.run_to_completion();

  std::int64_t final_v = 0;
  c.spawn_client(0, [&, obj](Txn& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, 2);
  EXPECT_GE(c.metrics().lock_conflicts, 1u)
      << "the second root must have been held off the lock";
}

TEST(OpenNesting, CompensationRunsOnRootAbortNewestFirst) {
  // The root performs two open increments on different objects, then
  // deliberately conflicts and aborts once: both compensations must run
  // (newest first) before the retry, leaving no double counting.
  Cluster c(on_cfg());
  ObjectId a = c.seed_new_object(enc_i64(0));
  ObjectId b = c.seed_new_object(enc_i64(0));
  ObjectId victim = c.seed_new_object(enc_i64(0));

  std::vector<std::string> comp_order;
  int attempts = 0;
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    ++attempts;
    auto inc = [](ObjectId o) {
      return [o](Txn& ot) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await ot.read_for_write(o));
        ot.write(o, enc_i64(v + 1));
      };
    };
    auto dec = [&comp_order](ObjectId o, std::string tag) -> TxnBody {
      return [o, tag, &comp_order](Txn& ct) -> sim::Task<void> {
        std::int64_t v = dec_i64(co_await ct.read_for_write(o));
        ct.write(o, enc_i64(v - 1));
        comp_order.push_back(tag);
      };
    };
    OpenOp op_a;
    op_a.locks = {11};
    op_a.body = inc(a);
    op_a.compensation = dec(a, "a");
    co_await t.open_nested(std::move(op_a));
    OpenOp op_b;
    op_b.locks = {12};
    op_b.body = inc(b);
    op_b.compensation = dec(b, "b");
    co_await t.open_nested(std::move(op_b));
    // Direct (memory-level) work that will conflict on the first attempt.
    (void)co_await t.read_for_write(victim);
    t.write(victim, enc_i64(attempts));
    if (attempts == 1) {
      co_await t.compute(sim::msec(400));  // window for the saboteur
    }
  });
  // Saboteur bumps `victim` during attempt 1's compute window (the two
  // open operations take ~300 ms of lock+commit rounds first) -> the root
  // vote-aborts at commit.
  c.simulator().schedule_at(sim::msec(500), [&c, victim] {
    Version v = c.server(0).store().version_of(victim);
    for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
      c.server(n).store().apply(victim, v + 1, enc_i64(99));
    }
  });
  c.run_to_completion();

  EXPECT_EQ(attempts, 2);
  ASSERT_EQ(comp_order.size(), 2u);
  EXPECT_EQ(comp_order[0], "b") << "newest compensation first";
  EXPECT_EQ(comp_order[1], "a");
  EXPECT_EQ(c.metrics().compensations_run, 2u);
  EXPECT_EQ(c.metrics().open_commits, 4u) << "re-run after the retry";

  // Net effect: exactly one increment of each survived.
  std::int64_t fa = 0, fb = 0;
  c.spawn_client(0, [&](Txn& t) -> sim::Task<void> {
    fa = dec_i64(co_await t.read(a));
    fb = dec_i64(co_await t.read(b));
  });
  c.run_to_completion();
  EXPECT_EQ(fa, 1);
  EXPECT_EQ(fb, 1);
}

TEST(OpenNesting, RejectedBelowRootAndUnderCheckpointing) {
  {
    // Inside a (real) closed-nested scope: rejected.
    ClusterConfig cc = on_cfg();
    cc.runtime.mode = NestingMode::kClosed;
    Cluster c2(cc);
    ObjectId obj2 = c2.seed_new_object(enc_i64(0));
    bool threw2 = false;
    c2.spawn_client(0, [&, obj2](Txn& t) -> sim::Task<void> {
      co_await t.nested([&, obj2](Txn& ct) -> sim::Task<void> {
        OpenOp op;
        op.locks = {1};
        op.body = [obj2](Txn& ot) -> sim::Task<void> {
          (void)co_await ot.read(obj2);
        };
        try {
          co_await ct.open_nested(std::move(op));
        } catch (const InvariantError&) {
          threw2 = true;
        }
      });
    });
    c2.run_to_completion();
    EXPECT_TRUE(threw2);
  }
  {
    ClusterConfig cfg = on_cfg();
    cfg.runtime.mode = NestingMode::kCheckpoint;
    Cluster c(cfg);
    ObjectId obj = c.seed_new_object(enc_i64(0));
    bool threw = false;
    c.spawn_client(0, [&, obj](Txn& t) -> sim::Task<void> {
      OpenOp op;
      op.locks = {1};
      op.body = [obj](Txn& ot) -> sim::Task<void> {
        (void)co_await ot.read(obj);
      };
      try {
        co_await t.open_nested(std::move(op));
      } catch (const InvariantError&) {
        threw = true;
      }
      co_return;
    });
    c.run_to_completion();
    EXPECT_TRUE(threw);
  }
}

TEST(OpenNesting, HashmapOpenWorkloadPreservesInvariants) {
  Cluster c(on_cfg());
  apps::HashmapApp app;
  apps::WorkloadParams params;
  params.num_objects = 48;
  params.read_ratio = 0.2;
  params.nested_calls = 3;
  Rng setup(5);
  app.setup(c, params, setup);

  for (net::NodeId n = 0; n < 8; ++n) {
    c.spawn_loop_client(n, [&app, params](Rng& rng) {
      return app.make_txn_open(params, rng);
    });
  }
  c.run_for(sim::sec(30));
  c.run_to_completion();
  EXPECT_GT(c.metrics().open_commits, 50u);

  bool ok = false;
  c.spawn_client(0, app.make_checker(&ok));
  c.run_to_completion();
  EXPECT_TRUE(ok) << "hashmap corrupted under open nesting";

  std::size_t held = 0;
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    held += c.lock_manager(n).held_count();
  }
  EXPECT_EQ(held, 0u) << "leaked abstract locks";
}

}  // namespace
}  // namespace qrdtm::core
