// The client's transaction tree: the set semantics the per-scope maps used
// to make implicit, now carried by the root's flat record log
// (core/txn_log.h), plus allocation counts of a warm tree.
//
// Conflicts are injected by applying a newer version of an object to every
// replica from inside a body, between two of its operations (an external
// commit whose write quorum is the whole node set), so the next remote
// read's Rqv validation fails deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "alloc_counter.h"
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

ClusterConfig cfg_for(NestingMode mode) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.runtime.mode = mode;
  cfg.runtime.chk_threshold = 1;
  cfg.runtime.chk_create_cost = 0;
  cfg.runtime.chk_create_cost_per_obj = 0;
  cfg.runtime.chk_restore_cost = 0;
  cfg.seed = 5;
  return cfg;
}

/// An i64 value encoded inline, so a body writes it without allocating.
InlineWriter<8> i64_inline(std::int64_t v) {
  InlineWriter<8> w;
  w.i64(v);
  return w;
}

/// Applies `obj` at one version past the newest replica's, keeping its
/// value, on every replica: the next Rqv validation of an older copy fails.
/// The value is staged on the stack, so a bump allocates nothing.
void bump_everywhere(Cluster& c, ObjectId obj) {
  const store::ReplicaEntry* newest = nullptr;
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    const store::ReplicaEntry* e = c.server(n).store().find(obj);
    if (e != nullptr && (newest == nullptr || e->version > newest->version)) {
      newest = e;
    }
  }
  ASSERT_NE(newest, nullptr);
  std::array<std::uint8_t, 64> value{};
  ASSERT_LE(newest->data.size(), value.size());
  std::copy(newest->data.begin(), newest->data.end(), value.begin());
  const std::span<const std::uint8_t> staged(value.data(),
                                             newest->data.size());
  const Version next = newest->version + 1;
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    c.server(n).store().apply(obj, next, staged);
  }
}

Bytes copy_of(std::span<const std::uint8_t> v) {
  return Bytes(v.begin(), v.end());
}

std::int64_t committed_value(Cluster& c, ObjectId id) {
  std::int64_t v = 0;
  c.spawn_client(2, [&v, id](Txn& t) -> sim::Task<void> {
    v = dec_i64(co_await t.read(id));
  });
  c.run_to_completion();
  return v;
}

// --- set semantics -----------------------------------------------------------

// A grandchild CT upgrades the root's read of x, merges into its parent,
// and the parent then aborts: the root's copy of x -- value and read-only
// membership -- is what the parent's retry and the commit see.
TEST(TxnTree, ParentAbortBringsBackGrandparentsReadOnlyCopy) {
  Cluster c(cfg_for(NestingMode::kClosed));
  const ObjectId x = c.seed_new_object(enc_i64(7));
  const ObjectId y = c.seed_new_object(enc_i64(1));
  const ObjectId z = c.seed_new_object(enc_i64(2));

  int parent_runs = 0;
  std::int64_t x_in_retry = 0;
  std::vector<CommitReadEntry> reads;
  std::vector<store::WriteView> writes;
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    EXPECT_EQ(dec_i64(co_await t.read(x)), 7);
    co_await t.nested([&](Txn& parent) -> sim::Task<void> {
      if (++parent_runs == 1) {
        (void)co_await parent.read(y);  // owned by the parent
        co_await parent.nested([&](Txn& ct) -> sim::Task<void> {
          (void)co_await ct.read_for_write(x);
          ct.write(x, enc_i64(99));
        });
        EXPECT_EQ(dec_i64(co_await parent.read(x)), 99);
        bump_everywhere(c, y);
        (void)co_await parent.read(z);  // Rqv fails on y: the parent retries
        ADD_FAILURE() << "the aborted parent resumed";
      }
      x_in_retry = dec_i64(co_await parent.read(x));
    });
    t.commit_sets(&reads, &writes);
  });
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().ct_aborts, 1u);
  EXPECT_EQ(parent_runs, 2);
  EXPECT_EQ(x_in_retry, 7) << "the grandparent's value came back";
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].id, x);
  EXPECT_TRUE(writes.empty()) << "x is read-only again";
  EXPECT_EQ(committed_value(c, x), 7);
}

// The root and a CT each write x: the CT's (innermost) value is the one the
// write-set carries, once.
TEST(TxnTree, WritesFromTwoScopesCommitTheInnermostValue) {
  Cluster c(cfg_for(NestingMode::kClosed));
  const ObjectId x = c.seed_new_object(enc_i64(1));

  std::vector<CommitReadEntry> reads;
  std::vector<store::WriteView> writes;
  std::int64_t in_write_set = 0;
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    (void)co_await t.read_for_write(x);
    t.write(x, enc_i64(10));
    co_await t.nested([&](Txn& ct) -> sim::Task<void> {
      EXPECT_EQ(dec_i64(co_await ct.read_for_write(x)), 10);
      ct.write(x, enc_i64(20));
    });
    EXPECT_EQ(dec_i64(co_await t.read(x)), 20);
    t.commit_sets(&reads, &writes);
    if (writes.size() == 1) in_write_set = dec_i64(writes[0].data);
  });
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, 1u);
  EXPECT_TRUE(reads.empty());
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].id, x);
  EXPECT_EQ(in_write_set, 20);
  EXPECT_EQ(committed_value(c, x), 20);
}

// read_for_write -> write -> checkpoint -> rollback: the replay returns
// every operation's first-execution bytes, though the records were
// overwritten since, and the write after the target checkpoint is undone.
TEST(TxnTree, CheckpointReplayReturnsTheFirstExecutionsBytes) {
  Cluster c(cfg_for(NestingMode::kCheckpoint));
  const ObjectId x = c.seed_new_object(enc_i64(1));
  const ObjectId y = c.seed_new_object(enc_i64(2));
  const ObjectId z = c.seed_new_object(enc_i64(3));
  const ObjectId w = c.seed_new_object(enc_i64(4));

  std::vector<std::vector<Bytes>> runs;  // op results, per execution
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    runs.emplace_back();
    std::vector<Bytes>& seen = runs.back();
    seen.push_back(copy_of(co_await t.read_for_write(x)));  // op0, chk1
    t.write(x, enc_i64(100));
    seen.push_back(copy_of(co_await t.read(y)));  // op1, chk2
    seen.push_back(copy_of(co_await t.read_for_write(x)));  // op2: local
    t.write(x, enc_i64(200));
    seen.push_back(copy_of(co_await t.read(z)));  // op3, chk3
    if (runs.size() == 1) bump_everywhere(c, z);
    // z was fetched in epoch 2: Rqv rolls back to checkpoint 2 and the
    // replay serves op0 and op1 from the op log.
    seen.push_back(copy_of(co_await t.read(w)));
  });
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().partial_rollbacks, 1u);
  ASSERT_EQ(runs.size(), 2u);
  ASSERT_EQ(runs[0].size(), 4u) << "the first execution stopped at w";
  ASSERT_EQ(runs[1].size(), 5u);
  EXPECT_EQ(runs[1][0], enc_i64(1)) << "op0 replays its own result, not x's "
                                       "current value";
  EXPECT_EQ(runs[1][1], enc_i64(2));
  EXPECT_EQ(runs[1][2], enc_i64(100)) << "x restored to checkpoint 2";
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(runs[1][i], runs[0][i]);
  EXPECT_EQ(committed_value(c, x), 200);
}

// A lent span stays valid across later reads, a CT merge and the growth of
// the record log underneath it.
TEST(TxnTree, LentSpanSurvivesReadsMergeAndLogGrowth) {
  Cluster c(cfg_for(NestingMode::kClosed));
  const ObjectId x = c.seed_new_object(Bytes(48, 0x3c));
  std::vector<ObjectId> many;
  for (int i = 0; i < 40; ++i) many.push_back(c.seed_new_object(enc_i64(i)));

  bool intact = false;
  bool ct_span_intact = false;
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    const std::span<const std::uint8_t> held = co_await t.read(x);
    std::span<const std::uint8_t> from_ct;
    co_await t.nested([&](Txn& ct) -> sim::Task<void> {
      for (std::size_t i = 0; i < many.size() / 2; ++i) {
        (void)co_await ct.read(many[i]);
      }
      from_ct = co_await ct.read(many[0]);
    });
    for (std::size_t i = many.size() / 2; i < many.size(); ++i) {
      (void)co_await t.read(many[i]);
    }
    intact = copy_of(held) == Bytes(48, 0x3c);
    ct_span_intact = dec_i64(from_ct) == 0;
  });
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, 1u);
  EXPECT_TRUE(intact);
  EXPECT_TRUE(ct_span_intact);
}

// A scripted tree (upgrades across scopes, a grandchild's create, a CT
// abort and retry) commits exactly the read-set and write-set the per-scope
// maps gave: every object read and never written by the same scope chain
// in the read-set, every object written in the write-set with its base
// version and innermost value.
TEST(TxnTree, CommitSetsMatchTheScopeMaps) {
  Cluster c(cfg_for(NestingMode::kClosed));
  const ObjectId a = c.seed_new_object(enc_i64(1));
  const ObjectId b = c.seed_new_object(enc_i64(2));
  const ObjectId cc = c.seed_new_object(enc_i64(3));
  const ObjectId d = c.seed_new_object(enc_i64(4));
  const ObjectId f = c.seed_new_object(enc_i64(6));
  const ObjectId g = c.seed_new_object(enc_i64(7));
  const ObjectId h = c.seed_new_object(enc_i64(8));

  ObjectId e = store::kNullObject;
  int ct2_runs = 0;
  std::vector<CommitReadEntry> reads;
  std::vector<store::WriteView> writes;
  std::vector<std::int64_t> write_values;
  c.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(a);                   // root reads a
    (void)co_await t.read_for_write(b);         // root writes b
    t.write(b, enc_i64(20));
    co_await t.nested([&](Txn& ct1) -> sim::Task<void> {
      (void)co_await ct1.read(cc);              // CT1 reads c
      (void)co_await ct1.read_for_write(a);     // CT1 upgrades root's a
      ct1.write(a, enc_i64(10));
      co_await ct1.nested([&](Txn& ct11) -> sim::Task<void> {
        (void)co_await ct11.read_for_write(cc);  // upgrades CT1's c
        ct11.write(cc, enc_i64(30));
        (void)co_await ct11.read(d);             // reads d
        e = ct11.create(enc_i64(50));            // creates e
      });
    });
    co_await t.nested([&](Txn& ct2) -> sim::Task<void> {
      (void)co_await ct2.read(f);
      if (++ct2_runs == 1) {
        (void)co_await ct2.read_for_write(h);  // dropped by the abort
        bump_everywhere(c, f);
        (void)co_await ct2.read(g);  // Rqv fails on f: CT2 retries
      }
      (void)co_await ct2.read_for_write(g);
      ct2.write(g, enc_i64(70));
    });
    t.commit_sets(&reads, &writes);
    for (const store::WriteView& w : writes) {
      write_values.push_back(dec_i64(w.data));
    }
  });
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(ct2_runs, 2);
  // Per-scope maps after both merges: root.readset = {a, c, d, f},
  // root.writeset = {a, b, c, e, g}.
  std::vector<ObjectId> read_ids;
  for (const CommitReadEntry& r : reads) read_ids.push_back(r.id);
  EXPECT_EQ(read_ids, (std::vector<ObjectId>{a, cc, d, f}));
  for (const CommitReadEntry& r : reads) {
    EXPECT_EQ(r.version, r.id == f ? 2u : 1u) << r.id;
  }
  std::vector<ObjectId> write_ids;
  for (const store::WriteView& w : writes) write_ids.push_back(w.id);
  ASSERT_NE(e, store::kNullObject);
  EXPECT_EQ(write_ids, (std::vector<ObjectId>{a, b, cc, g, e}))
      << "ids ascending; created ids sort after seeded ones";
  EXPECT_EQ(write_values, (std::vector<std::int64_t>{10, 20, 30, 70, 50}));
  for (const store::WriteView& w : writes) {
    EXPECT_EQ(w.base, w.id == e ? 0u : 1u) << w.id;
    EXPECT_EQ(w.steps, 1u);
  }
  EXPECT_EQ(committed_value(c, a), 10);
  EXPECT_EQ(committed_value(c, e), 50);
}

// --- allocation counts of a warm tree ------------------------------------------

#define QRDTM_REQUIRE_ALLOC_HOOK()                                         \
  if (!qrdtm::testing::alloc_hook_active()) {                              \
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build "    \
                    "intercepts operator new, or replacement not linked in)"; \
  }

/// Per-test state reached from bodies through one pointer, so every body
/// closure fits std::function's inline storage.
struct Rig {
  Cluster* c = nullptr;
  std::vector<ObjectId> objs;
  bool bumped = false;
  bool measuring = false;
  // An allocation window: opened at a body's first operation, closed when
  // the measured work is over.
  bool open = false;
  std::uint64_t start = 0;
  std::uint64_t last = 0;
  std::uint64_t counted = 0;
  std::uint64_t windows = 0;

  void open_window() {
    if (open) return;
    open = true;
    start = qrdtm::testing::alloc_count();
  }
  void mark() { last = qrdtm::testing::alloc_count(); }
  void close_window() {
    if (!open) return;
    open = false;
    counted += last - start;
    ++windows;
  }
};

/// Runs `warm` roots, then `measured` roots each counted from before the
/// root starts to the body's last mark().
sim::Task<void> run_roots(TxnRuntime* rt, Rig* rig, TxnBody body, int warm,
                          int measured) {
  for (int i = 0; i < warm + measured; ++i) {
    rig->bumped = false;
    if (i >= warm) rig->open_window();
    co_await rt->run_transaction(body);
    rig->close_window();
  }
}

// QR-CN: each root reads two objects remotely in CT1 (merged), then CT2
// reads one, sees it invalidated, aborts and retries, and merges; the
// read-only root commits locally.  Warm, a root allocates nothing from its
// construction to its body's last operation.
TEST(AllocRegression, WarmClosedNestedReadsAreAllocationFree) {
  QRDTM_REQUIRE_ALLOC_HOOK();
  ClusterConfig cfg = cfg_for(NestingMode::kClosed);
  Cluster c(cfg);
  Rig rig;
  rig.c = &c;
  for (int i = 0; i < 4; ++i) rig.objs.push_back(c.seed_new_object(enc_i64(i)));

  Rig* r = &rig;
  const TxnBody body = [r](Txn& t) -> sim::Task<void> {
    co_await t.nested([r](Txn& ct1) -> sim::Task<void> {
      (void)co_await ct1.read(r->objs[0]);
      (void)co_await ct1.read(r->objs[1]);
    });
    co_await t.nested([r](Txn& ct2) -> sim::Task<void> {
      (void)co_await ct2.read(r->objs[2]);
      if (!r->bumped) {
        r->bumped = true;
        bump_everywhere(*r->c, r->objs[2]);
      }
      (void)co_await ct2.read(r->objs[3]);
    });
    r->mark();
  };
  constexpr int kWarm = 32;
  constexpr int kMeasured = 128;
  c.simulator().spawn(run_roots(&c.runtime(1), &rig, body, kWarm, kMeasured));
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kWarm + kMeasured));
  ASSERT_EQ(c.metrics().ct_aborts, static_cast<std::uint64_t>(kWarm + kMeasured));
  EXPECT_EQ(c.metrics().local_commits, c.metrics().commits);
  ASSERT_EQ(rig.windows, static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(rig.counted, 0u)
      << "allocations over " << kMeasured << " warm roots";
}

// QR-CHK: read, read_for_write, write, a checkpoint after every fetch, a
// partial rollback and its replay.  Counted from the body's first operation
// to its last; WarmRootTwoPhaseRoundIsAllocationFree counts the 2PC round
// too.
TEST(AllocRegression, WarmCheckpointRollbackIsAllocationFree) {
  QRDTM_REQUIRE_ALLOC_HOOK();
  Cluster c(cfg_for(NestingMode::kCheckpoint));
  Rig rig;
  rig.c = &c;
  for (int i = 0; i < 4; ++i) rig.objs.push_back(c.seed_new_object(enc_i64(i)));

  Rig* r = &rig;
  const TxnBody body = [r](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(r->objs[0]);  // chk 1
    const std::int64_t v = dec_i64(co_await t.read_for_write(r->objs[1]));
    t.write(r->objs[1], i64_inline(v + 1));  // chk 2 came with the fetch
    (void)co_await t.read(r->objs[2]);  // chk 3
    if (!r->bumped) {
      r->bumped = true;
      bump_everywhere(*r->c, r->objs[1]);  // fetched in epoch 1
    }
    (void)co_await t.read(r->objs[3]);  // rolls back to chk 1 once
    r->mark();
  };
  constexpr int kWarm = 32;
  constexpr int kMeasured = 128;
  c.simulator().spawn(run_roots(&c.runtime(1), &rig, body, kWarm, kMeasured));
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kWarm + kMeasured));
  ASSERT_EQ(c.metrics().partial_rollbacks,
            static_cast<std::uint64_t>(kWarm + kMeasured));
  ASSERT_EQ(rig.windows, static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(rig.counted, 0u)
      << "allocations over " << kMeasured << " warm roots";
}

// A closed-nested call whose closure captures more than std::function's
// inline buffer holds: nested() borrows the closure, so a warm CT call
// allocates nothing whatever it captures.
TEST(AllocRegression, WarmCtCallWithLargeCaptureIsAllocationFree) {
  QRDTM_REQUIRE_ALLOC_HOOK();
  Cluster c(cfg_for(NestingMode::kClosed));
  Rig rig;
  rig.c = &c;
  for (int i = 0; i < 4; ++i) rig.objs.push_back(c.seed_new_object(enc_i64(i)));

  Rig* r = &rig;
  const TxnBody body = [r](Txn& t) -> sim::Task<void> {
    const std::array<ObjectId, 4> ids{r->objs[0], r->objs[1], r->objs[2],
                                      r->objs[3]};
    auto ct_body = [r, ids](Txn& ct) -> sim::Task<void> {
      for (ObjectId id : ids) (void)co_await ct.read(id);
      r->mark();
    };
    static_assert(sizeof(ct_body) > 16, "larger than the inline buffer");
    co_await t.nested(ct_body);
    co_await t.nested([r, ids, extra = ids](Txn& ct) -> sim::Task<void> {
      (void)co_await ct.read(ids[0]);
      (void)co_await ct.read(extra[3]);
      r->mark();
    });
  };
  constexpr int kWarm = 32;
  constexpr int kMeasured = 128;
  c.simulator().spawn(run_roots(&c.runtime(1), &rig, body, kWarm, kMeasured));
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kWarm + kMeasured));
  ASSERT_EQ(rig.windows, static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(rig.counted, 0u)
      << "allocations over " << kMeasured << " warm roots";
}

// A writing QR-CHK root, counted from before it starts until it returns:
// its reads, checkpoints and partial rollback, then the whole 2PC round --
// the votes the write quorum logs, the coordinator's decision record, the
// confirms and their outcome records, and the settle.  Every node's log is
// cut just before each root, so the round's records land in the segment
// the cut keeps.
TEST(AllocRegression, WarmRootTwoPhaseRoundIsAllocationFree) {
  QRDTM_REQUIRE_ALLOC_HOOK();
  Cluster c(cfg_for(NestingMode::kCheckpoint));
  Rig rig;
  rig.c = &c;
  for (int i = 0; i < 4; ++i) rig.objs.push_back(c.seed_new_object(enc_i64(i)));

  Rig* r = &rig;
  const TxnBody body = [r](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(r->objs[0]);
    const std::int64_t v = dec_i64(co_await t.read_for_write(r->objs[1]));
    t.write(r->objs[1], i64_inline(v + 1));
    (void)co_await t.read(r->objs[2]);
    if (!r->bumped) {
      r->bumped = true;
      bump_everywhere(*r->c, r->objs[1]);
    }
    (void)co_await t.read(r->objs[3]);
  };
  constexpr int kWarm = 32;
  constexpr int kMeasured = 128;
  auto client = [](Cluster* c, Rig* rig, TxnBody b) -> sim::Task<void> {
    for (int i = 0; i < kWarm + kMeasured; ++i) {
      rig->bumped = false;
      if (i >= kWarm) {
        for (net::NodeId n = 0; n < c->num_nodes(); ++n) c->cut_checkpoint(n);
        rig->open_window();
      }
      co_await c->runtime(1).run_transaction(b);
      rig->mark();
      rig->close_window();
    }
  };
  c.simulator().spawn(client(&c, &rig, body));
  c.run_to_completion();

  ASSERT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kWarm + kMeasured));
  ASSERT_EQ(c.metrics().partial_rollbacks,
            static_cast<std::uint64_t>(kWarm + kMeasured));
  ASSERT_GE(c.metrics().commit_requests,
            static_cast<std::uint64_t>(kWarm + kMeasured))
      << "every root ran a 2PC round";
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    EXPECT_TRUE(c.server(n).commit_log().open_decisions().empty())
        << "node " << n << ": every decision settled";
  }
  ASSERT_EQ(rig.windows, static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(rig.counted, 0u)
      << "allocations over " << kMeasured << " warm roots";
}

/// Runs `warm` roots on node 1, then `measured` roots each counted from
/// before the root starts until it returns, with every node's log cut just
/// before each counted root (so its 2PC records land in the kept segment).
/// Checks that every root committed through a settled 2PC round.
void count_whole_roots(Cluster& c, Rig& rig, const TxnBody& body, int warm,
                       int measured) {
  auto client = [](Cluster* c, Rig* rig, TxnBody b, int warm,
                   int measured) -> sim::Task<void> {
    for (int i = 0; i < warm + measured; ++i) {
      rig->bumped = false;
      if (i >= warm) {
        for (net::NodeId n = 0; n < c->num_nodes(); ++n) c->cut_checkpoint(n);
        rig->open_window();
      }
      co_await c->runtime(1).run_transaction(b);
      rig->mark();
      rig->close_window();
    }
  };
  c.simulator().spawn(client(&c, &rig, body, warm, measured));
  c.run_to_completion();

  const auto roots = static_cast<std::uint64_t>(warm + measured);
  ASSERT_EQ(c.metrics().commits, roots);
  ASSERT_GE(c.metrics().commit_requests, roots) << "every root ran 2PC";
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    EXPECT_TRUE(c.server(n).commit_log().open_decisions().empty())
        << "node " << n << ": every decision settled";
  }
  ASSERT_EQ(rig.windows, static_cast<std::uint64_t>(measured));
}

// A writing flat root, counted whole: its reads, the 2PC vote the write
// quorum logs, the coordinator's decision (which refers to the quorum's
// shelf run), the confirms, the settle and the latency samples.
TEST(AllocRegression, WarmFlatRootIsAllocationFree) {
  QRDTM_REQUIRE_ALLOC_HOOK();
  Cluster c(cfg_for(NestingMode::kFlat));
  Rig rig;
  rig.c = &c;
  for (int i = 0; i < 4; ++i) rig.objs.push_back(c.seed_new_object(enc_i64(i)));

  Rig* r = &rig;
  const TxnBody body = [r](Txn& t) -> sim::Task<void> {
    (void)co_await t.read(r->objs[0]);
    const std::int64_t v = dec_i64(co_await t.read_for_write(r->objs[1]));
    t.write(r->objs[1], i64_inline(v + 1));
    (void)co_await t.read(r->objs[2]);
    const std::int64_t w = dec_i64(co_await t.read_for_write(r->objs[3]));
    t.write(r->objs[3], i64_inline(w - 1));
  };
  constexpr int kWarm = 32;
  constexpr int kMeasured = 128;
  count_whole_roots(c, rig, body, kWarm, kMeasured);
  EXPECT_EQ(rig.counted, 0u)
      << "allocations over " << kMeasured << " warm roots";
}

// A writing QR-CN root, counted whole: CT1 reads and merges, CT2 reads an
// object that is then invalidated, aborts, retries and writes, and the root
// commits through 2PC.
TEST(AllocRegression, WarmClosedNestedRootIsAllocationFree) {
  QRDTM_REQUIRE_ALLOC_HOOK();
  Cluster c(cfg_for(NestingMode::kClosed));
  Rig rig;
  rig.c = &c;
  for (int i = 0; i < 4; ++i) rig.objs.push_back(c.seed_new_object(enc_i64(i)));

  Rig* r = &rig;
  const TxnBody body = [r](Txn& t) -> sim::Task<void> {
    co_await t.nested([r](Txn& ct1) -> sim::Task<void> {
      (void)co_await ct1.read(r->objs[0]);
      (void)co_await ct1.read(r->objs[1]);
    });
    co_await t.nested([r](Txn& ct2) -> sim::Task<void> {
      const std::int64_t v = dec_i64(co_await ct2.read_for_write(r->objs[2]));
      if (!r->bumped) {
        r->bumped = true;
        bump_everywhere(*r->c, r->objs[2]);
      }
      (void)co_await ct2.read(r->objs[3]);
      ct2.write(r->objs[2], i64_inline(v + 1));
    });
  };
  constexpr int kWarm = 32;
  constexpr int kMeasured = 128;
  count_whole_roots(c, rig, body, kWarm, kMeasured);
  EXPECT_EQ(c.metrics().ct_aborts,
            static_cast<std::uint64_t>(kWarm + kMeasured));
  EXPECT_EQ(rig.counted, 0u)
      << "allocations over " << kMeasured << " warm roots";
}

// QR-Q: four members per batch transfer between two hot accounts and read
// a third; the first member's fetches admit the objects, every later touch
// is a cache hit, and each executed member is absorbed into the cache.
// Counted from the batch's first body to its last, so formation and the
// batch 2PC round are not.
TEST(AllocRegression, WarmQueuedMemberIsAllocationFree) {
  QRDTM_REQUIRE_ALLOC_HOOK();
  Cluster c(cfg_for(NestingMode::kQueued));
  Rig rig;
  rig.c = &c;
  for (int i = 0; i < 3; ++i) {
    rig.objs.push_back(c.seed_new_object(enc_i64(1000)));
  }

  Rig* r = &rig;
  const TxnBody member = [r](Txn& t) -> sim::Task<void> {
    if (r->measuring) r->open_window();
    const std::int64_t from = dec_i64(co_await t.read_for_write(r->objs[0]));
    const std::int64_t to = dec_i64(co_await t.read_for_write(r->objs[1]));
    (void)co_await t.read(r->objs[2]);
    t.write(r->objs[0], i64_inline(from - 1));
    t.write(r->objs[1], i64_inline(to + 1));
    r->mark();
  };
  constexpr int kClients = 4;
  constexpr int kWarm = 32;
  constexpr int kMeasured = 128;
  auto client = [](TxnRuntime* rt, Rig* rig, TxnBody b) -> sim::Task<void> {
    for (int i = 0; i < kWarm + kMeasured; ++i) {
      co_await rt->run_transaction(b);
      rig->close_window();  // the first member back closes the batch
      if (i + 1 == kWarm) rig->measuring = true;
    }
  };
  for (int i = 0; i < kClients; ++i) {
    c.simulator().spawn(client(&c.runtime(1), &rig, member));
  }
  c.run_to_completion();

  const std::uint64_t txns = kClients * (kWarm + kMeasured);
  ASSERT_EQ(c.metrics().commits, txns);
  EXPECT_EQ(c.metrics().batches_committed, txns / kClients)
      << "every batch holds all four members";
  EXPECT_EQ(c.metrics().batch_read_hits, txns / kClients * (kClients - 1) * 3)
      << "each member but the batch's first hits the cache three times";
  ASSERT_GE(rig.windows, static_cast<std::uint64_t>(kMeasured) - 1);
  EXPECT_EQ(rig.counted, 0u)
      << "allocations over " << rig.windows << " warm batches";
}

}  // namespace
}  // namespace qrdtm::core
