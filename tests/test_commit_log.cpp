// CommitLog unit tests: record round-trips, torn-tail truncation, replay
// idempotence, the Greengage carry regression at the log level, and the
// cluster-level equivalence of delta recovery (durable log + version-bounded
// pull) with the legacy full pull.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "store/commit_log.h"
#include "store/replica_store.h"

namespace qrdtm::store {
namespace {

Bytes bytes_of(std::initializer_list<std::uint8_t> v) { return Bytes(v); }

TEST(CommitLog, AppendReplayRoundTrip) {
  CommitLog log;
  log.append_apply(1, 1, bytes_of({10}), /*epoch=*/0);
  log.append_apply(2, 1, bytes_of({20}), 0);

  // Committed 2PC: prepare then confirm(commit) -> base+steps installed.
  log.append_prepare(77, {LoggedWrite{1, 1, 1, bytes_of({11})}}, 0);
  log.append_confirm(77, /*commit=*/true, 0);

  // Aborted 2PC: prepare then confirm(abort) -> nothing installed.
  log.append_prepare(88, {LoggedWrite{2, 1, 1, bytes_of({99})}}, 0);
  log.append_confirm(88, /*commit=*/false, 0);

  EXPECT_EQ(log.tail_records(), 6u);
  EXPECT_EQ(log.high_version(), 2u);
  EXPECT_EQ(log.in_flight(), 0u);

  ReplicaStore store;
  const std::size_t applied = log.replay_into(store);
  EXPECT_EQ(applied, 3u);  // two seeds + one committed write
  ASSERT_NE(store.find(1), nullptr);
  EXPECT_EQ(store.find(1)->version, 2u);
  EXPECT_EQ(store.find(1)->data, bytes_of({11}));
  ASSERT_NE(store.find(2), nullptr);
  EXPECT_EQ(store.find(2)->version, 1u);
  EXPECT_EQ(store.find(2)->data, bytes_of({20}));
}

TEST(CommitLog, BatchStepsReplayAtBasePlusSteps) {
  CommitLog log;
  log.append_apply(5, 3, bytes_of({1}), 0);
  // A QR-Q batch entry commits at base + queue depth, not base + 1.
  log.append_prepare(7, {LoggedWrite{5, 3, 4, bytes_of({2})}}, 0);
  log.append_confirm(7, true, 0);

  ReplicaStore store;
  log.replay_into(store);
  EXPECT_EQ(store.version_of(5), 7u);
}

TEST(CommitLog, TornTailDropsOnlyThePartialLastRecord) {
  CommitLog log;
  log.append_apply(1, 1, bytes_of({10}), 0);
  log.append_apply(2, 1, bytes_of({20}), 0);
  log.append_apply(3, 1, bytes_of({30}), 0);

  // A crash mid-flush tears the last record; the length prefix makes the
  // damage detectable and replay must keep everything before it.
  log.truncate_tail_for_test(3);

  ReplicaStore store;
  const std::size_t applied = log.replay_into(store);
  EXPECT_EQ(applied, 2u);
  EXPECT_EQ(store.version_of(1), 1u);
  EXPECT_EQ(store.version_of(2), 1u);
  EXPECT_EQ(store.version_of(3), 0u) << "torn record must not be misparsed";
}

TEST(CommitLog, ReplayIsIdempotent) {
  CommitLog log;
  log.append_apply(1, 1, bytes_of({10}), 0);
  log.append_prepare(5, {LoggedWrite{1, 1, 1, bytes_of({11})}}, 0);
  log.append_confirm(5, true, 0);

  ReplicaStore store;
  log.replay_into(store);
  // Replay goes through ReplicaStore::apply (strictly-newer), so a second
  // pass over the same bytes changes nothing.
  log.replay_into(store);
  EXPECT_EQ(store.num_objects(), 1u);
  EXPECT_EQ(store.version_of(1), 2u);
  EXPECT_EQ(store.find(1)->data, bytes_of({11}));
}

TEST(CommitLog, CutCarriesInFlightPreparesAcrossTheBoundary) {
  // The Greengage checkpoint_dtx_info regression, at the log level: a
  // transaction prepared before the cut and confirmed after it survives
  // replay only because the cut carried the prepare (the confirm record
  // deliberately has no writeset).
  CommitLog log;
  ReplicaStore live;
  live.seed(1, bytes_of({10}), 1);
  log.append_apply(1, 1, bytes_of({10}), 0);
  log.append_prepare(9, {LoggedWrite{1, 1, 1, bytes_of({11})}}, 0);
  EXPECT_EQ(log.in_flight(), 1u);

  log.cut(live, /*epoch=*/0, /*carry_in_flight=*/true);
  EXPECT_EQ(log.tail_records(), 0u);
  log.append_confirm(9, true, 0);

  ReplicaStore store;
  log.replay_into(store);
  EXPECT_EQ(store.version_of(1), 2u);
  EXPECT_EQ(store.find(1)->data, bytes_of({11}));
}

TEST(CommitLog, SkippedCarryLosesThePostCutConfirm) {
  CommitLog log;
  ReplicaStore live;
  live.seed(1, bytes_of({10}), 1);
  log.append_prepare(9, {LoggedWrite{1, 1, 1, bytes_of({11})}}, 0);

  log.cut(live, 0, /*carry_in_flight=*/false);  // the Greengage bug
  log.append_confirm(9, true, 0);

  ReplicaStore store;
  log.replay_into(store);
  EXPECT_EQ(store.version_of(1), 1u)
      << "without the carry the confirm resolves against nothing";
}

TEST(CommitLog, CrossEpochConfirmIsIgnored) {
  // A prepare from incarnation e can only be confirmed in incarnation e:
  // the network drops cross-epoch traffic, so a mismatched pair in the log
  // is a stale record, never a commit.
  CommitLog log;
  log.append_apply(1, 1, bytes_of({10}), 0);
  log.append_prepare(9, {LoggedWrite{1, 1, 1, bytes_of({11})}}, /*epoch=*/1);
  log.append_confirm(9, true, /*epoch=*/2);

  ReplicaStore store;
  log.replay_into(store);
  EXPECT_EQ(store.version_of(1), 1u);
}

TEST(CommitLog, InDoubtPrepareIsDroppedAtReplay) {
  CommitLog log;
  log.append_apply(1, 1, bytes_of({10}), 0);
  log.append_prepare(9, {LoggedWrite{1, 1, 1, bytes_of({11})}}, 0);

  ReplicaStore store;
  log.replay_into(store);
  EXPECT_EQ(store.version_of(1), 1u)
      << "a prepare with no confirm is in-doubt: the delta pull decides";
  EXPECT_FALSE(store.protected_against(1, 0))
      << "replay must not resurrect protections";
}

TEST(CommitLog, CutBoundsTheDurableFootprint) {
  CommitLog log;
  ReplicaStore live;
  for (ObjectId id = 1; id <= 8; ++id) {
    live.seed(id, bytes_of({1}), 1);
    log.append_apply(id, 1, bytes_of({1}), 0);
  }
  const std::size_t before = log.size_bytes();
  log.cut(live, 0);
  // The image replaces the tail; appending the same data again only grows
  // the tail, it does not duplicate the image.
  EXPECT_EQ(log.cuts(), 1u);
  EXPECT_EQ(log.tail_records(), 0u);
  EXPECT_GT(log.size_bytes(), 0u);
  EXPECT_LE(log.size_bytes(), before + 64);
}

}  // namespace
}  // namespace qrdtm::store

namespace qrdtm::core {
namespace {

TxnBody bump_body(ObjectId id) {
  return [id](Txn& t) -> sim::Task<void> {
    Bytes b = co_await t.read_for_write(id);
    b[0] += 1;
    t.write(id, b);
  };
}

sim::Task<void> run_bounded(Cluster* c, net::NodeId node, TxnBody body,
                            bool* committed) {
  *committed = co_await c->runtime(node).run_transaction_bounded(
      std::move(body), 50);
}

struct RecoveredState {
  std::map<ObjectId, std::pair<Version, Bytes>> objects;
  Metrics metrics;
};

// One seeded workload, parameterized only by whether node 7 keeps its disk:
// seed a couple dozen objects, commit some writes, kill node 7, commit more
// writes it misses, recover it.  With `lose_log` the recovery skips the log
// replay (fp::kRecoverySkipReplay), so node 7 restarts from an empty store
// and its catch-up is a full-store pull.  Returns node 7's store plus the
// run's metrics.
RecoveredState run_recovery_workload(bool lose_log) {
  ClusterConfig cfg;
  cfg.quorum = QuorumKind::kFlatFailureAware;
  cfg.seed = 42;
  Cluster c(cfg);

  std::vector<ObjectId> objs;
  for (int i = 0; i < 24; ++i) objs.push_back(c.seed_new_object(Bytes{1}));

  // Writes node 7 sees (and, with its log intact, replays after the
  // crash).
  for (int i = 0; i < 6; ++i) {
    bool committed = false;
    c.simulator().spawn(run_bounded(&c, 0, bump_body(objs[i]), &committed));
    c.run_to_completion();
    EXPECT_TRUE(committed);
  }

  c.kill_node(7);

  // Writes node 7 misses: exactly these are the recovery delta.
  for (int i = 0; i < 3; ++i) {
    bool committed = false;
    c.simulator().spawn(run_bounded(&c, 1, bump_body(objs[i]), &committed));
    c.run_to_completion();
    EXPECT_TRUE(committed);
  }

  if (lose_log) {
    c.fault_points().arm(fp::kRecoverySkipReplay, FaultAction::kSkip, 7);
  }
  c.recover_node(7);
  c.run_to_completion();
  EXPECT_FALSE(c.server(7).syncing());
  EXPECT_EQ(c.metrics().node_recoveries, 1u);

  RecoveredState out;
  out.metrics = c.metrics();
  for (ObjectId id : objs) {
    const store::ReplicaEntry* e = c.server(7).store().find(id);
    if (e == nullptr) {  // ASSERT_* needs a void function; fail by hand
      ADD_FAILURE() << "object " << id << " missing after recovery";
      continue;
    }
    out.objects[id] = {e->version, e->data};
  }
  return out;
}

// The delta recovery must land node 7 in a store byte-identical to what the
// full pull of a node that lost its log produces, while transferring far
// fewer objects over the wire.
TEST(CommitLogCluster, DeltaRecoveryMatchesFullPull) {
  const RecoveredState delta = run_recovery_workload(/*lose_log=*/false);
  const RecoveredState full = run_recovery_workload(/*lose_log=*/true);

  // Same recovered bytes: version AND data for every object.
  ASSERT_EQ(delta.objects.size(), full.objects.size());
  for (const auto& [id, vf] : full.objects) {
    const auto it = delta.objects.find(id);
    ASSERT_NE(it, delta.objects.end());
    EXPECT_EQ(it->second.first, vf.first) << "version mismatch on " << id;
    EXPECT_EQ(it->second.second, vf.second) << "data mismatch on " << id;
  }

  EXPECT_GT(delta.metrics.recovery_delta_objects, 0u)
      << "node 7 missed three commits; the delta cannot be empty";

  // The whole point: the version-bounded pull ships a small fraction of
  // the store (3 changed objects out of 24 seeded, per answering peer).
  EXPECT_LT(delta.metrics.recovery_delta_objects * 4,
            full.metrics.recovery_delta_objects);

  // Replay did real work before the pull (and none on the lost disk), and
  // the post-sync cut persisted the pulled delta.
  EXPECT_GT(delta.metrics.log_replay_applies, 0u);
  EXPECT_GE(delta.metrics.checkpoint_cuts, 1u);
  EXPECT_EQ(full.metrics.log_replay_applies, 0u);
}

// An equal-version object must not ship at all: recover a node that missed
// nothing and assert the delta is empty (a full pull would re-send every
// object here).
TEST(CommitLogCluster, NoMissedCommitsMeansEmptyDelta) {
  ClusterConfig cfg;
  cfg.quorum = QuorumKind::kFlatFailureAware;
  cfg.seed = 43;
  Cluster c(cfg);
  for (int i = 0; i < 16; ++i) c.seed_new_object(Bytes{1});

  c.kill_node(7);
  c.recover_node(7);
  c.run_to_completion();
  EXPECT_FALSE(c.server(7).syncing());
  EXPECT_EQ(c.metrics().recovery_delta_objects, 0u)
      << "replay already restored every seed; peers must ship nothing";
  EXPECT_GT(c.metrics().log_replay_applies, 0u);
}

// Regression: nothing ever cut a checkpoint automatically, so a replica's
// durable tail grew for as long as the workload ran -- footprint
// O(commits), not O(store).  runtime.log_max_tail_bytes (on by default)
// forces a cut on the first append past the bound.
TEST(CommitLogCluster, AutoCutBoundsTailGrowth) {
  struct Footprint {
    std::size_t max_tail = 0;
    std::uint64_t commits = 0;
    std::uint64_t autocuts = 0;
  };
  auto run = [](std::size_t bound) {
    ClusterConfig cfg;
    cfg.num_nodes = 7;
    cfg.quorum = QuorumKind::kMajority;
    cfg.seed = 51;
    cfg.runtime.log_max_tail_bytes = bound;
    Cluster c(cfg);
    std::vector<ObjectId> objs;
    for (int i = 0; i < 4; ++i) {
      objs.push_back(c.seed_new_object(Bytes(32, std::uint8_t{1})));
    }
    for (net::NodeId n : {net::NodeId{0}, net::NodeId{1}, net::NodeId{2}}) {
      c.spawn_loop_client(n, [&objs](Rng& rng) {
        return bump_body(objs[rng.below(objs.size())]);
      });
    }
    c.run_for(sim::sec(5));
    c.run_to_completion();
    Footprint f;
    f.commits = c.metrics().commits;
    f.autocuts = c.metrics().log_autocuts;
    for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
      f.max_tail = std::max(
          f.max_tail,
          c.server(static_cast<net::NodeId>(n)).commit_log().tail_bytes());
    }
    return f;
  };

  constexpr std::size_t kBound = 4096;
  const Footprint bounded = run(kBound);
  ASSERT_GT(bounded.commits, 50u);
  EXPECT_GT(bounded.autocuts, 0u);
  // The cut fires on the append that crosses the bound, so a quiescent tail
  // sits at most one record past it (plus carried in-flight prepares).
  EXPECT_LE(bounded.max_tail, kBound + 512);

  // Control: the pre-fix behaviour (bound disabled) leaves the same
  // workload's tail far past the bound and never cuts.
  const Footprint unbounded = run(0);
  EXPECT_EQ(unbounded.autocuts, 0u);
  EXPECT_GT(unbounded.max_tail, kBound);
  EXPECT_GT(unbounded.max_tail, bounded.max_tail);
}

}  // namespace
}  // namespace qrdtm::core
