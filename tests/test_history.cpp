// HistoryRecorder + check_history: hand-built histories exercising every
// violation class, the two strictness levels, and recorder integration
// against live clusters in all three nesting modes.
#include <gtest/gtest.h>

#include <set>

#include "core/cluster.h"
#include "core/history.h"

using namespace qrdtm;
using core::CheckLevel;
using core::CheckResult;
using core::CommittedTxn;
using core::HistoryRead;
using core::HistoryRecorder;
using core::HistoryWrite;

namespace {

core::Bytes bytes_of(std::uint8_t b) { return core::Bytes{b}; }

CommittedTxn txn(core::TxnId id, std::vector<HistoryRead> reads,
                 std::vector<HistoryWrite> writes, core::Version snapshot = 0) {
  CommittedTxn t;
  t.txn = id;
  t.node = 0;
  t.commit_tick = static_cast<sim::Tick>(id);
  t.snapshot = snapshot;
  t.reads = std::move(reads);
  t.writes = std::move(writes);
  return t;
}

TEST(HistoryChecker, SerialHistoryPassesAndYieldsFinalState) {
  HistoryRecorder h;
  h.record_seed(1, 1, bytes_of(10));
  h.record_commit(txn(1, {{1, 1}}, {{1, 1, 2, bytes_of(20)}}));
  h.record_commit(txn(2, {{1, 2}}, {}));
  const CheckResult r = core::check_history(h, CheckLevel::kSerializable);
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_EQ(r.committed, 2u);
  ASSERT_EQ(r.final_state.count(1), 1u);
  EXPECT_EQ(r.final_state.at(1).version, 2u);
  EXPECT_EQ(r.final_state.at(1).data, bytes_of(20));
}

TEST(HistoryChecker, LostUpdateIsAViolation) {
  HistoryRecorder h;
  h.record_seed(1, 1, bytes_of(10));
  h.record_commit(txn(1, {}, {{1, 1, 2, bytes_of(20)}}));
  // Writes over base 1 again: never observed (or validated against) v2.
  h.record_commit(txn(2, {}, {{1, 1, 3, bytes_of(30)}}));
  const CheckResult r = core::check_history(h, CheckLevel::kSerializable);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.report.find("lost update"), std::string::npos) << r.report;
}

TEST(HistoryChecker, DuplicateInstallIsAViolation) {
  HistoryRecorder h;
  h.record_seed(1, 1, bytes_of(10));
  h.record_commit(txn(1, {}, {{1, 1, 2, bytes_of(20)}}));
  h.record_commit(txn(2, {}, {{1, 1, 2, bytes_of(30)}}));
  const CheckResult r = core::check_history(h, CheckLevel::kSerializable);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.report.find("duplicate install"), std::string::npos) << r.report;
  // Lost updates and duplicate installs are chain defects: the snapshot
  // level must reject them too.
  EXPECT_FALSE(core::check_history(h, CheckLevel::kSnapshotReads).ok);
}

TEST(HistoryChecker, PhantomReadIsAViolation) {
  HistoryRecorder h;
  h.record_seed(1, 1, bytes_of(10));
  h.record_commit(txn(1, {{1, 5}}, {}));
  const CheckResult r = core::check_history(h, CheckLevel::kSerializable);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.report.find("phantom read"), std::string::npos) << r.report;
}

TEST(HistoryChecker, MixedSnapshotIsACycle) {
  HistoryRecorder h;
  h.record_seed(1, 1, bytes_of(10));
  h.record_seed(2, 1, bytes_of(10));
  // W installs v2 of both objects; R saw object 1 after W but object 2
  // before W -- an opacity violation (no serial order places R).
  h.record_commit(txn(1, {}, {{1, 1, 2, bytes_of(20)}, {2, 1, 2, bytes_of(20)}}));
  h.record_commit(txn(2, {{1, 2}, {2, 1}}, {}));
  const CheckResult r = core::check_history(h, CheckLevel::kSerializable);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.report.find("cycle"), std::string::npos) << r.report;
}

TEST(HistoryChecker, WriteSkewLegalAtSnapshotLevelOnly) {
  HistoryRecorder h;
  h.record_seed(1, 1, bytes_of(10));
  h.record_seed(2, 1, bytes_of(10));
  // Classic write skew: each reads both objects at v1, each writes one.
  h.record_commit(txn(1, {{2, 1}}, {{1, 1, 2, bytes_of(20)}}));
  h.record_commit(txn(2, {{1, 1}}, {{2, 1, 2, bytes_of(30)}}));
  EXPECT_TRUE(core::check_history(h, CheckLevel::kSnapshotReads).ok);
  const CheckResult strict = core::check_history(h, CheckLevel::kSerializable);
  EXPECT_FALSE(strict.ok);
  EXPECT_NE(strict.report.find("cycle"), std::string::npos) << strict.report;
}

TEST(HistoryChecker, ReadAboveSnapshotIsAViolationAtSnapshotLevel) {
  HistoryRecorder h;
  h.record_seed(1, 1, bytes_of(10));
  h.record_commit(txn(1, {}, {{1, 1, 2, bytes_of(20)}}));
  h.record_commit(txn(2, {{1, 2}}, {}, /*snapshot=*/1));
  const CheckResult r = core::check_history(h, CheckLevel::kSnapshotReads);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.report.find("above snapshot"), std::string::npos) << r.report;
}

TEST(HistoryChecker, CreatedObjectsNeedNoSeed) {
  HistoryRecorder h;
  h.record_commit(txn(1, {}, {{7, 0, 1, bytes_of(20)}}));
  h.record_commit(txn(2, {{7, 1}}, {}));
  const CheckResult r = core::check_history(h, CheckLevel::kSerializable);
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_EQ(r.final_state.at(7).version, 1u);
}

TEST(HistoryRecorder, DumpContainsSeedsCommitsAndEvents) {
  HistoryRecorder h;
  h.record_seed(1, 1, bytes_of(10));
  h.record_commit(txn(3, {{1, 1}}, {{1, 1, 2, bytes_of(20)}}));
  h.record_abort(sim::msec(5), 2, 0x99, "vote failed");
  h.record_rollback(sim::msec(6), 1, 0x77, 2);
  h.record_fault(sim::msec(7), "kill node 4 (silent)");
  const std::string dump = h.dump();
  EXPECT_NE(dump.find("seed"), std::string::npos);
  EXPECT_NE(dump.find("commit"), std::string::npos);
  EXPECT_NE(dump.find("vote failed"), std::string::npos);
  EXPECT_NE(dump.find("partial rollback to epoch 2"), std::string::npos);
  EXPECT_NE(dump.find("kill node 4"), std::string::npos);
}

// ------------------------------------------------------- live recording ---

core::TxnBody transfer_body(core::ObjectId from, core::ObjectId to,
                            bool nested) {
  return [from, to, nested](core::Txn& t) -> sim::Task<void> {
    auto move_one = [from, to](core::Txn& scope) -> sim::Task<void> {
      const core::ValueSpan a = co_await scope.read_for_write(from);
      const core::ValueSpan b = co_await scope.read_for_write(to);
      core::Bytes a2(a.begin(), a.end()), b2(b.begin(), b.end());
      a2[0] -= 1;
      b2[0] += 1;
      scope.write(from, a2);
      scope.write(to, b2);
    };
    if (nested) {
      co_await t.nested(move_one);
    } else {
      co_await move_one(t);
    }
  };
}

class HistoryRecordingTest : public ::testing::TestWithParam<core::NestingMode> {};

TEST_P(HistoryRecordingTest, RecordedRunIsSerializableAndMatchesReplicas) {
  core::ClusterConfig cfg;
  cfg.seed = 11;
  cfg.runtime.mode = GetParam();
  core::Cluster cluster(cfg);
  HistoryRecorder rec;
  cluster.set_history_recorder(&rec);

  const core::ObjectId a = cluster.seed_new_object(bytes_of(100));
  const core::ObjectId b = cluster.seed_new_object(bytes_of(100));
  const core::ObjectId c = cluster.seed_new_object(bytes_of(100));
  const bool nested = GetParam() != core::NestingMode::kFlat;
  cluster.spawn_client(0, transfer_body(a, b, nested));
  cluster.spawn_client(1, transfer_body(b, c, nested));
  cluster.spawn_client(2, transfer_body(c, a, nested));
  cluster.run_to_completion();

  EXPECT_EQ(cluster.metrics().commits, 3u);
  const CheckResult r = core::check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_EQ(r.committed, 3u);
  // Conservation invariant straight from the certified final state.
  int total = 0;
  for (const auto& [id, fin] : r.final_state) total += fin.data[0];
  EXPECT_EQ(total, 300);
  // Every object's newest live replica matches the certified final state.
  for (const auto& [id, fin] : r.final_state) {
    core::Version best = 0;
    for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      best = std::max(best, cluster.server(n).store().version_of(id));
    }
    EXPECT_EQ(best, fin.version) << "object " << id;
  }
  // Conflicting transfers abort and retry: the abort/rollback event stream
  // must reflect what the metrics counted.
  const std::size_t abort_like =
      cluster.metrics().root_aborts + cluster.metrics().partial_rollbacks +
      cluster.metrics().ct_aborts;
  if (abort_like > 0) {
    EXPECT_FALSE(rec.events().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, HistoryRecordingTest,
                         ::testing::Values(core::NestingMode::kFlat,
                                           core::NestingMode::kClosed,
                                           core::NestingMode::kCheckpoint));

}  // namespace
