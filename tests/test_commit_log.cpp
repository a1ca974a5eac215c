// CommitLog unit tests: record round-trips, torn-tail truncation, replay
// idempotence, prepare and decision runs shared through a RunShelf, the
// Greengage carry regression at the log level, and the cluster-level equivalence of delta recovery (durable log + version-bounded
// pull) with the legacy full pull.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ranges>
#include <map>
#include <memory>
#include <string>
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

// --- tail segments -----------------------------------------------------------

constexpr std::size_t kSeg = CommitLog::kSegmentBytes;
// An apply record: u32 length, u8 type, u32 epoch, u64 id, u64 version and
// a u32-length-prefixed value.
constexpr std::size_t kApplyOverhead = 4 + 1 + 4 + 8 + 8 + 4;

/// Appends an apply record of exactly `record` bytes for `id`.
void append_apply_of(CommitLog& log, ObjectId id, std::size_t record) {
  log.append_apply(id, 1, Bytes(record - kApplyOverhead, std::uint8_t(id)), 0);
}

/// The objects `log` replays, version and data.
std::map<ObjectId, std::pair<Version, Bytes>> replayed(const CommitLog& log) {
  ReplicaStore store;
  log.replay_into(store);
  std::map<ObjectId, std::pair<Version, Bytes>> out;
  for (const auto& [id, e] : store.entries()) out[id] = {e.version, e.data};
  return out;
}

TEST(CommitLogSegments, RecordThatExactlyFillsASegment) {
  CommitLog log;
  append_apply_of(log, 1, 100);
  append_apply_of(log, 2, kSeg - 100);  // ends exactly at the segment's end
  EXPECT_EQ(log.tail_bytes(), kSeg);
  EXPECT_EQ(log.capacity_bytes(), kSeg) << "both records share one segment";
  append_apply_of(log, 3, 64);  // no room left: the next segment
  EXPECT_EQ(log.tail_bytes(), kSeg + 64);
  EXPECT_EQ(log.capacity_bytes(), 2 * kSeg);
  EXPECT_EQ(log.tail_records(), 3u);
  const auto objects = replayed(log);
  ASSERT_EQ(objects.size(), 3u);
  EXPECT_EQ(objects.at(2).second.size(), kSeg - 100 - kApplyOverhead);
  EXPECT_EQ(objects.at(3).second, Bytes(64 - kApplyOverhead, 3));
}

TEST(CommitLogSegments, RecordThatDoesNotFitStartsTheNextSegment) {
  CommitLog log;
  append_apply_of(log, 1, kSeg - 100);
  append_apply_of(log, 2, 101);  // one byte too many for what is left
  // The record moves whole to the next segment; the 100 bytes left behind
  // are spare capacity, not log bytes.
  EXPECT_EQ(log.tail_bytes(), kSeg - 100 + 101);
  EXPECT_EQ(log.size_bytes(), log.tail_bytes());
  EXPECT_EQ(log.capacity_bytes(), 2 * kSeg);
  append_apply_of(log, 3, 100);  // fits behind record 2
  EXPECT_EQ(log.capacity_bytes(), 2 * kSeg);
  const auto objects = replayed(log);
  ASSERT_EQ(objects.size(), 3u);
  EXPECT_EQ(objects.at(2).second, Bytes(101 - kApplyOverhead, 2));
  EXPECT_EQ(objects.at(3).second, Bytes(100 - kApplyOverhead, 3));
}

TEST(CommitLogSegments, OversizedRecordGetsASegmentOfItsOwn) {
  CommitLog log;
  append_apply_of(log, 1, 64);
  append_apply_of(log, 2, 2 * kSeg + 7);
  append_apply_of(log, 3, 64);
  EXPECT_EQ(log.tail_bytes(), 2 * kSeg + 7 + 128);
  EXPECT_EQ(log.capacity_bytes(), kSeg + (2 * kSeg + 7) + kSeg)
      << "segment, the big record's own segment, segment";
  const auto objects = replayed(log);
  ASSERT_EQ(objects.size(), 3u);
  EXPECT_EQ(objects.at(2).second.size(), 2 * kSeg + 7 - kApplyOverhead);

  // A cut frees the oversized segment and keeps one standard one.
  ReplicaStore live;
  log.replay_into(live);
  log.cut(live, 0);
  EXPECT_EQ(log.tail_bytes(), 0u);
  EXPECT_EQ(log.capacity_bytes(), log.size_bytes() + kSeg);
  EXPECT_EQ(replayed(log), objects);

  // An oversized first record after the cut grows the empty segment rather
  // than leaving it empty behind a new one.
  append_apply_of(log, 4, kSeg + 1);
  EXPECT_EQ(log.capacity_bytes(), log.size_bytes());
}

TEST(CommitLogSegments, TornTailInsideTheLastSegment) {
  CommitLog log;
  append_apply_of(log, 1, kSeg - 50);
  append_apply_of(log, 2, 100);  // second segment
  append_apply_of(log, 3, 100);
  log.truncate_tail_for_test(3);
  EXPECT_EQ(log.tail_bytes(), kSeg - 50 + 200 - 3);
  const auto objects = replayed(log);
  EXPECT_EQ(objects.size(), 2u);
  EXPECT_TRUE(objects.contains(1));
  EXPECT_TRUE(objects.contains(2));
  EXPECT_FALSE(objects.contains(3)) << "torn record must not be misparsed";
}

TEST(CommitLogSegments, TornTailAcrossASegmentBoundary) {
  CommitLog log;
  append_apply_of(log, 1, 200);
  append_apply_of(log, 2, kSeg - 300);  // 100 bytes left in segment one
  append_apply_of(log, 3, 150);         // segment two
  // Tear off all of segment two and 3 bytes of record 2.
  log.truncate_tail_for_test(150 + 3);
  EXPECT_EQ(log.tail_bytes(), kSeg - 100 - 3);
  EXPECT_EQ(log.capacity_bytes(), kSeg) << "the emptied segment is freed";
  const auto objects = replayed(log);
  EXPECT_EQ(objects.size(), 1u);
  EXPECT_TRUE(objects.contains(1));
}

TEST(CommitLogSegments, TearForgetsThePrepareItCut) {
  CommitLog log;
  log.append_prepare(5, {LoggedWrite{1, 1, 1, bytes_of({11})}}, 0);
  log.append_prepare(6, {LoggedWrite{2, 1, 1, bytes_of({22})}}, 0);
  log.truncate_tail_for_test(1);
  EXPECT_TRUE(log.has_pending(5));
  EXPECT_FALSE(log.has_pending(6)) << "its record lost a byte";
  ASSERT_TRUE(log.find_pending(5).has_value());
  EXPECT_EQ(log.find_pending(5)->size(), 1u);
}

/// The write run a LoggedWrite list encodes to, as a commit message carries
/// it.
Bytes run_of(const std::vector<LoggedWrite>& writes) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(writes.size()));
  for (const LoggedWrite& lw : writes) {
    w.u64(lw.id);
    w.u64(lw.base);
    w.u32(lw.steps);
    w.blob(lw.data);
  }
  return std::move(w).take();
}

/// The head of a coordinator's encoded confirm for `txn`: u64 txn and the
/// verdict, which core/wire.h writes before the confirm's write run.
Bytes head_of(TxnId txn, bool commit) {
  Writer w;
  w.u64(txn);
  w.boolean(commit);
  return std::move(w).take();
}

/// A coordinator's whole encoded confirm for `txn`: the head, then the run.
Bytes confirm_of(TxnId txn, bool commit, const Bytes& run) {
  Bytes out = head_of(txn, commit);
  out.insert(out.end(), run.begin(), run.end());
  return out;
}

/// The encoded confirm of an open decision, as a re-drive sends it.
Bytes payload_of(const DecisionView& d) {
  Bytes out;
  d.payload.copy_to(out);
  return out;
}

TEST(CommitLogSegments, PendingPrepareAndDecisionAreReadFromTheImageAfterACut) {
  CommitLog log;
  ReplicaStore live;
  live.seed(1, bytes_of({10}), 1);
  log.append_apply(1, 1, bytes_of({10}), 0);
  const std::vector<LoggedWrite> writes{LoggedWrite{1, 1, 1, Bytes(40, 7)},
                                        LoggedWrite{2, 0, 3, bytes_of({9})}};
  log.append_prepare(9, writes, 0);
  const std::vector<std::uint32_t> members{4, 2, 7};
  const Bytes run = run_of(writes);
  const Bytes payload = confirm_of(9, true, run);
  log.append_decision(9, /*epoch=*/3, /*commit=*/true, members,
                      head_of(9, true), run);
  // Fill past a segment so the prepare and decision sit in freed segments.
  for (ObjectId id = 100; id < 104; ++id) append_apply_of(log, id, kSeg / 3);

  const auto check = [&](const char* when) {
    const auto pending = log.find_pending(9);
    ASSERT_TRUE(pending.has_value()) << when;
    EXPECT_TRUE(std::ranges::equal(pending->bytes(), run_of(writes))) << when;
    ASSERT_EQ(log.open_decisions(), std::vector<TxnId>{9}) << when;
    const auto d = log.open_decision(9);
    ASSERT_TRUE(d.has_value()) << when;
    EXPECT_EQ(d->epoch, 3u) << when;
    EXPECT_TRUE(d->commit) << when;
    ASSERT_EQ(d->members.size(), members.size()) << when;
    for (std::size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(d->members[i], members[i]) << when;
    }
    EXPECT_EQ(payload_of(*d), payload) << when;
  };
  check("in the tail");
  log.cut(live, 0);
  EXPECT_EQ(log.capacity_bytes(), log.size_bytes() + kSeg);
  check("in the image");
  // Overwrite the kept segment, then carry the pair from image to image.
  for (ObjectId id = 200; id < 204; ++id) append_apply_of(log, id, kSeg / 3);
  check("in the image, tail grown");
  log.cut(live, 0);
  check("carried into the next image");

  // Re-driving reads the decision in place; settling closes it, and the
  // verdict stays.
  log.settle_decision(9);
  EXPECT_TRUE(log.open_decisions().empty());
  EXPECT_FALSE(log.open_decision(9).has_value());
  EXPECT_EQ(log.decision_verdict(9), std::optional<bool>(true));

  // The carried prepare still pairs with a confirm logged after both cuts.
  log.append_confirm(9, true, 0);
  EXPECT_FALSE(log.has_pending(9));
  ReplicaStore store;
  log.replay_into(store);
  EXPECT_EQ(store.version_of(1), 2u);
  EXPECT_EQ(store.find(1)->data, Bytes(40, 7));
  EXPECT_EQ(store.version_of(2), 3u);
}

TEST(CommitLogSegments, SkippedCarryKeepsThePrepareInMemoryOnly) {
  CommitLog log;
  ReplicaStore live;
  live.seed(1, bytes_of({10}), 1);
  log.append_prepare(9, {LoggedWrite{1, 1, 1, bytes_of({11})}}, 0);
  const std::size_t carried_image = [&] {
    CommitLog copy = log;
    copy.cut(live, 0, /*carry_in_flight=*/true);
    return copy.size_bytes();
  }();
  log.cut(live, 0, /*carry_in_flight=*/false);
  EXPECT_LT(log.size_bytes(), carried_image) << "not in the image";
  ASSERT_TRUE(log.find_pending(9).has_value()) << "still pending in memory";
  EXPECT_EQ(log.find_pending(9)->begin()->data[0], 11);
  log.cut(live, 0, /*carry_in_flight=*/true);
  EXPECT_EQ(log.size_bytes(), carried_image) << "the next carry writes it";
}

TEST(CommitLogSegments, CopiedLogReplaysToTheSameStore) {
  CommitLog log;
  ReplicaStore live;
  for (ObjectId id = 1; id <= 3; ++id) {
    live.seed(id, Bytes(8, std::uint8_t(id)), 1);
    log.append_apply(id, 1, Bytes(8, std::uint8_t(id)), 0);
  }
  log.cut(live, 0);
  const std::size_t image = log.size_bytes();
  for (TxnId txn = 10; txn < 40; ++txn) {
    log.append_prepare(txn, {LoggedWrite{txn % 3 + 1, txn, 1, Bytes(2000, 1)}},
                       0);
    if (txn % 4 != 0) log.append_confirm(txn, txn % 5 != 0, 0);
    // A prepare's run lives on the shelf, so applies fill the segments.
    if (txn % 10 == 0) append_apply_of(log, 60 + txn, kSeg / 2);
  }
  ASSERT_GE(log.capacity_bytes(), image + 2 * kSeg)
      << "the tail spans segments";

  CommitLog copy = log;
  EXPECT_EQ(copy.size_bytes(), log.size_bytes());
  EXPECT_EQ(copy.in_flight(), log.in_flight());
  EXPECT_EQ(replayed(copy), replayed(log));
  for (TxnId txn = 12; txn < 40; txn += 4) {
    ASSERT_TRUE(copy.find_pending(txn).has_value());
    EXPECT_TRUE(std::ranges::equal(copy.find_pending(txn)->bytes(),
                                   log.find_pending(txn)->bytes()));
  }
  // Both go on the same way: the same appends replay to the same store.
  for (CommitLog* l : {&log, &copy}) {
    l->append_confirm(12, true, 0);
    append_apply_of(*l, 50, kSeg - 8);
  }
  EXPECT_EQ(copy.size_bytes(), log.size_bytes());
  EXPECT_EQ(replayed(copy), replayed(log));
  copy.cut(live, 0);
  log.cut(live, 0);
  EXPECT_EQ(copy.size_bytes(), log.size_bytes());
  EXPECT_EQ(replayed(copy), replayed(log));
}

TEST(CommitLogSegments, AppendAfterATornTailReplaysTheNewRecord) {
  // The tear of TornTailAcrossASegmentBoundary: segment two and 3 bytes of
  // record 2 go, so record 2 is a torn record at the end of segment one.
  const auto torn_log = [] {
    CommitLog log;
    append_apply_of(log, 1, 200);
    append_apply_of(log, 2, kSeg - 300);
    append_apply_of(log, 3, 150);
    log.truncate_tail_for_test(150 + 3);
    return log;
  };

  // An apply: the torn record is cut off first, so the new record does not
  // land behind it and replay reads it whole.
  CommitLog log = torn_log();
  append_apply_of(log, 4, 80);
  EXPECT_EQ(log.tail_bytes(), 200u + 80u) << "the torn record's bytes go";
  EXPECT_EQ(log.tail_records(), 2u);
  auto objects = replayed(log);
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_EQ(objects.at(1).second, Bytes(200 - kApplyOverhead, 1));
  EXPECT_EQ(objects.at(4).second, Bytes(80 - kApplyOverhead, 4));

  // A shared prepare and its confirm.
  log = torn_log();
  const std::vector<LoggedWrite> writes{LoggedWrite{5, 1, 2, Bytes(90, 0x5e)}};
  log.append_prepare(9, writes, 0);
  log.append_confirm(9, true, 0);
  EXPECT_EQ(log.tail_bytes(),
            200u + (4 + 1 + 4 + 8 + run_of(writes).size()) + (4 + 1 + 4 + 8 + 1));
  objects = replayed(log);
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_EQ(objects.at(5), std::make_pair(Version{3}, Bytes(90, 0x5e)));

  // A torn prepare is cut off the same way; the new record after it
  // replays.
  log = CommitLog();
  append_apply_of(log, 1, 200);
  log.append_prepare(9, writes, 0);
  log.truncate_tail_for_test(5);
  EXPECT_FALSE(log.has_pending(9));
  append_apply_of(log, 4, 80);
  objects = replayed(log);
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_EQ(objects.at(4).second, Bytes(80 - kApplyOverhead, 4));
}

// --- shared prepare runs -----------------------------------------------------

/// A prepare of `txn` writing `value` to objects 1 and 2 at version 1.
std::vector<LoggedWrite> writes_of(Bytes value) {
  return {LoggedWrite{1, 1, 1, value}, LoggedWrite{2, 1, 1, std::move(value)}};
}

/// The objects `log` replays once `txn` is confirmed (on a copy, so `log`
/// stays as it is).
std::map<ObjectId, std::pair<Version, Bytes>> committed(const CommitLog& log,
                                                        TxnId txn) {
  CommitLog copy = log;
  copy.append_confirm(txn, true, 0);
  return replayed(copy);
}

TEST(CommitLogShelf, LogsOfOneShelfShareAnIdenticalRun) {
  const auto shelf = std::make_shared<RunShelf>();
  const std::vector<LoggedWrite> writes = writes_of(Bytes(64, 0x31));
  const Bytes run = run_of(writes);
  const std::map<ObjectId, std::pair<Version, Bytes>> expected{
      {1, {2, Bytes(64, 0x31)}}, {2, {2, Bytes(64, 0x31)}}};
  for (const char* first_goes : {"cut", "clear", "destroyed"}) {
    auto first = std::make_unique<CommitLog>(shelf);
    CommitLog second(shelf);
    first->append_prepare(7, writes, 0);
    second.append_encoded_prepare(7, run, 0);
    EXPECT_EQ(shelf->live_runs(), 1u) << first_goes;
    EXPECT_EQ(shelf->live_bytes(), run.size()) << first_goes;
    EXPECT_EQ(first->find_pending(7)->bytes().data(),
              second.find_pending(7)->bytes().data())
        << first_goes << ": one copy";
    EXPECT_EQ(first->size_bytes(), second.size_bytes());
    EXPECT_EQ(first->tail_bytes(), 4 + 1 + 4 + 8 + run.size())
        << "a shared prepare counts its whole run";
    EXPECT_GE(first->capacity_bytes(), first->size_bytes());

    if (first_goes == std::string("cut")) {
      first->cut(ReplicaStore{}, 0);  // carries the prepare into its image
    } else if (first_goes == std::string("clear")) {
      first->clear();
    } else {
      first.reset();
    }
    EXPECT_EQ(shelf->live_runs(), 1u) << first_goes << ": still referred to";
    EXPECT_TRUE(std::ranges::equal(second.find_pending(7)->bytes(), run))
        << first_goes;
    EXPECT_EQ(committed(second, 7), expected) << first_goes;
    second.cut(ReplicaStore{}, 0);
    EXPECT_EQ(shelf->live_runs(), 0u) << first_goes << ": last reference gone";
    EXPECT_EQ(shelf->live_bytes(), 0u);
    EXPECT_EQ(committed(second, 7), expected) << first_goes << ": from the image";
  }
}

TEST(CommitLogShelf, ShardedSubsetRunGetsItsOwnCopy) {
  const auto shelf = std::make_shared<RunShelf>();
  CommitLog full(shelf);
  CommitLog subset(shelf);
  CommitLog other_subset(shelf);
  CommitLog other_txn(shelf);
  const std::vector<LoggedWrite> writes = writes_of(Bytes(40, 0x42));
  const std::vector<LoggedWrite> part{writes[1]};
  const std::vector<LoggedWrite> other_part{writes[0]};
  full.append_prepare(7, writes, 0);
  subset.append_prepare(7, part, 0);              // same txn, other bytes
  other_subset.append_prepare(7, other_part, 0);  // ... of the same size
  other_txn.append_prepare(8, writes, 0);         // same bytes, other txn
  EXPECT_EQ(shelf->live_runs(), 4u);
  EXPECT_EQ(shelf->live_bytes(),
            2 * run_of(writes).size() + 2 * run_of(part).size());
  EXPECT_TRUE(std::ranges::equal(full.find_pending(7)->bytes(), run_of(writes)));
  EXPECT_TRUE(std::ranges::equal(subset.find_pending(7)->bytes(), run_of(part)));
  EXPECT_TRUE(std::ranges::equal(other_subset.find_pending(7)->bytes(),
                                 run_of(other_part)));
  EXPECT_EQ(committed(subset, 7).size(), 1u);
  EXPECT_EQ(committed(subset, 7).at(2),
            std::make_pair(Version{2}, Bytes(40, 0x42)));
  EXPECT_EQ(committed(full, 7).size(), 2u);
}

TEST(CommitLogShelf, CopiedLogKeepsItsRunsAliveAfterTheOriginalDies) {
  const auto shelf = std::make_shared<RunShelf>();
  auto original = std::make_unique<CommitLog>(shelf);
  for (TxnId txn = 1; txn <= 5; ++txn) {
    original->append_prepare(txn, writes_of(Bytes(30, std::uint8_t(txn))), 0);
  }
  original->append_confirm(2, /*commit=*/false, 0);
  CommitLog copy = *original;
  EXPECT_EQ(shelf->live_runs(), 5u) << "a copy refers to the same runs";
  const auto before = committed(copy, 4);
  original.reset();
  EXPECT_EQ(shelf->live_runs(), 5u);
  EXPECT_EQ(committed(copy, 4), before);
  EXPECT_EQ(committed(copy, 4).at(1), std::make_pair(Version{2}, Bytes(30, 4)));
  ASSERT_TRUE(copy.find_pending(5).has_value());
  EXPECT_TRUE(std::ranges::equal(copy.find_pending(5)->bytes(),
                                 run_of(writes_of(Bytes(30, 5)))));
  copy.clear();
  EXPECT_EQ(shelf->live_runs(), 0u);
}

TEST(CommitLogShelf, TearingASharedPrepareLeavesTheRunToTheOtherLog) {
  const auto shelf = std::make_shared<RunShelf>();
  CommitLog torn(shelf);
  CommitLog intact(shelf);
  const std::vector<LoggedWrite> writes = writes_of(Bytes(50, 0x77));
  torn.append_prepare(7, writes, 0);
  intact.append_prepare(7, writes, 0);
  torn.truncate_tail_for_test(3);  // the run's last bytes, as counted
  EXPECT_FALSE(torn.has_pending(7));
  EXPECT_TRUE(replayed(torn).empty());
  EXPECT_EQ(shelf->live_runs(), 1u);
  EXPECT_TRUE(std::ranges::equal(intact.find_pending(7)->bytes(), run_of(writes)))
      << "the shared run is untouched";
  EXPECT_EQ(committed(intact, 7).size(), 2u);
}

TEST(CommitLogShelf, ByteCountsAreThoseOfTheFullRecords) {
  // The sizes a log that copies each run into its tail reports for the
  // same records: sharing runs changes no byte count.
  CommitLog log;
  ReplicaStore live;
  for (ObjectId id = 1; id <= 4; ++id) {
    live.seed(id, Bytes(16, std::uint8_t(id)), 1);
    log.append_apply(id, 1, Bytes(16, std::uint8_t(id)), 0);
  }
  EXPECT_EQ(log.size_bytes(), 180u);
  for (TxnId txn = 1; txn <= 6; ++txn) {
    std::vector<LoggedWrite> writes;
    for (ObjectId id = 1; id <= txn % 4 + 1; ++id) {
      writes.push_back(LoggedWrite{id, 1, 1, Bytes(10 * txn, std::uint8_t(txn))});
    }
    log.append_prepare(txn, writes, 2);
    if (txn % 3 != 0) log.append_confirm(txn, txn % 2 == 1, 2);
  }
  EXPECT_EQ(log.size_bytes(), 1258u);
  EXPECT_EQ(log.tail_bytes(), 1258u);
  EXPECT_EQ(log.tail_records(), 14u);
  log.cut(live, 2);
  EXPECT_EQ(log.size_bytes(), 668u);
  EXPECT_EQ(log.tail_bytes(), 0u);
  log.append_confirm(3, true, 2);
  log.append_prepare(7, {LoggedWrite{2, 1, 3, Bytes(33, 7)}}, 2);
  EXPECT_EQ(log.size_bytes(), 764u);
  EXPECT_EQ(log.tail_bytes(), 96u);
  EXPECT_EQ(log.tail_records(), 2u);
  log.cut(live, 2);
  EXPECT_EQ(log.size_bytes(), 509u);
  EXPECT_EQ(log.tail_bytes(), 0u);
}

// --- decisions sharing their confirm's write run -----------------------------

TEST(CommitLogShelf, SharedAndInlineDecisionsCountTheSameBytes) {
  const auto shelf = std::make_shared<RunShelf>();
  CommitLog voter(shelf);
  CommitLog coordinator(shelf);
  CommitLog standalone;  // a shelf of its own, where the run is not
  const Bytes run = run_of(writes_of(Bytes(64, 0x31)));
  const Bytes payload = confirm_of(7, true, run);
  const std::vector<std::uint32_t> members{3, 1, 4};
  voter.append_encoded_prepare(7, run, 0);
  ASSERT_EQ(shelf->live_runs(), 1u);

  coordinator.append_decision(7, 2, true, members, head_of(7, true), run);
  standalone.append_decision(7, 2, true, members, head_of(7, true), run);
  EXPECT_EQ(shelf->live_runs(), 1u) << "the decision shares the voter's run";
  // The record counts as if it held the whole confirm inline: header, txn,
  // verdict, members, the confirm blob.
  const std::size_t record = 4 + 1 + 4 + 8 + 1 + 4 + 4 * 3 + 4 + payload.size();
  EXPECT_EQ(record, 227u);
  for (const CommitLog* log : {&coordinator, &standalone}) {
    EXPECT_EQ(log->size_bytes(), 227u);
    EXPECT_EQ(log->tail_bytes(), 227u);
    EXPECT_EQ(log->tail_records(), 1u);
    const auto d = log->open_decision(7);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->epoch, 2u);
    EXPECT_TRUE(d->commit);
    ASSERT_EQ(d->members.size(), 3u);
    EXPECT_EQ(d->members[2], 4u);
    EXPECT_EQ(payload_of(*d), payload);
    EXPECT_EQ(d->payload.head.size(), 9u) << "txn and verdict";
    EXPECT_TRUE(std::ranges::equal(d->payload.run, run));
  }
  EXPECT_EQ(coordinator.open_decision(7)->payload.run.data(),
            voter.find_pending(7)->bytes().data())
      << "the decision reads the voters' copy";
  EXPECT_NE(standalone.open_decision(7)->payload.run.data(),
            voter.find_pending(7)->bytes().data())
      << "the standalone log placed a copy on its own shelf";

  // A run that is not the shelf's run of its txn -- another txn's, or other
  // bytes -- is placed as a new run, and counts the same bytes.
  coordinator.append_decision(8, 2, false, members, head_of(8, false), run);
  Bytes other = run;
  other.back() ^= 1;
  coordinator.append_decision(9, 2, true, members, head_of(9, true), other);
  EXPECT_EQ(shelf->live_runs(), 3u);
  EXPECT_EQ(shelf->live_bytes(), 3 * run.size());
  EXPECT_EQ(payload_of(*coordinator.open_decision(8)),
            confirm_of(8, false, run));
  EXPECT_EQ(payload_of(*coordinator.open_decision(9)),
            confirm_of(9, true, other));
  EXPECT_EQ(coordinator.tail_bytes(), 3 * 227u);
  EXPECT_EQ(coordinator.decision_verdict(8), std::optional<bool>(false));
}

// Every decision names a run on the shelf: an abort whose quorum prepared
// nothing places one, a commit whose quorum logged its run shares that
// copy, and a cut drops both references.  The byte counts are those of the
// records with their confirms inline.
TEST(CommitLogShelf, EveryDecisionNamesItsRunOnTheShelf) {
  const auto shelf = std::make_shared<RunShelf>();
  CommitLog voter(shelf);
  CommitLog coordinator(shelf);
  const Bytes committed_run = run_of(writes_of(Bytes(24, 0x11)));
  const Bytes aborted_run = run_of(writes_of(Bytes(10, 0x22)));
  const std::vector<std::uint32_t> members{0, 2, 5};

  // Txn 5 aborts before any member prepared it: its decision places the
  // run.
  coordinator.append_decision(5, 1, false, members, head_of(5, false),
                              aborted_run);
  EXPECT_EQ(shelf->live_runs(), 1u);
  EXPECT_EQ(shelf->live_bytes(), aborted_run.size());
  EXPECT_EQ(coordinator.size_bytes(), 119u);
  EXPECT_EQ(coordinator.capacity_bytes(),
            CommitLog::kSegmentBytes + aborted_run.size());

  // Txn 6's quorum logged its run: the decision shares that copy.
  voter.append_encoded_prepare(6, committed_run, 1);
  coordinator.append_decision(6, 1, true, members, head_of(6, true),
                              committed_run);
  EXPECT_EQ(shelf->live_runs(), 2u);
  EXPECT_EQ(shelf->live_bytes(), aborted_run.size() + committed_run.size());
  EXPECT_EQ(coordinator.open_decision(6)->payload.run.data(),
            voter.find_pending(6)->bytes().data());
  EXPECT_EQ(coordinator.size_bytes(), 119u + 147u);
  EXPECT_EQ(coordinator.tail_bytes(), 266u);
  EXPECT_EQ(coordinator.tail_records(), 2u);

  // The cut writes both decisions into the image in full and drops both
  // references: the aborted run goes, the committed one stays the voter's.
  coordinator.cut(ReplicaStore{}, 1);
  EXPECT_EQ(shelf->live_runs(), 1u);
  EXPECT_EQ(shelf->live_bytes(), committed_run.size());
  EXPECT_EQ(coordinator.size_bytes(), 280u);
  EXPECT_EQ(payload_of(*coordinator.open_decision(5)),
            confirm_of(5, false, aborted_run));
  EXPECT_EQ(payload_of(*coordinator.open_decision(6)),
            confirm_of(6, true, committed_run));
  voter.cut(ReplicaStore{}, 1);
  EXPECT_EQ(shelf->live_runs(), 0u);
}

TEST(CommitLogShelf, CutWritesASharedDecisionInFull) {
  const auto shelf = std::make_shared<RunShelf>();
  CommitLog voter(shelf);
  CommitLog coordinator(shelf);
  CommitLog standalone;
  ReplicaStore live;
  for (ObjectId id = 1; id <= 3; ++id) {
    live.seed(id, Bytes(16, std::uint8_t(id)), 1);
    for (CommitLog* log : {&coordinator, &standalone}) {
      log->append_apply(id, 1, Bytes(16, std::uint8_t(id)), 0);
    }
  }
  const Bytes run = run_of(writes_of(Bytes(48, 0x5a)));
  const Bytes payload = confirm_of(7, true, run);
  const std::vector<std::uint32_t> members{0, 5};
  voter.append_encoded_prepare(7, run, 0);
  coordinator.append_decision(7, 1, true, members, head_of(7, true), run);
  standalone.append_decision(7, 1, true, members, head_of(7, true), run);
  ASSERT_FALSE(coordinator.open_decision(7)->payload.run.empty());
  EXPECT_EQ(coordinator.size_bytes(), standalone.size_bytes());

  coordinator.cut(live, 1);
  standalone.cut(live, 1);
  EXPECT_EQ(coordinator.size_bytes(), standalone.size_bytes())
      << "the image holds the full decision";
  EXPECT_EQ(coordinator.size_bytes(), 318u);
  voter.cut(live, 0);
  EXPECT_EQ(shelf->live_runs(), 0u) << "the cut dropped the decision's run";
  for (const CommitLog* log : {&coordinator, &standalone}) {
    const auto d = log->open_decision(7);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->payload.run.empty()) << "read whole from the image";
    EXPECT_EQ(payload_of(*d), payload);
    // The image walk skips the carried decision and stays aligned: replay
    // still reads every object (a misaligned walk voids the log).
    ReplicaStore restarted;
    EXPECT_EQ(log->replay_into(restarted), 3u);
  }
  // Carried from image to image, the decision keeps its bytes.
  coordinator.cut(live, 1);
  EXPECT_EQ(coordinator.size_bytes(), 318u);
  EXPECT_EQ(payload_of(*coordinator.open_decision(7)), payload);
}

TEST(CommitLogShelf, RestartedCoordinatorRedrivesTheSameBytes) {
  const auto shelf = std::make_shared<RunShelf>();
  CommitLog voter(shelf);
  CommitLog coordinator(shelf);
  const Bytes run = run_of(writes_of(Bytes(40, 0x66)));
  const Bytes payload = confirm_of(7, true, run);
  voter.append_encoded_prepare(7, run, 0);
  coordinator.append_decision(7, 0, true, std::vector<std::uint32_t>{2, 6},
                              head_of(7, true), run);
  // The voter confirms and cuts: the coordinator's reference alone keeps
  // the run.  A restart replays the log and re-drives from it.
  voter.append_confirm(7, true, 0);
  voter.cut(ReplicaStore{}, 0);
  EXPECT_EQ(shelf->live_runs(), 1u);
  ReplicaStore restarted;
  coordinator.replay_into(restarted);
  ASSERT_EQ(coordinator.open_decisions(), std::vector<TxnId>{7});
  const auto d = coordinator.open_decision(7);
  EXPECT_FALSE(d->payload.run.empty());
  EXPECT_EQ(payload_of(*d), payload);
  coordinator.settle_decision(7);
  EXPECT_FALSE(coordinator.open_decision(7).has_value());
  coordinator.cut(ReplicaStore{}, 0);
  EXPECT_EQ(shelf->live_runs(), 0u);
}

TEST(CommitLogShelf, TearingASharedDecisionDropsOnlyThisLogsReference) {
  const auto shelf = std::make_shared<RunShelf>();
  CommitLog voter(shelf);
  CommitLog coordinator(shelf);
  const Bytes run = run_of(writes_of(Bytes(50, 0x77)));
  const Bytes payload = confirm_of(7, true, run);
  voter.append_encoded_prepare(7, run, 0);
  append_apply_of(coordinator, 1, 100);
  coordinator.append_decision(7, 0, true, std::vector<std::uint32_t>{1, 2},
                              head_of(7, true), run);
  const std::size_t before = coordinator.tail_bytes();
  EXPECT_EQ(coordinator.capacity_bytes(), CommitLog::kSegmentBytes + run.size());
  coordinator.truncate_tail_for_test(3);  // the run's last bytes, as counted
  EXPECT_EQ(coordinator.tail_bytes(), before - 3);
  EXPECT_FALSE(coordinator.open_decision(7).has_value());
  EXPECT_EQ(shelf->live_runs(), 1u);
  EXPECT_EQ(coordinator.capacity_bytes(), CommitLog::kSegmentBytes)
      << "the log refers to no run";
  EXPECT_TRUE(std::ranges::equal(voter.find_pending(7)->bytes(), run))
      << "the voter's run is untouched";
  // The next append cuts the torn record off; the log replays its apply.
  append_apply_of(coordinator, 2, 60);
  EXPECT_EQ(coordinator.tail_bytes(), 160u);
  EXPECT_EQ(replayed(coordinator).size(), 2u);
  voter.cut(ReplicaStore{}, 0);
  EXPECT_EQ(shelf->live_runs(), 0u);
}

}  // namespace
}  // namespace qrdtm::store

namespace qrdtm::core {
namespace {

TxnBody bump_body(ObjectId id) {
  return [id](Txn& t) -> sim::Task<void> {
    const ValueSpan v = co_await t.read_for_write(id);
    Bytes b(v.begin(), v.end());
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

// Over a long run with many auto-cuts, every log holds its records plus
// at most one segment right after each cut (the tail segments are freed,
// the image is sized exactly), and never more than one partly filled
// segment plus the slack full segments leave behind.  A probe samples every
// node each 100 us of simulated time; a cut is checked when the probe sees
// it before the next append.
TEST(CommitLogCluster, HeldBytesStayWithinOneSegmentAfterEveryAutoCut) {
  using store::CommitLog;
  ClusterConfig cfg;
  cfg.num_nodes = 7;
  cfg.quorum = QuorumKind::kMajority;
  cfg.seed = 61;
  cfg.runtime.log_max_tail_bytes = 3 * CommitLog::kSegmentBytes;
  Cluster c(cfg);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 8; ++i) {
    objs.push_back(c.seed_new_object(Bytes(700, std::uint8_t{1})));
  }
  for (net::NodeId n : {net::NodeId{0}, net::NodeId{1}, net::NodeId{2}}) {
    c.spawn_loop_client(n, [&objs](Rng& rng) {
      return bump_body(objs[rng.below(objs.size())]);
    });
  }

  struct Probe {
    std::vector<std::uint64_t> cuts;
    std::uint64_t cuts_checked = 0;
    std::size_t worst_excess = 0;  // held - size_bytes, any time
  } probe;
  probe.cuts.assign(c.num_nodes(), 0);
  constexpr std::size_t kSeg = CommitLog::kSegmentBytes;
  constexpr std::size_t kMaxRecord = 2048;  // every record here is smaller
  auto sample = [](Cluster* c, Probe* p) -> sim::Task<void> {
    while (!c->simulator().stopping()) {
      for (net::NodeId n = 0; n < c->num_nodes(); ++n) {
        const CommitLog& log = c->server(n).commit_log();
        const std::size_t held = log.capacity_bytes();
        EXPECT_GE(held, log.size_bytes());
        const std::size_t excess = held - log.size_bytes();
        p->worst_excess = std::max(p->worst_excess, excess);
        // One partly filled segment, plus less than a record's worth of
        // room at the end of each full one.
        const std::size_t segments = log.tail_bytes() / (kSeg - kMaxRecord) + 1;
        EXPECT_LE(excess, kSeg + segments * kMaxRecord) << "node " << n;
        if (log.cuts() != p->cuts[n] && log.tail_records() == 0) {
          EXPECT_LE(held, log.size_bytes() + kSeg) << "node " << n;
          ++p->cuts_checked;
        }
        p->cuts[n] = log.cuts();
      }
      co_await c->simulator().delay(sim::usec(100));
    }
  };
  c.simulator().spawn(sample(&c, &probe));
  c.run_for(sim::sec(60));
  c.run_to_completion();

  const std::uint64_t autocuts = c.metrics().log_autocuts;
  EXPECT_GE(autocuts, 20u) << "a long run: many auto-cuts";
  EXPECT_GE(probe.cuts_checked * 2, autocuts)
      << "most cuts are seen before the next append";
  EXPECT_GE(probe.worst_excess, kSeg / 2) << "the probe saw tails grow";
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    const CommitLog& log = c.server(n).commit_log();
    EXPECT_LE(log.tail_bytes(), cfg.runtime.log_max_tail_bytes + kMaxRecord);
  }
}

}  // namespace
}  // namespace qrdtm::core
