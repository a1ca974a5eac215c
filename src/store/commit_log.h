// Per-node durable commit/checkpoint log (the deterministic in-sim "disk").
//
// Durability is explicit: the replica's in-memory store is truly volatile,
// and what survives a crash is this log -- an append-only record
// stream compacted by periodic checkpoint cuts.  A restarting node replays
// the log locally and then asks its read quorum only for a version-bounded
// delta (SyncPullRequest carries per-object bounds), so anti-entropy ships
// what the node missed while dead, not everything it already has.
//
// Record stream (each record length-prefixed so a torn tail -- a partial
// final record from a crash mid-flush -- is dropped cleanly, never
// misparsed):
//   * apply   {epoch, id, version, data}  -- seeds and direct installs,
//   * prepare {epoch, txn, writes[{id, base, steps, data}]} -- a 2PC commit
//     vote took protections here; the write payload lives ONLY in this
//     record,
//   * confirm {epoch, txn, commit} -- the one-way 2PC outcome.  Deliberately
//     carries no writeset: replay resolves it against the matching prepare,
//     exactly the coupling the Greengage checkpoint_dtx_info bug broke.
//
// A checkpoint cut snapshots the store image, carries forward every
// prepared-but-unconfirmed transaction (the getDtxCheckPointInfo analogue),
// and discards the tail.  If the carry is skipped (the chk.cut.carry fault
// point models the Greengage bug), a confirm logged after the cut references
// an unknown prepare and its writes are silently lost at replay -- which the
// history checker must then catch.
//
// Replay rules (replay_into):
//   1. install the image objects (ReplicaStore::apply, strictly-newer), and
//      remember the carried prepares as pending;
//   2. walk the tail: prepare -> pending, confirm(commit) -> apply each
//      pending write at base+steps, confirm(abort) -> drop the pending
//      entry.  A confirm is honoured only when the pending prepare carries
//      the SAME liveness epoch -- a prepare from incarnation e can only be
//      confirmed in incarnation e (the network drops cross-epoch traffic),
//      so a mismatched pair means a stale record, not a commit;
//   3. prepares still pending at the end are in-doubt: left for the
//      cooperative termination protocol (DESIGN.md §17) to resolve -- a
//      commit decided elsewhere also arrives through the delta pull.
// Replay only ever calls ReplicaStore::apply, so it is idempotent.
//
// Coordinator decisions (PR 10): before any confirm leaves the node, the
// coordinator appends a decision record {txn, commit|abort, encoded confirm,
// members}.  Unsettled decisions are carried across cuts and re-driven after
// a restart (at-least-once delivery; receivers dedupe on (txn, epoch)).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "store/object.h"
#include "store/replica_store.h"

namespace qrdtm::store {

/// One write of a logged prepare: the committed version is base + steps
/// (steps == 1 for a per-transaction 2PC, the queue depth for a QR-Q batch).
struct LoggedWrite {
  ObjectId id = 0;
  Version base = 0;
  std::uint32_t steps = 1;
  Bytes data;
};

/// A coordinator's durable 2PC decision (DESIGN.md §17): written after the
/// votes resolve and BEFORE any confirm leaves the node.  `payload` is the
/// raw encoded CommitConfirm (of one transaction or one QR-Q batch), so
/// re-driving after a restart is pure retransmission to `members`.  The invariant this buys: if a restarted coordinator finds no
/// decision for txn in its log, no confirm was ever sent, so presumed-abort
/// by in-doubt replicas can never contradict an acknowledged commit.
struct Decision {
  std::uint32_t epoch = 0;
  bool commit = false;
  std::vector<std::uint32_t> members;  // write-quorum nodes to (re-)notify
  Bytes payload;                       // encoded confirm message
};

class CommitLog {
 public:
  /// Append a direct install (setup seed or recovery-delta entry made
  /// durable by the post-sync cut).
  void append_apply(ObjectId id, Version version, const Bytes& data,
                    std::uint32_t epoch);

  /// Append a 2PC prepare (commit vote taken, write-set protected).
  void append_prepare(TxnId txn, std::vector<LoggedWrite> writes,
                      std::uint32_t epoch);

  /// Append the one-way 2PC outcome for `txn`.
  void append_confirm(TxnId txn, bool commit, std::uint32_t epoch);

  /// Coordinator side: durably record the 2PC decision for `txn` before any
  /// confirm is sent.  The decision stays "open" (returned by
  /// open_decisions(), carried across checkpoint cuts) until
  /// settle_decision() marks the confirm broadcast complete.
  void append_decision(TxnId txn, Decision d);

  /// The confirm broadcast for `txn` completed in this incarnation; stop
  /// re-driving it.  No record is appended: a crash between the broadcast
  /// and the settle merely re-drives the confirms at-least-once, which the
  /// (txn, epoch) applied-set on the receivers absorbs.
  void settle_decision(TxnId txn);

  /// Decisions whose confirm broadcast has not been settled -- what a
  /// restarted coordinator must re-drive.  Ordered by txn id so re-delivery
  /// is deterministic.
  const std::map<TxnId, Decision>& open_decisions() const {
    return decisions_;
  }

  /// The recorded verdict for `txn`: true = commit, false = abort, nullopt =
  /// this node never logged a decision for it.  Retained after settling --
  /// termination rounds may ask about long-finished transactions.
  std::optional<bool> decision_verdict(TxnId txn) const;

  /// The in-flight (prepared, unconfirmed) writes of `txn`, or nullptr.
  /// A replica resolving an in-doubt transaction to commit applies these.
  const std::vector<LoggedWrite>* find_pending(TxnId txn) const;

  /// Checkpoint cut: replace the image with a snapshot of `store`, carry
  /// the in-flight prepares forward (unless `carry_in_flight` is false --
  /// the Greengage bug), and discard the record tail.
  void cut(const ReplicaStore& store, std::uint32_t epoch,
           bool carry_in_flight = true);

  /// Rebuild `store` from the image + tail per the replay rules above.
  /// Returns the number of apply operations performed on the store.  A torn
  /// trailing record is dropped; a corrupt image voids the whole log.
  /// When `outcomes` is non-null, every honoured confirm record is also
  /// recorded there as txn -> (epoch, commit) so the server can rebuild its
  /// idempotence applied-set across restarts.
  std::size_t replay_into(
      ReplicaStore& store,
      std::unordered_map<TxnId, std::pair<std::uint32_t, bool>>* outcomes =
          nullptr) const;

  // ----- observability ----------------------------------------------------

  /// Durable footprint in bytes (image + tail).
  std::size_t size_bytes() const { return image_.size() + tail_.size(); }
  /// Bytes appended since the last cut (the unbounded part of the
  /// footprint; QrServer's max_tail_bytes auto-cut polices it).
  std::size_t tail_bytes() const { return tail_.size(); }
  /// Records appended since the last cut.
  std::uint64_t tail_records() const { return tail_records_; }
  /// Checkpoint cuts taken over the log's lifetime.
  std::uint64_t cuts() const { return cuts_; }
  /// Upper version bound covered by the log (max version ever recorded).
  Version high_version() const { return high_version_; }
  /// Prepared-but-unconfirmed transactions currently tracked.
  std::size_t in_flight() const { return pending_.size(); }
  bool empty() const { return image_.empty() && tail_.empty(); }

  /// Forget everything (tests only; a real disk does not lose its past).
  void clear();

  /// Simulate a torn write: drop the last `bytes` of the record tail, as a
  /// crash mid-flush would.  Clamped to the tail size.
  void truncate_tail_for_test(std::size_t bytes);

 private:
  struct Pending {
    std::uint32_t epoch = 0;
    std::vector<LoggedWrite> writes;
  };

  Bytes image_;  // checkpoint snapshot: objects + carried prepares/decisions
  Bytes tail_;   // length-prefixed records appended since the cut
  // In-flight prepares, maintained at append time so cut() can carry them.
  // Derived state: a replay of the durable bytes reconstructs it.
  std::unordered_map<TxnId, Pending> pending_;
  // Unsettled coordinator decisions (append_decision without a matching
  // settle_decision), carried across cuts like pending_.
  std::map<TxnId, Decision> decisions_;
  // Every verdict ever logged here, kept after settling so termination
  // queries about old transactions still get an authoritative answer.
  // In-memory only and never carried in the cut image: a fully-settled
  // transaction has no live in-doubt holder left to ask about it, so
  // rebuilding the map from the open decisions after a crash is sufficient
  // -- and the cut image stays bounded by the store size.
  std::unordered_map<TxnId, bool> verdicts_;
  Version high_version_ = 0;
  std::uint64_t tail_records_ = 0;
  std::uint64_t cuts_ = 0;
};

}  // namespace qrdtm::store
