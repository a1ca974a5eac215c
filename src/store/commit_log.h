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
//   * prepare {epoch, txn, run}  -- a 2PC commit vote took protections here.
//     The write-set is an encoded write run (store/write_run.h) held
//     once per cluster on the RunShelf (store/run_shelf.h) and shared by
//     every log of the write quorum that logged identical bytes; the record
//     names it by its index in the log's run table,
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
// Replay only ever calls ReplicaStore::apply, so it is idempotent.  The
// log never leaves the process, so nothing is read for compatibility: an
// image with trailing bytes is corrupt, and so is a record of unknown type.
//
// Coordinator decisions: before any confirm leaves the node, the
// coordinator appends a decision record {txn, commit|abort, members, encoded
// confirm}.  The caller hands the confirm over as its head and its write
// run; the run goes on the shelf like a prepare's -- the copy the write
// quorum's prepares just put there when the bytes are identical, else a
// new one (an abort whose quorum prepared nothing) -- and the record holds
// the head and the run's index.  It counts for the full record with the
// run inline, a cut writes that full record into the image, and a re-drive
// sends the same bytes.  Unsettled decisions are carried across cuts and
// re-driven after a restart (at-least-once delivery; receivers dedupe on
// (txn, epoch)).
//
// The tail is a chain of fixed-size segments (kSegmentBytes).  Appends frame
// each record straight into the last segment -- a zero length prefix, the
// payload, then the prefix filled in -- and a record that does not fit in
// what is left of it starts the next segment; a record bigger than a
// segment gets one of its own.  A record never spans segments and never
// moves: the segments laid end to end are the record stream, growth never
// copies, and a cut frees every segment but one, so the log holds its
// records plus at most one partly filled segment (and the room full
// segments leave at their ends).  A prepare's write-set is the write run
// of the commit request (store/write_run.h, the one codec the messages in
// core/wire.h use too): a replica hands the run over verbatim
// (append_encoded_prepare), and the shelf keeps one copy of it however many
// logs refer to it.  The byte counts (size_bytes, tail_bytes) are those of
// the full logical records, run included, so auto-cut points do not depend
// on the sharing.  A pending prepare and an open decision are read where
// their bytes lie -- the run on the shelf or the decision record in the
// tail until a cut, in the image after it -- so neither is ever copied out.
// A cut, clear() or the log's end drops its run references; a run is freed
// when its last one goes.  The pending prepares, the open decisions, the
// verdicts and replay's outcomes are flat TxnId-keyed tables
// (common/flat_table.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/flat_table.h"
#include "common/serde.h"
#include "store/object.h"
#include "store/replica_store.h"
#include "store/run_shelf.h"
#include "store/write_run.h"

namespace qrdtm::store {

/// One write of a logged prepare: the committed version is base + steps
/// (steps == 1 for a per-transaction 2PC, the queue depth for a QR-Q batch).
struct LoggedWrite {
  ObjectId id = 0;
  Version base = 0;
  std::uint32_t steps = 1;
  Bytes data;
};

/// An applied 2PC outcome: the liveness epoch it was applied in, and the
/// verdict, packed into 4 bytes (a 31-bit epoch and the commit bit), so an
/// outcome table's slot is 12 bytes.
struct ConfirmOutcome {
  static constexpr std::uint32_t kMaxEpoch = (std::uint32_t{1} << 31) - 1;

  ConfirmOutcome() = default;
  ConfirmOutcome(std::uint32_t e, bool c) : epoch(e), commit(c) {
    QRDTM_CHECK_MSG(e <= kMaxEpoch, "liveness epoch past 31 bits");
  }

  std::uint32_t epoch : 31 = 0;
  bool commit : 1 = false;
};
static_assert(sizeof(ConfirmOutcome) == 4);

inline std::uint32_t decode_member(Reader& r) { return r.u32(); }

/// A decision's write-quorum members, read in place.
using DecisionMembers = RecordView<4, std::uint32_t, decode_member>;

/// A decision's encoded confirm, read in place: `head` from the decision
/// record, then `run`, its shelf run, while the record is in the tail (after
/// a cut the image holds the whole confirm in `head`, and `run` is empty).
struct DecisionPayload {
  std::span<const std::uint8_t> head;
  std::span<const std::uint8_t> run;

  /// Replace `out`'s bytes with the confirm's, keeping its capacity.
  void copy_to(Bytes& out) const {
    out.assign(head.begin(), head.end());
    out.insert(out.end(), run.begin(), run.end());
  }
};

/// A coordinator's durable 2PC decision (DESIGN.md §17), read in place from
/// its log record: written after the votes resolve and BEFORE any confirm
/// leaves the node.  `payload` is the raw encoded CommitConfirm (of one
/// transaction or one QR-Q batch), so re-driving after a restart is pure
/// retransmission to `members`.  The invariant this buys: if a restarted
/// coordinator finds no decision for txn in its log, no confirm was ever
/// sent, so presumed-abort by in-doubt replicas can never contradict an
/// acknowledged commit.
struct DecisionView {
  std::uint32_t epoch = 0;
  bool commit = false;
  DecisionMembers members;  // write-quorum nodes to (re-)notify
  DecisionPayload payload;  // encoded confirm message
};

class CommitLog {
 public:
  /// Size of a tail segment.  A record larger than this gets a segment of
  /// its own.
  static constexpr std::size_t kSegmentBytes = std::size_t{32} << 10;

  /// A standalone log, with a shelf of its own.
  CommitLog();
  /// A log whose prepare runs live on `shelf`, shared with the other logs
  /// on it (a Cluster hands one shelf to every replica's log).
  explicit CommitLog(std::shared_ptr<RunShelf> shelf);

  /// Append a direct install (setup seed or recovery-delta entry made
  /// durable by the post-sync cut).
  void append_apply(ObjectId id, Version version, const Bytes& data,
                    std::uint32_t epoch);

  /// Append a 2PC prepare (commit vote taken, write-set protected): the
  /// writes are encoded as a run and logged as append_encoded_prepare logs
  /// one.
  void append_prepare(TxnId txn, const std::vector<LoggedWrite>& writes,
                      std::uint32_t epoch);

  /// The same, with the write-set already encoded as a run (see the file
  /// comment): the record refers to the shelf's copy of these bytes, which
  /// is made here unless the shelf holds an identical run of `txn`.  A
  /// malformed run throws SerdeError before anything is appended.
  void append_encoded_prepare(TxnId txn, std::span<const std::uint8_t> writes,
                              std::uint32_t epoch);

  /// Append the one-way 2PC outcome for `txn`.
  void append_confirm(TxnId txn, bool commit, std::uint32_t epoch);

  /// Coordinator side: durably record the 2PC decision for `txn` -- the
  /// write-quorum `members` to notify and the encoded confirm, `head`
  /// followed by the write `run` -- before any confirm is sent.  The record
  /// refers to the shelf's copy of the run (see the file comment).  The
  /// decision stays open (listed by open_decisions(), carried across
  /// checkpoint cuts) until settle_decision() marks the confirm broadcast
  /// complete.
  void append_decision(TxnId txn, std::uint32_t epoch, bool commit,
                       std::span<const std::uint32_t> members,
                       std::span<const std::uint8_t> head,
                       std::span<const std::uint8_t> run);

  /// The confirm broadcast for `txn` completed in this incarnation; stop
  /// re-driving it.  No record is appended: a crash between the broadcast
  /// and the settle merely re-drives the confirms at-least-once, which the
  /// (txn, epoch) applied-set on the receivers absorbs.
  void settle_decision(TxnId txn);

  /// The transactions whose decision is open (confirm broadcast not
  /// settled) -- what a restarted coordinator must re-drive -- ascending,
  /// so re-delivery is deterministic.
  std::vector<TxnId> open_decisions() const;

  /// The open decision for `txn`, read in place, or nullopt.  The view
  /// borrows the log: it is valid until the next cut.
  std::optional<DecisionView> open_decision(TxnId txn) const;

  /// The recorded verdict for `txn`: true = commit, false = abort, nullopt =
  /// this node never logged a decision for it.  Retained after settling --
  /// termination rounds may ask about long-finished transactions.
  std::optional<bool> decision_verdict(TxnId txn) const;

  /// The in-flight (prepared, unconfirmed) writes of `txn`, or nullopt.
  /// A replica resolving an in-doubt transaction to commit applies these.
  /// The run borrows the log: it is valid until the next cut.
  std::optional<WriteRun> find_pending(TxnId txn) const;

  /// Whether `txn` has an in-flight prepare here.
  bool has_pending(TxnId txn) const { return pending_.contains(txn); }

  /// Checkpoint cut: replace the image with a snapshot of `store`, carry
  /// the in-flight prepares forward (unless `carry_in_flight` is false --
  /// the Greengage bug), and discard the record tail, keeping one empty
  /// segment.
  void cut(const ReplicaStore& store, std::uint32_t epoch,
           bool carry_in_flight = true);

  /// Rebuild `store` from the image + tail per the replay rules above.
  /// Returns the number of apply operations performed on the store.  A torn
  /// trailing record is dropped; a corrupt image voids the whole log.
  /// When `outcomes` is non-null, every honoured confirm record is also
  /// recorded there as txn -> (epoch, commit) so the server can rebuild its
  /// idempotence applied-set across restarts.
  std::size_t replay_into(ReplicaStore& store,
                          FlatTable<ConfirmOutcome>* outcomes = nullptr) const;

  // ----- observability ----------------------------------------------------

  /// Durable footprint in bytes (image + tail).
  std::size_t size_bytes() const { return image_.size() + tail_bytes_; }
  /// Bytes the log holds or refers to in memory for its records: the
  /// image's and the tail segments' capacity (plus the runs a carry-skipping
  /// cut left out of the image), and the bytes of the shelf runs its
  /// prepares refer to.  At least size_bytes(), and at most size_bytes()
  /// plus one segment right after a cut.
  std::size_t capacity_bytes() const;
  /// Bytes appended since the last cut (the unbounded part of the
  /// footprint; QrServer's max_tail_bytes auto-cut polices it).
  std::size_t tail_bytes() const { return tail_bytes_; }
  /// Records appended since the last cut.
  std::uint64_t tail_records() const { return tail_records_; }
  /// Checkpoint cuts taken over the log's lifetime.
  std::uint64_t cuts() const { return cuts_; }
  /// Upper version bound covered by the log (max version ever recorded).
  Version high_version() const { return high_version_; }
  /// Prepared-but-unconfirmed transactions currently tracked.
  std::size_t in_flight() const { return pending_.size(); }
  bool empty() const { return image_.empty() && tail_bytes_ == 0; }

  /// Forget everything (tests only; a real disk does not lose its past).
  void clear();

  /// Simulate a torn write: drop the last `bytes` (counted as tail_bytes()
  /// counts them) of the record tail, as a crash mid-flush would.  Clamped
  /// to the tail size.  A prepare or decision whose record lost bytes is
  /// forgotten, as a restart that replays the torn log would; a torn record
  /// stays at the tail's end, where replay stops, until the next append or
  /// tear cuts it off.  A shared run is never touched: the log only drops
  /// its references to the runs of the records it lost.
  void truncate_tail_for_test(std::size_t bytes);

 private:
  /// Where a record's body lies: byte `at` of tail segment `seg`, of the
  /// image (kImage), or of the runs a carry-skipping cut left out of the
  /// image (kUncarried); or the shelf run at index `at` of the log's run
  /// table (kShelf).  An index, not a pointer, so a copied log reads its
  /// own bytes.
  struct Loc {
    static constexpr std::uint32_t kImage = ~std::uint32_t{0};
    static constexpr std::uint32_t kUncarried = kImage - 1;
    static constexpr std::uint32_t kShelf = kImage - 2;
    std::uint32_t seg = 0;
    std::uint32_t at = 0;
    std::uint32_t size = 0;
  };
  /// An in-flight prepare: its write run.
  struct Pending {
    std::uint32_t epoch = 0;
    Loc run;
  };
  /// An open decision: its record after the epoch (txn, verdict, members,
  /// the confirm's size, its head and its run's index) and that index in
  /// the log's run table -- or, once a cut carried it, its full record in
  /// the image, the run inline.
  struct OpenDecision {
    static constexpr std::uint32_t kInImage = ~std::uint32_t{0};
    std::uint32_t epoch = 0;
    Loc body;
    std::uint32_t run = kInImage;
  };

  /// Start a record of `body` payload bytes after its header, in the last
  /// segment or a new one: a zero length prefix, the type and the epoch.
  /// `*len_at` receives the prefix's offset for close_record.
  Writer open_record(std::uint8_t type, std::uint32_t epoch, std::size_t body,
                     std::size_t* len_at);
  /// Fill in the length prefix and hand the segment back.
  void close_record(Writer&& w, std::size_t len_at);
  /// Where the bytes from `at` to the end of the last segment lie.
  Loc tail_loc(std::size_t at) const;
  std::span<const std::uint8_t> bytes_at(const Loc& loc) const;
  /// Log the prepare record of `txn`'s encoded, checked run `writes`.
  void append_run(TxnId txn, std::span<const std::uint8_t> writes,
                  std::uint32_t epoch);
  /// Cut off the torn record a tear left at the tail's end, if any.
  void drop_torn_record();
  /// Free every tail segment but one, which is emptied, and drop every run
  /// reference.
  void release_tail();

  Bytes image_;  // checkpoint snapshot: objects + carried prepares/decisions
  // Length-prefixed records appended since the cut; records fill each
  // segment up to its capacity, and only the last one has room left.
  std::vector<Bytes> segments_;
  // The shelf runs the tail's prepare and decision records name, by index.
  RunRefs runs_;
  // Bytes appended since the cut, each prepare counted with its run.
  std::size_t tail_bytes_ = 0;
  // A torn record at the end of the last segment (truncate_tail_for_test):
  // its bytes there, and the bytes of it tail_bytes_ still counts.
  std::size_t torn_ = 0;
  std::size_t torn_counted_ = 0;
  // The runs of prepares a carry-skipping cut left out of the image, still
  // pending in memory (the fault-injection path only).
  Bytes uncarried_;
  // append_prepare's encoding of its writes, kept for its capacity.
  Bytes encode_scratch_;
  // In-flight prepares, maintained at append time so cut() can carry them.
  // Derived state: a replay of the durable bytes reconstructs it.
  FlatTable<Pending> pending_;
  // Unsettled coordinator decisions (append_decision without a matching
  // settle_decision), carried across cuts like pending_.
  FlatTable<OpenDecision> decisions_;
  // Every verdict ever logged here, kept after settling so termination
  // queries about old transactions still get an authoritative answer.
  // In-memory only and never carried in the cut image: a fully-settled
  // transaction has no live in-doubt holder left to ask about it, so
  // rebuilding the map from the open decisions after a crash is sufficient
  // -- and the cut image stays bounded by the store size.
  FlatTable<bool> verdicts_{/*late_growth=*/true};  // grown at cuts
  Version high_version_ = 0;
  std::uint64_t tail_records_ = 0;
  std::uint64_t cuts_ = 0;
};

}  // namespace qrdtm::store
