// QR-family wire messages (read / commit-request / confirm) and their serde.
//
// ReadRequest doubles as the Rqv validation carrier: under QR-CN / QR-CHK it
// ships the requesting transaction's entire data-set (read-set + write-set,
// including every ancestor's) so the replica can validate incrementally
// before serving the object (paper Alg. 1, 2, 4).  Under flat QR the
// data-set is empty and replicas skip validation.
//
// The read round trip is parsed in place.  ReadRequest::decode_view leaves
// the data-set in the request buffer as fixed 36-byte records, which the
// replica validates one by one without building a vector; an OK reply is
// encoded straight from the store entry; and the requester parses replies
// with ReadResponse::decode_view, copying out only the winning value.
//
// The replica half of 2PC is parsed in place too.  CommitRequest::
// decode_view leaves the read-set as fixed 16-byte records and the
// write-set as a checked write run (store/write_run.h, the codec the commit
// log shares) whose values borrow the request buffer; CommitConfirm::
// decode_view does the same for the confirm.  Each view checks the whole
// message before the replica acts on any of it.  The coordinator reads each
// vote in place too (VoteResponse::decode_view), and encodes its request
// and confirm from views of the sets it holds (encode_commit_request /
// encode_commit_confirm).
//
// Each message has one encoder and one parser.  The encoder is its
// encode_into, or the free encode_* function that encode_into forwards to
// and the hot paths call with borrowed fields.  The parser is decode_view
// for the read and 2PC messages and decode for the rest; the owning
// ReadRequest::decode and CommitRequest::decode are their views plus a
// copy-out, and CommitRequest::encode wraps encode_into.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serde.h"
#include "core/types.h"
#include "net/message.h"
#include "store/write_run.h"

namespace qrdtm::core {

namespace msg {
// Message kinds (0x01xx = QR family).
constexpr net::MsgKind kRead = 0x0101;
constexpr net::MsgKind kCommitRequest = 0x0102;
constexpr net::MsgKind kCommitConfirm = 0x0103;  // one-way, commit or abort
constexpr net::MsgKind kSyncPull = 0x0104;       // recovery anti-entropy
// QR-Q batches run the same 2PC round under their own tags, so per-kind
// message counts keep batches apart; the payloads are CommitRequest and
// CommitConfirm and the replica handlers are shared.
constexpr net::MsgKind kBatchCommitRequest = 0x0105;
constexpr net::MsgKind kBatchCommitConfirm = 0x0106;
constexpr net::MsgKind kTxnStatusRequest = 0x0107;    // termination: one-way
constexpr net::MsgKind kTxnStatusResponse = 0x0108;   // termination: one-way
}  // namespace msg

/// One validated object in the requester's data-set.
struct DataSetEntry {
  ObjectId id = 0;
  Version version = 0;
  /// QR-CN: the scope (root or CT) that owns the copy, and its depth in the
  /// nesting hierarchy (0 = root).  The replica reports the *shallowest*
  /// invalid owner as abortClosed (paper Alg. 1 line 9-10).
  TxnId owner = 0;
  std::uint32_t owner_depth = 0;
  /// QR-CHK: checkpoint epoch current when the copy was fetched.  The
  /// replica reports the *minimum* invalid epoch as abortChk (Alg. 4).
  ChkEpoch owner_chk = 0;
};

/// Encoded size of one DataSetEntry record: id, version, owner, owner_depth,
/// owner_chk.
inline constexpr std::size_t kDataSetEntryBytes = 8 + 8 + 8 + 4 + 8;

/// Reads one data-set record: the decode half of encode_dataset_entry in
/// wire.cpp.
inline DataSetEntry decode_dataset_entry(Reader& r) {
  DataSetEntry e;
  e.id = r.u64();
  e.version = r.u64();
  e.owner = r.u64();
  e.owner_depth = r.u32();
  e.owner_chk = r.u64();
  return e;
}

/// A request's data-set left in place in its buffer.
using DataSetView =
    RecordView<kDataSetEntryBytes, DataSetEntry, decode_dataset_entry>;

struct ReadRequestView;

struct ReadRequest {
  /// Root transaction id: the Rqv protection key (a protection held by the
  /// requester's own root does not block its reads).
  TxnId root = 0;
  NestingMode mode = NestingMode::kFlat;
  ObjectId object = 0;
  /// Read-for-write intent.  No replica decision reads it; it stays on the
  /// wire only because benchmark/layers.cpp encodes it.
  bool for_write = false;
  std::vector<DataSetEntry> dataset;  // empty under flat QR

  void encode_into(Writer& w) const;
  /// decode_view plus a copy of the data-set.
  static ReadRequest decode(const Bytes& b);
  /// The one parser: checks the whole message (mode byte, data-set count
  /// against the buffer, no trailing bytes) and throws SerdeError before
  /// any data-set record is read.  The view borrows `b`.
  static ReadRequestView decode_view(const Bytes& b);
};

/// A ReadRequest whose data-set stays in the request buffer.
struct ReadRequestView {
  TxnId root = 0;
  NestingMode mode = NestingMode::kFlat;
  ObjectId object = 0;
  bool for_write = false;
  DataSetView dataset;
};

/// Encode a ReadRequest straight from its fields, with the data-set borrowed
/// rather than copied into a ReadRequest struct first.  This is the hot read
/// path: under QR-CN / QR-CHK every remote read ships the root's full
/// data-set (Rqv), so avoiding the intermediate vector copy matters.
void encode_read_request(Writer& w, TxnId root, NestingMode mode,
                         ObjectId object, bool for_write,
                         const std::vector<DataSetEntry>& dataset);

enum class ReadStatus : std::uint8_t {
  kOk = 0,       // copy attached (version may be 0 if replica never saw it)
  kMissing = 1,  // replica has no copy (stale replica or unknown object)
  kAbort = 2     // Rqv validation failed; abort info attached
};

/// A ReadResponse whose value is borrowed: from the store entry when a
/// replica encodes it, from the reply buffer when a requester parses it.
struct ReadResponseView {
  ReadStatus status = ReadStatus::kMissing;
  Version version = 0;
  std::span<const std::uint8_t> data;
  TxnId abort_scope = 0;
  std::uint32_t abort_depth = 0;
  ChkEpoch abort_chk = 0;
};

/// Encode a read reply from a view, so a replica ships its stored value
/// without copying it into a ReadResponse first.
void encode_read_response(Writer& w, const ReadResponseView& resp);

struct ReadResponse {
  ReadStatus status = ReadStatus::kMissing;
  Version version = 0;
  Bytes data;
  // Abort info (status == kAbort):
  TxnId abort_scope = 0;
  std::uint32_t abort_depth = 0;
  ChkEpoch abort_chk = 0;

  void encode_into(Writer& w) const;
  /// The one parser; the view's value borrows `b`.
  static ReadResponseView decode_view(const Bytes& b);
};

/// One read-set entry validated at commit time.
struct CommitReadEntry {
  ObjectId id = 0;
  Version version = 0;
};

/// Encoded size of one CommitReadEntry record: id, version.
inline constexpr std::size_t kCommitReadEntryBytes = 8 + 8;

/// Reads one read-set record: the decode half of encode_read_entry in
/// wire.cpp.
inline CommitReadEntry decode_read_entry(Reader& r) {
  CommitReadEntry e;
  e.id = r.u64();
  e.version = r.u64();
  return e;
}

/// A commit message's read-set left in place in its buffer.
using ReadSetView =
    RecordView<kCommitReadEntryBytes, CommitReadEntry, decode_read_entry>;

/// One write-set entry, owned (a view of one is a store::WriteView): `base`
/// is the version the writer read through a read quorum; the committed
/// version becomes base+steps (globally fresh by Q1 -- see qr_server.cpp).
/// A per-transaction commit writes one step.  A QR-Q batch collapses each
/// per-object queue into one entry: `steps` counts the speculative writes
/// it absorbed and `data` is the value after the last.
struct CommitWriteEntry {
  ObjectId id = 0;
  Version base = 0;
  Bytes data;
  std::uint32_t steps = 1;
};

struct CommitRequestView;

/// Encode a CommitRequest straight from its sets, with the write values
/// borrowed (from a coordinator's transaction records or QR-Q batch cache)
/// rather than copied into a CommitRequest first.  Byte-identical to
/// CommitRequest::encode_into over the same entries.
void encode_commit_request(Writer& w, TxnId txn,
                           std::span<const CommitReadEntry> readset,
                           std::span<const store::WriteView> writeset);

/// 2PC vote request, for one transaction or one QR-Q batch (`txn` is then
/// the batch id).  `readset` holds objects only read; written objects are
/// validated through their CommitWriteEntry base.
struct CommitRequest {
  TxnId txn = 0;
  std::vector<CommitReadEntry> readset;
  std::vector<CommitWriteEntry> writeset;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  /// decode_view plus a copy of both sets.
  static CommitRequest decode(const Bytes& b);
  /// The one parser: checks the read-set count against the buffer, every
  /// write entry's bounds and the trailing bytes, and throws SerdeError
  /// before the caller reads any entry.  The view borrows `b`.
  static CommitRequestView decode_view(const Bytes& b);
};

/// A CommitRequest whose read-set and write-set stay in the request buffer.
struct CommitRequestView {
  TxnId txn = 0;
  ReadSetView readset;
  store::WriteRun writeset;
};

struct VoteResponseView;

/// Reply to a 2PC vote.  On an abort vote `stale` names every entry that
/// failed validation on this replica, so a QR-Q coordinator invalidates (and
/// re-fetches) only those queues before re-speculating -- the targeted
/// rollback that keeps QR-Q's retry cost near zero under contention.
struct VoteResponse {
  bool commit = false;
  std::vector<ObjectId> stale;

  void encode_into(Writer& w) const;
  /// The one parser: checks the stale count against the buffer and the
  /// trailing bytes before the caller reads an id.  The view borrows `b`.
  static VoteResponseView decode_view(const Bytes& b);
};

/// Reads one stale id: the decode half of encode_stale_id in wire.cpp.
inline ObjectId decode_stale_id(Reader& r) { return r.u64(); }

/// A vote's stale list left in place in the reply buffer (8-byte ids).
using StaleView = RecordView<8, ObjectId, decode_stale_id>;

/// A VoteResponse whose stale list stays in the reply buffer.
struct VoteResponseView {
  bool commit = false;
  StaleView stale;
};

/// One committed copy shipped during recovery catch-up.
struct SyncEntry {
  ObjectId id = 0;
  Version version = 0;
  Bytes data;
};

/// Per-object bound in a SyncPullRequest: "I already hold `id` at `version`".
struct SyncBound {
  ObjectId id = 0;
  Version version = 0;
};

/// Recovery anti-entropy pull.  `have` lists the puller's post-log-replay
/// versions, ids ascending, so the server ships only strictly-newer copies
/// (the version-bounded delta).  An empty `have` requests the full store --
/// what a node that lost its log (empty store after restart) needs.
struct SyncPullRequest {
  std::vector<SyncBound> have;

  void encode_into(Writer& w) const;
  static SyncPullRequest decode(const Bytes& b);
};

/// Reply to a kSyncPull: the serving replica's committed copies that are
/// strictly newer than the requester's bounds (all of them when no bounds
/// were given), ids ascending.  The recovering node installs each entry
/// through ReplicaStore::apply, which keeps only strictly-newer copies, so
/// merging pulls from a whole read quorum is order-independent.  `ok` is
/// false while the *server* is itself still syncing -- a catching-up replica
/// must not seed another one.  `total_objects` is the size of the server's
/// committed store, letting the puller report delta-vs-full metrics.
struct SyncPullResponse {
  bool ok = false;
  std::uint64_t total_objects = 0;
  std::vector<SyncEntry> entries;

  void encode_into(Writer& w) const;
  static SyncPullResponse decode(const Bytes& b);
};

/// What a peer knows about a transaction's 2PC outcome, in answer to a
/// TxnStatusRequest during cooperative termination (DESIGN.md §17).
enum class TxnStatus : std::uint8_t {
  kUnknown = 0,    // no decision record, no prepare: never heard of it (or
                   // already settled and garbage-collected)
  kCommitted = 1,  // applied it, or holds a commit decision / confirm record
  kAborted = 2,    // holds an abort decision
  kPrepared = 3    // voted yes and still holds the prepared protection
};

/// One-way in-doubt query sent by a replica whose prepared protection
/// outlived its lease: "what happened to txn?".  Sent to the coordinator and
/// the write-quorum peers; answered with a TxnStatusResponse notify (both
/// directions are one-way so a dead peer just never answers).
struct TxnStatusRequest {
  TxnId txn = 0;

  void encode_into(Writer& w) const;
  static TxnStatusRequest decode(const Bytes& b);
};

/// One-way answer to a TxnStatusRequest.  `epoch` is the responder's current
/// liveness epoch: the inquirer compares a coordinator's epoch against the
/// epoch it recorded at vote time to distinguish "same incarnation, still
/// deciding" (wait) from "restarted with no decision on disk" (the
/// presumed-abort precondition).
struct TxnStatusResponse {
  TxnId txn = 0;
  TxnStatus status = TxnStatus::kUnknown;
  std::uint32_t epoch = 0;

  void encode_into(Writer& w) const;
  static TxnStatusResponse decode(const Bytes& b);
};

struct CommitConfirmView;

/// Encode a CommitConfirm straight from its write-set views, as
/// encode_commit_request does for the request.
void encode_commit_confirm(Writer& w, TxnId txn, bool commit,
                           std::span<const store::WriteView> writeset);
/// The confirm's bytes before its write run, which encode_commit_confirm
/// writes first.  A replica resolving an in-doubt commit follows them with
/// the run it logged, verbatim.
void encode_commit_confirm_head(Writer& w, TxnId txn, bool commit);

/// One-way confirm broadcast to the write quorum after gathering votes.
struct CommitConfirm {
  TxnId txn = 0;
  bool commit = false;  // false = abort: just unprotect + drop bookkeeping
  std::vector<CommitWriteEntry> writeset;  // applied as version base+steps

  void encode_into(Writer& w) const;
  /// The one parser, checking the whole message like
  /// CommitRequest::decode_view.  The view borrows `b`.
  static CommitConfirmView decode_view(const Bytes& b);
};

/// A CommitConfirm whose write-set stays in the confirm buffer.
struct CommitConfirmView {
  TxnId txn = 0;
  bool commit = false;
  store::WriteRun writeset;
};

}  // namespace qrdtm::core
