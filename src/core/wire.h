// QR-family wire messages (read / commit-request / confirm) and their serde.
//
// ReadRequest doubles as the Rqv validation carrier: under QR-CN / QR-CHK it
// ships the requesting transaction's entire data-set (read-set + write-set,
// including every ancestor's) so the replica can validate incrementally
// before serving the object (paper Alg. 1, 2, 4).  Under flat QR the
// data-set is empty and replicas skip validation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serde.h"
#include "core/types.h"
#include "net/message.h"

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

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static ReadRequest decode(const Bytes& b);
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

struct ReadResponse {
  ReadStatus status = ReadStatus::kMissing;
  Version version = 0;
  Bytes data;
  // Abort info (status == kAbort):
  TxnId abort_scope = 0;
  std::uint32_t abort_depth = 0;
  ChkEpoch abort_chk = 0;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static ReadResponse decode(const Bytes& b);
};

/// One read-set entry validated at commit time.
struct CommitReadEntry {
  ObjectId id = 0;
  Version version = 0;
};

/// One write-set entry: `base` is the version the writer read through a read
/// quorum; the committed version becomes base+steps (globally fresh by Q1 --
/// see qr_server.cpp).  A per-transaction commit writes one step.  A QR-Q
/// batch collapses each per-object queue into one entry: `steps` counts the
/// speculative writes it absorbed and `data` is the value after the last.
struct CommitWriteEntry {
  ObjectId id = 0;
  Version base = 0;
  Bytes data;
  std::uint32_t steps = 1;
};

/// 2PC vote request, for one transaction or one QR-Q batch (`txn` is then
/// the batch id).  `readset` holds objects only read; written objects are
/// validated through their CommitWriteEntry base.
struct CommitRequest {
  TxnId txn = 0;
  std::vector<CommitReadEntry> readset;
  std::vector<CommitWriteEntry> writeset;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static CommitRequest decode(const Bytes& b);
};

/// Reply to a 2PC vote.  On an abort vote `stale` names every entry that
/// failed validation on this replica, so a QR-Q coordinator invalidates (and
/// re-fetches) only those queues before re-speculating -- the targeted
/// rollback that keeps QR-Q's retry cost near zero under contention.
struct VoteResponse {
  bool commit = false;
  std::vector<ObjectId> stale;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static VoteResponse decode(const Bytes& b);
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

  Bytes encode() const;
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

  Bytes encode() const;
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

  Bytes encode() const;
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

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static TxnStatusResponse decode(const Bytes& b);
};

/// One-way confirm broadcast to the write quorum after gathering votes.
struct CommitConfirm {
  TxnId txn = 0;
  bool commit = false;  // false = abort: just unprotect + drop bookkeeping
  std::vector<CommitWriteEntry> writeset;  // applied as version base+steps

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static CommitConfirm decode(const Bytes& b);
};

}  // namespace qrdtm::core
