// The client's transaction tree as one flat record log per root.
//
// A root transaction and its closed-nested scopes (QR-CN) share one TxnLog.
// Each set membership is one TxnRecord, appended in the order objects enter
// the tree: {id, version, owner scope and depth, owner_chk, read/write
// flags, value}.  A FlatTable index maps an id to its *latest* record,
// which belongs to the innermost scope holding the object, so a lookup is
// one probe instead of a walk over each ancestor's maps.  Only one scope of
// a tree runs at a time and every live record belongs to it or to an
// ancestor, so the latest record is always the visible one.
//
//   * A scope's records are the ones appended since it opened (its mark).
//     A CT merge (commitCT) re-homes them to the parent in place; a CT
//     abort truncates the log to the mark.
//   * A CT that upgrades an ancestor's object appends a copy-on-write
//     record that hides the ancestor's (`shadows`); truncating it brings
//     the ancestor's record, value and membership back.  A read record is
//     only appended when no record of the id exists, so it never hides
//     anything, and an id has at most one read record.
//   * A QR-CHK checkpoint is a mark: the log, data-set and undo-log lengths
//     plus the op cursor.  A pre-checkpoint record is saved to the undo log
//     before its first change in each checkpoint interval, so a rollback
//     undoes those changes and truncates the rest.  The op log keeps every
//     operation's result, so a replay returns exactly the bytes the first
//     execution saw.
//
// Values live in per-record buffers that keep their capacity when records
// are truncated and reused, and TxnLogs are recycled between the roots of
// one TxnRuntime (TxnLogPool), so a warm root allocates nothing.  A value
// span handed out by Txn::read points into a record's buffer: log growth
// moves the Bytes object, never its heap storage.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/flat_table.h"
#include "core/types.h"
#include "core/wire.h"
#include "net/rpc.h"
#include "sim/sync.h"

namespace qrdtm::core {

/// No record: the end of a shadow chain, or an id not in the tree.
inline constexpr std::uint32_t kNoRecord = ~std::uint32_t{0};

/// One set membership of a transaction tree.
struct TxnRecord {
  ObjectId id = 0;
  Version version = 0;  // fetched version; a write-set member's base
  TxnId owner = 0;      // scope holding the membership (QR-CN)
  std::uint32_t owner_depth = 0;
  ChkEpoch owner_chk = 0;  // epoch current at fetch (QR-CHK)
  /// The ancestor's record of the same id this one hides, or kNoRecord.
  std::uint32_t shadows = kNoRecord;
  /// QR-CHK: the epoch whose undo entry already holds this record's state.
  ChkEpoch saved_epoch = 0;
  bool read = false;   // in the owner's read-set
  bool write = false;  // in the owner's write-set
  Bytes value;
};

/// QR-CHK: a checkpoint, as marks into the root's logs.
struct TxnCheckpoint {
  ChkEpoch epoch = 0;
  std::uint64_t op_cursor = 0;  // op_seq at creation (replay fast-forward)
  std::uint32_t objs_since_chk = 0;
  std::size_t dataset_len = 0;  // materialised data-set length at creation
  std::size_t records = 0;      // record-log length at creation
  std::size_t undo = 0;         // undo-log length at creation
};

/// QR-CHK: one operation's result, replayed after a partial rollback.
struct TxnOpResult {
  Bytes data;                             // read / read_for_write result
  ObjectId created = store::kNullObject;  // create() result
};

/// Storage one coordinator reuses across 2PC rounds: the sets it encodes
/// (views into transaction records or the QR-Q batch cache), the touched
/// ids, its copy of the write quorum, the stale ids and the vote futures.
struct CommitScratch {
  std::vector<CommitReadEntry> readset;
  std::vector<store::WriteView> writeset;
  std::vector<ObjectId> touched;
  std::vector<net::NodeId> wq;
  std::vector<ObjectId> stale;  // sorted, unique
  std::vector<sim::Future<net::RpcResult>> gather;
};

class TxnLog {
 public:
  // ----- records ---------------------------------------------------------

  std::size_t size() const { return len_; }
  TxnRecord& at(std::size_t i) { return recs_[i]; }
  const TxnRecord& at(std::size_t i) const { return recs_[i]; }

  /// Index of `id`'s latest record (the innermost scope's), or kNoRecord.
  std::uint32_t latest(ObjectId id) const {
    const std::uint32_t* i = index_.find(id);
    return i != nullptr ? *i : kNoRecord;
  }

  /// The value buffer of the record the next append() creates, so a fetch
  /// writes the value straight into it.  Valid until the next append.
  Bytes& next_value();

  /// Append a record whose value next_value() holds.  It becomes `id`'s
  /// latest record, hiding the previous one.
  TxnRecord& append(ObjectId id, Version version, TxnId owner,
                    std::uint32_t owner_depth, ChkEpoch owner_chk, bool read,
                    bool write);

  /// Drop every record at or after `mark`, newest first, so each id's
  /// latest record is again the one it was when the log had `mark` records.
  void truncate(std::size_t mark);

  /// Give the records at or after `mark` to scope (`owner`, `depth`): a
  /// closed-nested scope's merge into its parent.
  void rehome(std::size_t mark, TxnId owner, std::uint32_t depth);

  /// The root's commit sets, ids ascending: every read record, and the
  /// latest record of every id with a write record (the write value is the
  /// innermost scope's).  Values are borrowed from the records.
  void commit_sets(std::vector<CommitReadEntry>* readset,
                   std::vector<store::WriteView>* writeset) const;

  /// Read-set plus write-set size, the count a QR-CHK checkpoint copies.
  std::size_t set_sizes() const;

  // ----- QR-CHK checkpoints ----------------------------------------------

  std::vector<TxnCheckpoint> checkpoints;

  /// Take checkpoint `epoch` at op cursor `op_cursor`: mark the current
  /// record, undo and data-set lengths.
  void mark_checkpoint(ChkEpoch epoch, std::uint64_t op_cursor);

  /// Record `i` is about to change: save its state for the newest
  /// checkpoint, once per checkpoint interval.  A no-op without a checkpoint
  /// or for a record appended after the newest one.
  void save_for_rollback(std::size_t i);

  /// Return the records to their state at checkpoint `c`: undo entries
  /// newer than it, then truncate to its mark.
  void restore(const TxnCheckpoint& c);

  /// Results of the operations logged so far.
  std::size_t ops() const { return ops_len_; }
  TxnOpResult& op(std::size_t i) { return ops_[i]; }
  /// Append an empty result slot (its buffer is recycled).
  TxnOpResult& push_op();
  /// Keep the first `n` results.
  void truncate_ops(std::size_t n) { ops_len_ = n; }

  // ----- shipped and scratch state -----------------------------------------

  /// Materialised Rqv data-set: one entry per set insertion anywhere in the
  /// scope tree, appended on fetch/create, owner-patched on CT merge, and
  /// truncated on scope abort / checkpoint rollback.  Entry order differs
  /// from a root->self set walk (it is chronological); that is harmless,
  /// replica validation is per-entry and order-independent (qr_server
  /// combines via shallowest-depth / min-epoch).  Object ids are unique:
  /// same-scope upgrades skip the re-append and Txn::merge_into_parent
  /// compacts the duplicate a CT upgrade of an ancestor's object would
  /// otherwise leave (keeping the ancestor's entry -- the shallowest owner
  /// is the scope abortClosed must name).
  std::vector<DataSetEntry> dataset;
  /// The root's 2PC round.
  CommitScratch commit;
  /// A remote read's reply futures.
  std::vector<sim::Future<net::RpcResult>> gather;

  /// Empty the records, logs, checkpoints and data-set, keeping all
  /// capacity (the scratch vectors are reset by each use).
  void clear();

 private:
  std::vector<TxnRecord> recs_;  // [0, len_) live; the rest keep buffers
  std::size_t len_ = 0;
  FlatTable<std::uint32_t> index_;  // id -> latest record

  struct Undo {
    std::uint32_t record = 0;
    ChkEpoch saved_epoch = 0;  // the record's saved_epoch before this entry
    bool read = false;
    bool write = false;
    Bytes value;
  };
  std::vector<Undo> undo_;
  std::size_t undo_len_ = 0;

  std::vector<TxnOpResult> ops_;
  std::size_t ops_len_ = 0;
};

/// Copy `src` into `dst`, reusing dst's capacity.  `src` may alias dst.
void assign_bytes(Bytes& dst, std::span<const std::uint8_t> src);

/// Recycles TxnLogs between the roots of one TxnRuntime.  Each root holds a
/// reference, so a root destroyed after its runtime (a suspended client
/// torn down with the simulator) still has somewhere to return its log.
class TxnLogPool {
 public:
  std::unique_ptr<TxnLog> acquire();
  /// Clear `log` and keep it for the next root.
  void release(std::unique_ptr<TxnLog> log);

 private:
  std::vector<std::unique_ptr<TxnLog>> free_;
};

}  // namespace qrdtm::core
