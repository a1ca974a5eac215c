// Client-side transaction runtime for QR (flat), QR-CN (closed nesting) and
// QR-CHK (checkpointing).
//
// A transaction body is a coroutine `sim::Task<void>(Txn&)`.  The runtime
// re-invokes the body on retry, so bodies must be deterministic given the
// values they read (draw all workload randomness *before* starting the
// transaction and capture it).
//
//   * Flat (QR): reads fetch through the read quorum with no validation;
//     conflicts surface at the 2PC commit against the write quorum, and any
//     abort restarts the whole body.
//   * Closed nesting (QR-CN): `Txn::nested(body)` opens a closed-nested
//     scope.  Every remote read carries the full data-set for Rqv; an abort
//     reply names the shallowest invalid scope (abortClosed), which the
//     runtime unwinds to by exception and retries -- deeper scopes retry
//     without disturbing their parents, and a CT commit is a local merge.
//     Read-only roots and CTs commit with zero messages.
//   * Checkpointing (QR-CHK): the runtime auto-creates a checkpoint each
//     time `chk_threshold` new objects entered the data-set.  An Rqv abort
//     names abortChk, the minimum invalid checkpoint epoch; the runtime
//     restores that snapshot and *replays* the body: operations before the
//     checkpoint's cursor are served from the snapshot (no messages, no
//     compute charge), which reproduces continuation-resume cost (see
//     DESIGN.md substitution table).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/abstract_locks.h"
#include "core/failure_detector.h"
#include "core/faultpoint.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "core/types.h"
#include "core/wire.h"
#include "net/rpc.h"
#include "quorum/quorum.h"
#include "sim/task.h"

namespace qrdtm::store {
class CommitLog;
}  // namespace qrdtm::store

namespace qrdtm::core {

class HistoryRecorder;

struct RuntimeConfig {
  NestingMode mode = NestingMode::kFlat;
  sim::Tick rpc_timeout = sim::msec(500);
  /// Randomised exponential backoff applied on full (root) aborts.
  sim::Tick backoff_base = sim::msec(1);
  sim::Tick backoff_cap = sim::msec(32);
  /// Pause before retrying an aborted closed-nested scope.  A conflicting
  /// committer holds its write-set protected for roughly one commit round
  /// trip; retrying sooner just burns read rounds against its protection.
  sim::Tick ct_retry_backoff = sim::msec(15);
  /// QR-CN: let read-only root transactions commit locally (zero messages),
  /// the Rqv guarantee of paper §III-A.  Off = validate via 2PC like flat;
  /// bench/ablation_readonly_commit isolates this optimisation's share of
  /// QR-CN's gains at read-heavy workloads.
  bool cn_local_readonly_commit = true;
  /// One-way confirm-propagation time charged to the committing client
  /// (paper §V: "commit confirm cost is equal to its distance from [the]
  /// write quorum").  Without it a client's next transaction races its own
  /// in-flight confirms and self-aborts.  Cluster derives the default from
  /// the link latency.
  sim::Tick commit_settle = 0;
  /// QR-CHK: objects added to the data-set between automatic checkpoints.
  std::uint32_t chk_threshold = 1;
  /// QR-CHK checkpoint-creation cost: fixed part plus a per-object part
  /// covering the snapshot copy of the read/write sets (the paper's
  /// implementation captures a Java Continuation *and* a transaction copy
  /// per checkpoint, so creation cost grows with the data-set).  The
  /// defaults are calibrated so a conflict-free run shows the paper's ~6 %
  /// creation overhead (bench/micro_overheads.cpp).
  /// Calibration (see EXPERIMENTS.md): with 500 us/object, a Bank-sized
  /// transaction (~6 objects) pays ~5 % creation overhead -- the paper's
  /// independently-measured "only 6 % overhead" -- while long transactions
  /// (SList, ~40 objects) pay quadratically more, reproducing the paper's
  /// "fine granularity of checkpoints" penalty.
  sim::Tick chk_create_cost = sim::usec(200);
  sim::Tick chk_create_cost_per_obj = sim::usec(500);
  /// QR-CHK: cost of restoring a checkpoint (continuation + transaction
  /// copy) on partial rollback.  The paper's implementation restores Java
  /// Continuation objects plus a transaction deep-copy on a patched
  /// research JVM (MLVM); 200 ms is calibrated so QR-CHK lands in the
  /// paper's reported band (~16 % below flat nesting).
  /// bench/ablation_chk_costs sweeps both knobs to show the crossover.
  sim::Tick chk_restore_cost = sim::msec(200);
  /// Zombie-execution guard: a single attempt performing more operations
  /// than this aborts (flat QR can read inconsistent snapshots and chase
  /// stale pointers; see DESIGN.md).
  std::uint32_t max_ops_per_attempt = 100000;
  /// QR-ON: abstract-lock acquisition attempts before the root aborts (and
  /// compensates) to break potential cross-root lock-order cycles.
  std::uint32_t max_lock_attempts = 8;
  /// QR-Q (kQueued): batch formation window -- how long the planner waits
  /// after the first enqueue for concurrent submitters on the node to join
  /// the batch.  Roughly one quorum round trip amortizes best: the batch
  /// saves more fetches than the wait costs.
  sim::Tick batch_window = sim::msec(10);
  /// QR-Q: transactions per batch cap (bounds speculative state and the
  /// blast radius of one rollback).
  std::uint32_t batch_max_txns = 32;
  /// Commit-log tail bound, in bytes: a replica whose record tail outgrows
  /// this takes a checkpoint cut right after the append (amortised O(1):
  /// each cut folds the tail into the image).  Without it the tail grows
  /// without bound in a healthy long run -- nothing cuts between
  /// recoveries and chaos-scheduled cuts.  0 disables the auto-cut.
  std::size_t log_max_tail_bytes = std::size_t{1} << 20;
};

class BatchPlanner;
class Txn;
class TxnRuntime;

// Constructed once per transaction attempt (not per event/message), so the
// possible one-time allocation is outside the per-event hot path.
// qrdtm-lint: allow(hot-std-function)
using TxnBody = std::function<sim::Task<void>(Txn&)>;

/// One open-nested operation (QR-ON, an extension beyond the paper
/// following TFA-ON's model -- see DESIGN.md §6).  The body runs as an
/// independent transaction and commits *globally* before the enclosing
/// root does; `locks` name the semantic entities it touches (held by the
/// root until it finishes), and `compensation` undoes the body's effect if
/// the root later aborts.
struct OpenOp {
  std::vector<AbstractLockId> locks;
  TxnBody body;
  TxnBody compensation;  // may be empty for read-only operations
};

/// A transaction-local object entry (member of a read- or write-set).
struct OwnedCopy {
  ObjectCopy copy;       // id, version (write-set: base version), data
  TxnId owner = 0;       // scope that fetched it (QR-CN)
  std::uint32_t owner_depth = 0;
  ChkEpoch owner_chk = 0;  // epoch current at fetch (QR-CHK)
};

/// One transaction scope: the root transaction, or a closed-nested scope.
/// Scopes form a parent chain; the data-set of a scope is its own sets plus
/// all ancestors' (paper getDataSet).
class Txn {
 public:
  Txn(TxnRuntime& rt, Txn* parent);

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  // ----- user operations -------------------------------------------------

  /// Read an object (checkParent first, then the read quorum).  Returns the
  /// object payload.  Throws AbortException on conflict.
  sim::Task<Bytes> read(ObjectId id);

  /// Acquire a writable copy (read-quorum fetch registering the transaction
  /// as a potential writer), returning the current payload.  A copy already
  /// in scope is upgraded locally.
  sim::Task<Bytes> read_for_write(ObjectId id);

  /// Buffer a new value for an object previously acquired with
  /// read_for_write (or created).  Purely local.
  void write(ObjectId id, Bytes data);

  /// Create a new object (fresh id, version 0 base); becomes visible to
  /// other transactions at commit.
  ObjectId create(Bytes data);

  /// Charge `cost` of application compute to the transaction (skipped while
  /// fast-forwarding a checkpoint replay).
  sim::Task<void> compute(sim::Tick cost);

  /// Run `body` as a closed-nested transaction under QR-CN; under flat and
  /// checkpointing modes the scope is flattened into this one (paper: flat
  /// nesting ignores inner transactions; QR-CHK transactions are flat with
  /// checkpoints).
  sim::Task<void> nested(TxnBody body);

  /// Run an open-nested operation (QR-ON): acquire its abstract locks, run
  /// and globally commit its body, and register its compensation with this
  /// root.  Only valid at root depth and outside checkpointing mode (a
  /// replayed partial rollback would re-commit the body).  Throws
  /// AbortException on unresolvable lock conflicts (the root retries after
  /// compensating earlier operations).
  sim::Task<void> open_nested(OpenOp op);

  // ----- introspection ---------------------------------------------------

  TxnId scope_id() const { return scope_id_; }
  std::uint32_t depth() const { return depth_; }
  bool is_root() const { return parent_ == nullptr; }
  TxnRuntime& runtime() { return rt_; }
  /// Workload randomness helper (deterministic per node).
  Rng& rng();

  std::size_t readset_size() const { return readset_.size(); }
  std::size_t writeset_size() const { return writeset_.size(); }
  ChkEpoch current_epoch() const { return epoch_; }
  std::uint64_t checkpoints_taken() const { return checkpoints_.size(); }

  /// The root's materialised Rqv data-set (what remote reads ship), exposed
  /// for tests asserting its shape (e.g. entry uniqueness after CT merges).
  const std::vector<DataSetEntry>& dataset_entries() const {
    return root().dataset_cache_;
  }

 private:
  friend class TxnRuntime;
  friend class BatchPlanner;

  struct Snapshot {
    ChkEpoch epoch = 0;
    std::uint64_t op_cursor = 0;  // op_seq at creation (replay fast-forward)
    std::uint32_t objs_since_chk = 0;
    std::size_t dataset_len = 0;  // materialised data-set length at creation
    std::unordered_map<ObjectId, OwnedCopy> readset;
    std::unordered_map<ObjectId, OwnedCopy> writeset;
  };

  /// QR-CHK replay support: the result of every operation is logged by op
  /// index.  When a rollback replays the body, operations below the
  /// checkpoint's cursor return their logged results and mutate nothing --
  /// the snapshot already contains all their effects -- which reproduces
  /// continuation-resume semantics exactly (no double-applied writes, no
  /// divergent reads).
  struct OpRecord {
    Bytes data;                             // read / read_for_write result
    ObjectId created = store::kNullObject;  // create() result
  };

  struct OpToken {
    std::uint64_t idx = 0;
    bool replay = false;  // fast-forwarding below replay_until_
  };

  /// Root-level operation bookkeeping (shared by all scopes of a tree).
  Txn& root();
  const Txn& root() const;

  /// Look up an object in this scope and its ancestors.  Returns nullptr if
  /// absent; `from_writeset` reports which set matched.
  const OwnedCopy* find_local(ObjectId id, bool* from_writeset) const;

  /// The full data-set (root..self) for Rqv.  Maintained incrementally on
  /// the root as objects enter the sets, so shipping it with every remote
  /// read is O(1) instead of an O(data-set) rebuild per fetch.
  const std::vector<DataSetEntry>& dataset() const {
    return root().dataset_cache_;
  }

  /// Record a set insertion in the root's materialised data-set.
  void dataset_append(ObjectId id, Version version, ChkEpoch chk) {
    root().dataset_cache_.push_back(
        DataSetEntry{id, version, scope_id_, depth_, chk});
  }

  /// Drop materialised entries appended at or after `len` (scope abort,
  /// checkpoint rollback, full reset).
  void dataset_truncate(std::size_t len) {
    Txn& r = root();
    QRDTM_DCHECK(len <= r.dataset_cache_.size());
    r.dataset_cache_.resize(len);
  }

  /// Fetch from the read quorum with Rqv; inserts into this scope's set.
  sim::Task<ObjectCopy> quorum_fetch(ObjectId id, bool for_write);

  /// quorum_fetch with the QR-Q batch cache in front: under kQueued the
  /// root's planner serves repeat touches locally at the speculative head
  /// and admits first touches after their (single) quorum fetch.
  sim::Task<ObjectCopy> acquire_copy(ObjectId id, bool for_write);

  /// QR-CHK: bump counters after a fetch and create a checkpoint when the
  /// threshold is crossed.
  sim::Task<void> after_fetch_chk();

  /// Count an operation; throws when the step guard trips.  Reports the op
  /// index and whether it falls inside a replay fast-forward window.
  OpToken begin_op();

  /// True while re-executing code between fast-forwarded operations; such
  /// code's writes were already captured by the restored snapshot.
  bool in_fast_forward() const;

  /// Store an operation result in the root's op log (QR-CHK only).
  void log_op(const OpToken& token, Bytes data, ObjectId created);

  void merge_into_parent();
  void reset_scope();       // discard this scope's sets (CT retry)
  void reset_full();        // root: discard everything (full abort)
  void rollback_to(ChkEpoch epoch);  // QR-CHK partial rollback

  TxnRuntime& rt_;
  Txn* parent_;
  TxnId scope_id_;
  std::uint32_t depth_;

  std::unordered_map<ObjectId, OwnedCopy> readset_;
  std::unordered_map<ObjectId, OwnedCopy> writeset_;

  /// Index into the root's dataset_cache_ at which this scope's entries
  /// start; everything at or beyond it is truncated if this scope aborts.
  std::size_t dataset_mark_ = 0;

  // --- root-only state ---
  /// QR-Q: set by the BatchPlanner while this root executes as a batch
  /// member; routes acquire_copy through the batch queue cache.
  BatchPlanner* batch_ = nullptr;
  /// Materialised Rqv data-set: one entry per set insertion anywhere in the
  /// scope tree, appended on fetch/create, owner-patched on CT merge, and
  /// truncated on scope abort / checkpoint rollback.  Entry order differs
  /// from a root->self set walk (it is chronological); that is harmless,
  /// replica validation is per-entry and order-independent (qr_server
  /// combines via shallowest-depth / min-epoch).  Object ids are unique:
  /// same-scope upgrades skip the re-append and merge_into_parent compacts
  /// the duplicate a CT upgrade of an ancestor's object would otherwise
  /// leave (keeping the ancestor's entry -- the shallowest owner is the
  /// scope abortClosed must name).
  std::vector<DataSetEntry> dataset_cache_;
  /// QR-ON: compensations for globally-committed open-nested bodies (run in
  /// reverse order if this root aborts) and the abstract locks held.
  std::vector<TxnBody> open_log_;
  std::vector<AbstractLockId> held_locks_;

  std::uint64_t op_seq_ = 0;
  std::uint64_t replay_until_ = 0;  // ops below this index are fast-forwarded
  std::uint64_t ops_this_attempt_ = 0;
  ChkEpoch epoch_ = 0;
  std::uint32_t objs_since_chk_ = 0;
  std::vector<Snapshot> checkpoints_;
  std::vector<OpRecord> op_log_;
};

/// Per-node client runtime: runs complete transactions with retry, 2PC
/// commit, and the mode-specific partial-abort handling.
class TxnRuntime {
 public:
  /// `local_log` is the co-located replica's commit log: 2PC decisions are
  /// made durable there before any confirm leaves this node (DESIGN.md §17).
  TxnRuntime(net::RpcEndpoint& rpc, quorum::QuorumProvider& quorums,
             Metrics& metrics, RuntimeConfig config, std::uint64_t seed,
             store::CommitLog& local_log);
  ~TxnRuntime();

  /// Execute `body` as one root transaction, retrying until it commits.
  /// Under kQueued the body is enqueued with this node's batch planner and
  /// commits as part of a speculative batch.
  sim::Task<void> run_transaction(TxnBody body);

  /// Execute and give up after `max_attempts` full aborts (0 = unlimited).
  /// Returns true on commit.
  sim::Task<bool> run_transaction_bounded(TxnBody body,
                                          std::uint32_t max_attempts) {
    return run_txn_impl(std::move(body), max_attempts,
                        /*count_commit=*/true);
  }

  /// Attach a timeout-based failure detector; every quorum RPC outcome is
  /// reported to it (nullptr = detection off).
  void set_failure_detector(FailureDetector* fd) { failure_detector_ = fd; }

  /// Attach a history recorder capturing every root commit's read/write
  /// versions plus abort and rollback events (nullptr = recording off).
  void set_history_recorder(HistoryRecorder* rec) { recorder_ = rec; }
  HistoryRecorder* history_recorder() { return recorder_; }

  /// Attach a trace recorder capturing structured spans (root transactions,
  /// attempts, CT scopes, checkpoints, quorum fetches, 2PC rounds) stamped
  /// with simulator ticks.  nullptr = tracing off: every site is a single
  /// pointer test and the simulated schedule is bit-identical.
  void set_trace_recorder(TraceRecorder* tracer) { tracer_ = tracer; }
  TraceRecorder* trace_recorder() { return tracer_; }

  /// Attach the fault-point registry so tests can steer the coordinator
  /// (e.g. suspend between gathering votes and sending the confirm --
  /// fp::kCommitBeforeConfirm).  nullptr = all points unarmed; the site is
  /// a pointer test plus one branch, so goldens are unaffected.
  void set_fault_points(FaultPointRegistry* faults) { faults_ = faults; }
  FaultPointRegistry* fault_points() { return faults_; }

  /// Always-on latency histograms for this node's client (commit latency,
  /// read RTT, backoff waits, abort-to-retry gaps).  Pure arithmetic on
  /// values the runtime already computes, so it cannot perturb the
  /// simulation.
  const LatencyMetrics& latency() const { return latency_; }

  const RuntimeConfig& config() const { return config_; }
  net::NodeId node() const { return rpc_.id(); }
  Metrics& metrics() { return metrics_; }
  Rng& rng() { return rng_; }
  sim::Simulator& simulator() { return rpc_.simulator(); }

  /// Allocate a globally unique object id (node-prefixed, no coordination).
  ObjectId allocate_object_id();

  /// QR-Q batch planner (nullptr unless config.mode == kQueued).
  BatchPlanner* planner() { return planner_.get(); }

 private:
  friend class Txn;
  friend class BatchPlanner;

  TxnId next_scope_id() { return next_scope_id_++; }

  /// Shared driver behind run_transaction{,_bounded} and the QR-ON side
  /// transactions (open bodies / compensations, which must not inflate the
  /// root-commit count).
  sim::Task<bool> run_txn_impl(TxnBody body, std::uint32_t max_attempts,
                               bool count_commit);

  void report_rpc_outcome(net::NodeId member, bool ok) {
    if (failure_detector_ == nullptr) return;
    if (ok) {
      failure_detector_->report_success(member);
    } else {
      failure_detector_->report_timeout(member);
    }
  }

  /// Two-phase commit of the root scope against the write quorum: the vote
  /// and confirm phases below, the confirm sent even for a read-only round.
  /// Commits locally (no messages) for read-only roots under QR-CN.
  sim::Task<void> commit_root(Txn& root);

  /// 2PC vote phase, shared by per-transaction commits (tag kCommitRequest)
  /// and QR-Q batches (tag kBatchCommitRequest): multicast `req` to `wq` and
  /// gather the votes.  True when every member voted commit; otherwise
  /// `stale` holds the sorted, unique ids the replicas reported stale
  /// (empty = no diagnosis, e.g. a dead member or a syncing replica).
  sim::Task<bool> commit_vote(const CommitRequest& req,
                              const std::vector<net::NodeId>& wq,
                              net::MsgKind tag, std::vector<ObjectId>* stale);

  /// 2PC confirm phase: park at fp::kCommitBeforeConfirm, durably log the
  /// decision, broadcast the confirm for `txn` to `wq` under `tag`, then
  /// charge commit_settle.  False, with nothing sent, when the coordinator
  /// crashed before its decision was durable.
  sim::Task<bool> commit_confirm(TxnId txn, bool commit,
                                 std::vector<CommitWriteEntry> writeset,
                                 const std::vector<net::NodeId>& wq,
                                 net::MsgKind tag);

  /// QR-ON: after the root commits, release its abstract locks; after a
  /// root abort, run the registered compensations (reverse order, each as
  /// an independent committed transaction) and then release.
  sim::Task<void> finish_open(Txn& root, bool committed);

  /// Acquire one abstract lock at its home with bounded retries.
  sim::Task<void> acquire_abstract_lock(Txn& root, AbstractLockId lock);

  sim::Task<void> backoff(std::uint32_t attempt, TxnId txn);

  /// Append the committed root's observable behaviour to the recorder.
  void record_commit_history(const Txn& root);

  /// Memoised quorums, keyed on (generation, cohort): providers derive
  /// them deterministically from the live set, so recompute only when the
  /// provider's generation() moves (fail-stop / recovery).  The reference
  /// stays valid until the next call for the same cohort; commit paths
  /// that span suspension points take a copy.
  const std::vector<net::NodeId>& cohort_read_quorum(std::uint32_t cohort);
  const std::vector<net::NodeId>& cohort_write_quorum(std::uint32_t cohort);

  /// The read quorum for `id`'s cohort (single-cohort providers: cohort 0,
  /// the exact pre-shard quorum).
  const std::vector<net::NodeId>& read_quorum(ObjectId id);

  /// Sorted union of the write quorums of every cohort touched by `ids`.
  /// Returns a fresh copy (commit paths suspend while awaiting votes) and
  /// counts a cross-shard round when more than one cohort is involved.
  std::vector<net::NodeId> union_write_quorum(const std::vector<ObjectId>& ids);

  net::RpcEndpoint& rpc_;
  quorum::QuorumProvider& quorums_;
  Metrics& metrics_;
  std::unique_ptr<BatchPlanner> planner_;  // kQueued only
  store::CommitLog& local_log_;  // co-located replica's WAL
  FailureDetector* failure_detector_ = nullptr;
  HistoryRecorder* recorder_ = nullptr;
  TraceRecorder* tracer_ = nullptr;
  FaultPointRegistry* faults_ = nullptr;
  LatencyMetrics latency_;
  RuntimeConfig config_;
  Rng rng_;
  TxnId next_scope_id_;
  std::uint64_t next_object_seq_ = 1;

  struct CohortQuorum {
    std::uint64_t gen = ~0ULL;
    std::vector<net::NodeId> nodes;
  };
  std::vector<CohortQuorum> rq_cache_, wq_cache_;  // indexed by cohort
};

}  // namespace qrdtm::core
