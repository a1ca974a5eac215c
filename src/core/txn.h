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
//     runtime unwinds to and retries -- deeper scopes retry without
//     disturbing their parents, and a CT commit is a local merge.
//     Read-only roots and CTs commit with zero messages.
//   * Checkpointing (QR-CHK): the runtime auto-creates a checkpoint each
//     time `chk_threshold` new objects entered the data-set.  An Rqv abort
//     names abortChk, the minimum invalid checkpoint epoch; the runtime
//     restores that checkpoint and *replays* the body: operations before
//     the checkpoint's cursor return their logged results (no messages, no
//     compute charge), which reproduces continuation-resume cost (see
//     DESIGN.md substitution table).
//
// A root and all its scopes keep their read- and write-sets in one flat
// record log (core/txn_log.h): a scope is a mark into it, a CT merge
// re-homes the scope's records, a CT abort truncates them, and a checkpoint
// is a mark plus an undo log.  read() and read_for_write() lend the value
// in place as a span into the object's record (or, during a replay, into
// the op log).  The span stays valid until the same object is next written
// through write() -- which may reallocate the buffer -- or until the scope
// that owns the record aborts or the attempt ends; later reads, CT merges
// and log growth leave it alone.  Copy what must outlive that.
//
// Aborts travel as values, not exceptions.  An abort site records the Abort
// in the root Txn and suspends with a symmetric transfer to the *boundary*:
// the coroutine awaiting the body of the innermost active scope (nested()
// for a CT, run_txn_impl for a root, BatchPlanner::run_batch for a QR-Q
// member).  The boundary finds the abort pending and destroys the body's
// Task, which frees the whole suspended chain below it (only destructors
// run).  A nested() boundary the abort does not name closes its scope and
// forwards the abort with one more transfer, so an abort costs one hop per
// CT scope crossed.  Genuine errors (QuorumUnavailable, SerdeError, failed
// checks) still throw.
#pragma once

#include <concepts>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/abstract_locks.h"
#include "core/failure_detector.h"
#include "core/faultpoint.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "core/txn_log.h"
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
  /// covering a copy of the read/write sets (the paper's
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

/// A borrowed `sim::Task<void>(Txn&)` callable: the body nested() runs.
/// It refers to the caller's closure without copying it, so a closed-nested
/// call allocates nothing whatever the closure captures.  The closure must
/// outlive the call, which holds for the one way nested() is used:
/// `co_await t.nested([&](Txn& ct) -> sim::Task<void> {...})`, where the
/// temporary closure lives until the co_await completes.
class TxnBodyRef {
 public:
  template <class F>
    requires(!std::same_as<std::remove_cvref_t<F>, TxnBodyRef> &&
             std::invocable<F&, Txn&>)
  TxnBodyRef(F&& f)  // NOLINT(google-explicit-constructor): a borrow
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Txn& t) -> sim::Task<void> {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(t);
        }) {}

  sim::Task<void> operator()(Txn& t) const { return call_(obj_, t); }

 private:
  void* obj_;
  sim::Task<void> (*call_)(void*, Txn&);
};

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

/// A value lent by Txn::read / read_for_write (see the lifetime rule above).
using ValueSpan = std::span<const std::uint8_t>;

/// One transaction scope: the root transaction, or a closed-nested scope.
/// Scopes form a parent chain; the data-set of a scope is its own sets plus
/// all ancestors' (paper getDataSet), kept in the root's TxnLog.
class Txn {
 public:
  Txn(TxnRuntime& rt, Txn* parent);
  ~Txn();

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  // ----- user operations -------------------------------------------------

  /// Read an object (checkParent first, then the read quorum).  Lends the
  /// object payload in place; on conflict the body is aborted and never
  /// resumes.
  sim::Task<ValueSpan> read(ObjectId id);

  /// Acquire a writable copy (read-quorum fetch registering the transaction
  /// as a potential writer), lending the current payload in place.  A copy
  /// already in scope is upgraded locally.
  sim::Task<ValueSpan> read_for_write(ObjectId id);

  /// Buffer a new value for an object previously acquired with
  /// read_for_write (or created), copying `data` into the object's record.
  /// `data` may be a span this transaction lent.  Purely local.
  void write(ObjectId id, ValueSpan data);

  /// Create a new object (fresh id, version 0 base) holding a copy of
  /// `data`; it becomes visible to other transactions at commit.  A plain
  /// function cannot unwind: when the step guard trips here it returns
  /// store::kNullObject, later writes are ignored, and the body's next
  /// co_awaited operation unwinds.
  ObjectId create(ValueSpan data);

  /// Charge `cost` of application compute to the transaction (skipped while
  /// fast-forwarding a checkpoint replay).
  sim::Task<void> compute(sim::Tick cost);

  /// Run `body` as a closed-nested transaction under QR-CN; under flat and
  /// checkpointing modes the scope is flattened into this one (paper: flat
  /// nesting ignores inner transactions; QR-CHK transactions are flat with
  /// checkpoints).  `body` is borrowed (see TxnBodyRef): co_await the call
  /// in the expression that makes the closure.
  sim::Task<void> nested(TxnBodyRef body);

  /// Run an open-nested operation (QR-ON): acquire its abstract locks, run
  /// and globally commit its body, and register its compensation with this
  /// root.  Only valid at root depth and outside checkpointing mode (a
  /// replayed partial rollback would re-commit the body).  Aborts the root
  /// on unresolvable lock conflicts (the root retries after compensating
  /// earlier operations).
  sim::Task<void> open_nested(OpenOp op);

  // ----- introspection ---------------------------------------------------

  TxnRuntime& runtime() { return rt_; }
  /// Workload randomness helper (deterministic per node).
  Rng& rng();

  ChkEpoch current_epoch() const { return root_->epoch_; }
  std::uint64_t checkpoints_taken() const { return log_->checkpoints.size(); }

  /// The root's materialised Rqv data-set (what remote reads ship), exposed
  /// for tests asserting its shape (e.g. entry uniqueness after CT merges).
  const std::vector<DataSetEntry>& dataset_entries() const {
    return log_->dataset;
  }

  /// The root's commit sets as the next 2PC request would carry them, ids
  /// ascending, for tests pinning the set semantics.
  void commit_sets(std::vector<CommitReadEntry>* readset,
                   std::vector<store::WriteView>* writeset) const {
    log_->commit_sets(readset, writeset);
  }

 private:
  friend class TxnRuntime;
  friend class BatchPlanner;

  /// QR-CHK replay support: the result of every operation is logged by op
  /// index (TxnLog::op).  When a rollback replays the body, operations below
  /// the checkpoint's cursor return their logged results and mutate nothing
  /// -- the restored records already contain all their effects -- which
  /// reproduces continuation-resume semantics exactly (no double-applied
  /// writes, no divergent reads).
  struct OpToken {
    std::uint64_t idx = 0;
    bool replay = false;   // fast-forwarding below replay_until_
    bool aborted = false;  // an abort is pending: unwind, do nothing
  };

  /// Awaiter that ends the calling coroutine chain: a symmetric transfer to
  /// the innermost active scope's boundary, which destroys the chain.  The
  /// awaiting frame is never resumed.
  struct Unwind {
    std::coroutine_handle<> boundary;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<>) const noexcept {
      return boundary;
    }
    [[noreturn]] void await_resume() const {
      check_failed("false", __FILE__, __LINE__, "aborted frame resumed");
    }
  };

  /// Record the root's pending abort and unwind to the boundary.  Abort
  /// sites pass the fields, not an Abort: GCC 12 relocates a by-value class
  /// argument of a call inside a co_await expression bytewise, which breaks
  /// the reason string's small-buffer pointer.
  [[nodiscard]] Unwind abort(AbortTarget target, TxnId scope_id, ChkEpoch chk,
                             const char* reason);

  /// Unwind to the boundary with the root's pending abort.
  [[nodiscard]] Unwind unwind();

  /// Root-level operation bookkeeping (shared by all scopes of a tree).
  Txn& root() { return *root_; }
  const Txn& root() const { return *root_; }

  /// The full data-set (root..self) for Rqv.  Maintained incrementally on
  /// the root as objects enter the sets, so shipping it with every remote
  /// read is O(1) instead of an O(data-set) rebuild per fetch.
  const std::vector<DataSetEntry>& dataset() const { return log_->dataset; }

  /// Record a set insertion in the root's materialised data-set.
  void dataset_append(ObjectId id, Version version, ChkEpoch chk) {
    log_->dataset.push_back(DataSetEntry{id, version, scope_id_, depth_, chk});
  }

  /// Drop materialised entries appended at or after `len` (scope abort,
  /// checkpoint rollback, full reset).
  void dataset_truncate(std::size_t len) {
    QRDTM_DCHECK(len <= log_->dataset.size());
    log_->dataset.resize(len);
  }

  /// Fetch from the read quorum with Rqv, writing the winning value into
  /// the log's next record (TxnLog::next_value) and returning its version;
  /// the caller appends the record.  A failed fetch (Rqv, unreachable or
  /// incomplete quorum, missing object) aborts here.
  sim::Task<Version> quorum_fetch(ObjectId id, bool for_write);

  /// quorum_fetch with the QR-Q batch cache in front: under kQueued the
  /// root's planner serves repeat touches locally at the speculative head
  /// and admits first touches after their (single) quorum fetch.
  sim::Task<Version> acquire_copy(ObjectId id, bool for_write);

  /// QR-CHK: bump counters after a fetch and create a checkpoint when the
  /// threshold is crossed.
  sim::Task<void> after_fetch_chk();

  /// Count an operation.  Reports the op index, whether it falls inside a
  /// replay fast-forward window, and whether the attempt is aborting (an
  /// abort is pending, or the step guard trips now and records one).
  OpToken begin_op();

  /// Store an operation result in the root's op log (QR-CHK only; the
  /// other modes keep no log and copy nothing).
  void log_op(const OpToken& token, ValueSpan data, ObjectId created);

  void merge_into_parent();
  void reset_full();        // root: discard everything (full abort)
  void rollback_to(ChkEpoch epoch);  // QR-CHK partial rollback

  TxnRuntime& rt_;
  Txn* parent_;
  Txn* root_;
  /// The root's pooled log (pool_, owned_log_), shared by the whole tree.
  std::shared_ptr<TxnLogPool> pool_;
  std::unique_ptr<TxnLog> owned_log_;
  TxnLog* log_;
  TxnId scope_id_;
  std::uint32_t depth_;
  /// The coroutine awaiting this scope's body (its abort boundary).
  std::coroutine_handle<> boundary_;

  /// Log and data-set lengths when this scope opened: its records and
  /// entries start there, and are truncated there if the scope aborts.
  std::size_t record_mark_ = 0;
  std::size_t dataset_mark_ = 0;

  // --- root-only state ---
  /// Innermost scope whose body is running: aborts unwind to its boundary.
  Txn* active_ = this;
  /// The abort the attempt is unwinding with, until a boundary handles it.
  std::optional<Abort> abort_;
  /// QR-Q: set by the BatchPlanner while this root executes as a batch
  /// member; routes acquire_copy through the batch queue cache.
  BatchPlanner* batch_ = nullptr;
  /// QR-ON: compensations for globally-committed open-nested bodies (run in
  /// reverse order if this root aborts) and the abstract locks held.
  std::vector<TxnBody> open_log_;
  std::vector<AbstractLockId> held_locks_;

  std::uint64_t op_seq_ = 0;
  std::uint64_t replay_until_ = 0;  // ops below this index are fast-forwarded
  std::uint64_t ops_this_attempt_ = 0;
  ChkEpoch epoch_ = 0;
  std::uint32_t objs_since_chk_ = 0;
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
  /// Commits locally (no messages) for read-only roots under QR-CN.  A
  /// failed round leaves its abort in `root.abort_`.
  sim::Task<void> commit_root(Txn& root);

  /// 2PC vote phase, shared by per-transaction commits (tag kCommitRequest)
  /// and QR-Q batches (tag kBatchCommitRequest): multicast the request for
  /// `txn` over `round`'s read- and write-set to `round.wq` and gather the
  /// votes, each read in place.  True when every member voted commit;
  /// otherwise `round.stale` holds the sorted, unique ids the replicas
  /// reported stale (empty = no diagnosis, e.g. a dead member or a syncing
  /// replica).
  sim::Task<bool> commit_vote(TxnId txn, CommitScratch& round,
                              net::MsgKind tag);

  /// 2PC confirm phase: park at fp::kCommitBeforeConfirm, durably log the
  /// decision, broadcast the confirm for `txn` over `round.writeset` to
  /// `round.wq` under `tag`, then charge commit_settle.  False, with nothing
  /// sent, when the coordinator crashed before its decision was durable.
  sim::Task<bool> commit_confirm(TxnId txn, bool commit,
                                 const CommitScratch& round, net::MsgKind tag);

  /// QR-ON: after the root commits, release its abstract locks; after a
  /// root abort, run the registered compensations (reverse order, each as
  /// an independent committed transaction) and then release.
  sim::Task<void> finish_open(Txn& root, bool committed);

  /// Acquire one abstract lock at its home with bounded retries.
  sim::Task<void> acquire_abstract_lock(Txn& root, AbstractLockId lock);

  sim::Task<void> backoff(std::uint32_t attempt, TxnId txn);

  /// Append the committed root's observable behaviour to the recorder.
  void record_commit_history(const Txn& root);

  struct CohortQuorum {
    std::uint64_t gen = ~0ULL;
    std::vector<net::NodeId> nodes;
  };
  using QuorumFn = std::vector<net::NodeId> (quorum::QuorumProvider::*)(
      net::NodeId, std::uint32_t) const;
  /// Memoised quorums, keyed on (generation, cohort): providers derive
  /// them deterministically from the live set, so recompute only when the
  /// provider's generation() moves (fail-stop / recovery).  The pointee
  /// stays valid until the next call for the same cohort; commit paths
  /// that span suspension points take a copy.  A zombie coroutine (this
  /// node was killed mid-transaction, so the provider no longer routes
  /// under it) that cannot form the quorum gets nullptr and an
  /// infrastructure abort in `*unformable`; a live requester gets
  /// QuorumUnavailable thrown.
  const std::vector<net::NodeId>* cached_quorum(
      std::vector<CohortQuorum>& cache, std::uint32_t cohort,
      QuorumFn provider_quorum, Abort* unformable);

  /// The read quorum for `id`'s cohort (single-cohort providers: cohort 0,
  /// the exact pre-shard quorum); nullptr as in cached_quorum.
  const std::vector<net::NodeId>* read_quorum(ObjectId id, Abort* unformable);

  /// Sorted union of the write quorums of every cohort touched by `ids`,
  /// as a fresh copy in `*out` (commit paths suspend while awaiting votes).
  /// Counts a cross-shard round when more than one cohort is involved.
  /// False as in cached_quorum.
  bool union_write_quorum(const std::vector<ObjectId>& ids,
                          std::vector<net::NodeId>* out, Abort* unformable);

  net::RpcEndpoint& rpc_;
  quorum::QuorumProvider& quorums_;
  Metrics& metrics_;
  /// Recycled root logs: a warm root allocates no set storage.
  std::shared_ptr<TxnLogPool> logs_;
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

  std::vector<CohortQuorum> rq_cache_, wq_cache_;  // indexed by cohort
};

}  // namespace qrdtm::core
