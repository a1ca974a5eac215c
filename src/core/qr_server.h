// QR replica server: the per-node, server-side half of the QR / QR-CN /
// QR-CHK protocols.
//
// All handlers are synchronous local work (validate versions, copy an
// object, vote, apply) -- replicas never block on other nodes, exactly as in
// the paper where the remote side of every operation is a local decision.
//
//   * kRead          -- Rqv validation of the requester's data-set (Alg. 1 /
//     Alg. 4), then serve the local copy (Alg. 2 "Remote").  The paper's
//     PR/PW lists are not kept (DESIGN.md §2: nothing reads them).
//   * kCommitRequest -- 2PC vote: validate read-set versions and write-set
//     bases, check protection, protect the write-set on a commit vote.  An
//     abort vote lists every stale id.
//   * kCommitConfirm -- apply (version base+steps) or roll back the
//     protected write-set.
//   * kBatchCommitRequest / kBatchCommitConfirm -- QR-Q batches: the same
//     messages and the same two handlers, under their own tags so per-kind
//     message counts keep batches apart.  A per-transaction round is a
//     batch round whose write entries all have steps = 1.
//   * kSyncPull      -- recovery catch-up: serve a rejoining replica the
//     committed copies newer than its post-replay bounds
//     (Cluster::recover_node's anti-entropy pull).
//
// Protections carry a coordinator-liveness lease: one held longer than the
// lease means the coordinator died between vote and confirm (a confirm is
// one-way and near-immediate).  Merely-protected entries (no durable
// yes-vote) are still shed lazily on the next conflicting read/vote.
// *Prepared* entries -- the protection backs a WAL prepare -- instead run
// the cooperative termination protocol (DESIGN.md §17): query the
// coordinator and the write-quorum peers with TxnStatusRequest, propagate
// any decision found, and presumed-abort only after a full round of "no
// decision anywhere + coordinator restarted into a newer liveness epoch".
// The check is pure tick arithmetic on the conflict path only -- chaos-free
// runs never shed (the default lease far exceeds any legitimate
// vote->confirm gap) and their event schedule is unchanged.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/faultpoint.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "core/wire.h"
#include "net/rpc.h"
#include "quorum/quorum.h"
#include "sim/task.h"
#include "store/commit_log.h"
#include "store/replica_store.h"

namespace qrdtm::core {

class QrServer {
 public:
  /// Wires the QR services into `rpc`.  The server must outlive the
  /// endpoint's registered handlers (the Cluster owns both).
  explicit QrServer(net::RpcEndpoint& rpc);

  store::ReplicaStore& store() { return store_; }
  const store::ReplicaStore& store() const { return store_; }

  net::NodeId id() const { return id_; }

  /// The per-node durable commit log (the in-sim "disk").  Survives a crash
  /// by construction (crash = wiping the ReplicaStore, never the log).
  store::CommitLog& commit_log() { return log_; }
  const store::CommitLog& commit_log() const { return log_; }

  /// Attach the fault-point registry (nullptr = all points unarmed).
  void set_fault_points(FaultPointRegistry* faults) { faults_ = faults; }

  /// Attach the cluster's quorum provider so the replica knows which
  /// objects it holds (nullptr = full replication, the classic providers).
  /// Under sharded cohorts a commit multicast spans the union of several
  /// cohorts' write quorums, so every recipient filters protect/log/apply
  /// down to the entries it actually replicates.
  void set_quorum_provider(const quorum::QuorumProvider* quorums) {
    quorums_ = quorums;
  }

  /// Attach the cluster-wide metrics sink (nullptr = standalone rig).
  void set_metrics(Metrics* metrics) { metrics_ = metrics; }

  /// Tail-growth bound for the commit log: once the record tail exceeds
  /// this many bytes a checkpoint cut is taken right after the append.
  /// 0 disables the auto-cut (the pre-bound behaviour: the tail grows
  /// without bound until recovery or a chaos-scheduled cut).
  void set_max_tail_bytes(std::size_t bytes) { max_tail_bytes_ = bytes; }
  std::size_t max_tail_bytes() const { return max_tail_bytes_; }

  /// Checkpoint cuts forced by the max_tail_bytes bound on this replica.
  std::uint64_t log_autocuts() const { return log_autocuts_; }

  /// Seed an object at setup time: installs it in the store and records it
  /// in the commit log so a crashed node can replay it.
  void seed_object(ObjectId id, Bytes data, Version version = 1);

  /// Take a checkpoint cut on the commit log: snapshot the store image,
  /// carry in-flight prepares (unless fp::kChkCutCarry is armed kSkip --
  /// the Greengage bug), discard the record tail.
  void cut_checkpoint();

  /// Crash recovery, local half: wipe the store and rebuild it from the
  /// commit log.  Returns the number of apply operations replayed.
  std::size_t replay_commit_log();

  /// Number of Rqv validations this replica failed (test observability).
  std::uint64_t validation_failures() const { return validation_failures_; }

  /// Recovery catch-up state.  While syncing, the replica refuses service
  /// (reads answer kMissing, votes abort, sync pulls answer !ok): its store
  /// may be stale, and Q1 only tolerates stale *excluded* replicas.
  void set_syncing(bool syncing) { syncing_ = syncing; }
  bool syncing() const { return syncing_; }

  /// Coordinator-liveness lease on protections; 0 disables shedding.
  void set_protection_lease(sim::Tick lease) { protection_lease_ = lease; }
  sim::Tick protection_lease() const { return protection_lease_; }

  /// Number of protections shed by the lease (test observability).
  std::uint64_t lease_breaks() const { return lease_breaks_; }

  /// Round-trip budget for one termination round: queries go out, then the
  /// replica waits this long for TxnStatusResponse notifies before
  /// evaluating the presumed-abort rule.  Backoff between rounds draws from
  /// [timeout/2, ...) via core/backoff.h.
  void set_termination_timeout(sim::Tick timeout) {
    termination_timeout_ = timeout;
  }
  sim::Tick termination_timeout() const { return termination_timeout_; }

  /// In-doubt transactions currently running a termination round.
  std::size_t terminations_in_flight() const { return term_.size(); }

  /// Confirms deduplicated by the (txn, epoch) applied-set on this replica.
  std::uint64_t confirm_duplicates() const { return confirm_duplicates_; }

  /// Re-send the confirms of every unsettled decision in the commit log
  /// (Cluster::recover_node calls this after replay: a coordinator that
  /// crashed between decision and broadcast finishes the broadcast in its
  /// new incarnation).  Returns the number of decisions re-driven.
  std::size_t redrive_open_decisions();

  /// Attach a trace recorder; replica-side read/vote instants are tagged
  /// with the requester's span context from the message envelope (nullptr =
  /// tracing off).
  void set_trace_recorder(TraceRecorder* tracer) { tracer_ = tracer; }

  /// Test-only: make this replica vote commit without validating read-set
  /// versions or write protection.  Exists solely to prove the history
  /// checker detects real 1-copy serializability violations (the fuzz
  /// harness's deliberately-broken mode); never set in production paths.
  void set_validation_disabled_for_test(bool disabled) {
    skip_commit_validation_ = disabled;
  }

 private:
  /// Per-prepared-transaction metadata for cooperative termination: who the
  /// coordinator is and what its liveness epoch was when this replica voted
  /// (an epoch bump since then means the coordinator was killed or revived).
  struct PreparedMeta {
    net::NodeId coordinator = 0;
    std::uint32_t coord_epoch = 0;
  };

  /// In-flight termination state for one in-doubt transaction.
  struct Termination {
    net::NodeId coordinator = 0;
    std::uint32_t coord_epoch = 0;  // epoch recorded at vote time
    std::vector<net::NodeId> targets;  // coordinator + union WQ peers, no self
    /// Targets that answered this round without a decision (kUnknown /
    /// kPrepared).  Presumed-abort needs ALL of them to have answered.
    std::set<net::NodeId> round_no_decision;
    /// The coordinator answered without a decision from a NEWER liveness
    /// epoch: it restarted, and its empty decision log proves no confirm
    /// ever left it (decisions are logged before the first confirm).
    bool coord_no_decision_newer = false;
  };

  ReadResponse handle_read(const ReadRequest& req);
  /// 2PC vote for one transaction or one QR-Q batch: validate every read
  /// version and write base, report each stale id, protect + prepare the
  /// write-set on a commit vote.
  VoteResponse handle_commit_request(const CommitRequest& req);
  /// Apply (base + steps) or roll back the protected write-set.
  void handle_commit_confirm(const CommitConfirm& confirm);

  /// Rqv (Alg. 1 + Alg. 4): returns an abort-carrying response when any
  /// data-set entry is invalid on this replica, nullopt when valid.
  std::optional<ReadResponse> validate(const ReadRequest& req);

  /// protected_against with the coordinator-liveness lease applied: an
  /// expired merely-protected entry is shed (counted) and reads as
  /// unprotected; an expired *prepared* entry stays protected and kicks off
  /// a termination round for its transaction.
  bool check_protected(ObjectId id, TxnId txn);

  /// True when a confirm for (txn) was already applied in this liveness
  /// epoch; counts the duplicate when so.
  bool confirm_is_duplicate(TxnId txn);
  /// Record the applied outcome for (txn) in this liveness epoch.
  void record_outcome(TxnId txn, bool commit);

  /// Begin cooperative termination for an in-doubt prepared transaction
  /// (no-op when one is already running or metadata is missing).
  void start_termination(TxnId txn);
  /// The driving coroutine: bounded rounds of query -> wait -> evaluate.
  sim::Task<void> termination_task(TxnId txn);
  /// Answer a peer's status query from the applied-set, the decision log,
  /// and the pending prepares -- via a one-way kTxnStatusResponse notify.
  void handle_txn_status_request(net::NodeId from, const TxnStatusRequest& req);
  /// Fold a peer's answer into the in-flight termination state; an
  /// authoritative decision resolves immediately.
  void handle_txn_status_response(net::NodeId from,
                                  const TxnStatusResponse& resp);
  /// Apply the resolved outcome locally (WAL first), then retransmit the
  /// confirm to the write-quorum peers (at-least-once; they dedupe).
  void resolve_indoubt(TxnId txn, bool commit);

  SyncPullResponse handle_sync_pull(net::NodeId from,
                                    const SyncPullRequest& req) const;

  /// Whether this node replicates `id` (true under full replication).
  bool replicated_here(ObjectId id) const {
    return quorums_ == nullptr || quorums_->replicates(id_, id);
  }

  /// Cut a checkpoint when the record tail outgrew max_tail_bytes_.
  void maybe_autocut();

  /// The node's current liveness epoch, stamped into every log record so
  /// replay can pair prepares with confirms from the same incarnation.
  std::uint32_t liveness_epoch() const;

  /// fire() on the attached registry, kNone when detached.
  FaultAction fault(const char* point);

  net::RpcEndpoint& rpc_;
  net::NodeId id_;
  TraceRecorder* tracer_ = nullptr;
  FaultPointRegistry* faults_ = nullptr;
  const quorum::QuorumProvider* quorums_ = nullptr;
  Metrics* metrics_ = nullptr;
  store::ReplicaStore store_;
  store::CommitLog log_;
  std::size_t max_tail_bytes_ = 0;
  std::uint64_t log_autocuts_ = 0;
  std::uint64_t validation_failures_ = 0;
  std::uint64_t lease_breaks_ = 0;
  sim::Tick protection_lease_ = 0;
  bool syncing_ = false;
  bool skip_commit_validation_ = false;

  // --- cooperative termination state (DESIGN.md §17) ---
  sim::Tick termination_timeout_ = sim::msec(100);
  std::uint64_t confirm_duplicates_ = 0;
  /// Applied 2PC outcomes, keyed txn -> (liveness epoch, commit): the
  /// idempotence set that lets confirms be retransmitted at-least-once.
  /// Rebuilt from the log's confirm records at replay.
  std::unordered_map<TxnId, std::pair<std::uint32_t, bool>> outcomes_;
  /// Prepared (yes-voted, WAL'd) transactions awaiting their confirm.
  std::unordered_map<TxnId, PreparedMeta> prepared_;
  /// In-doubt transactions with a termination round in flight.
  std::unordered_map<TxnId, Termination> term_;
  /// Jitters the between-round backoff; seeded per node so the schedule is
  /// deterministic and distinct across replicas.
  Rng term_rng_{1};
};

}  // namespace qrdtm::core
