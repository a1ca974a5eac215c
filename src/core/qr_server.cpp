#include "core/qr_server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/backoff.h"

namespace qrdtm::core {

namespace {

/// The node that coordinates `txn`.  Transaction/batch ids are drawn from
/// TxnRuntime's scope counter, seeded (node + 1) << 40, so the upper bits
/// name the issuing node.  Returns num_nodes (an invalid id) for ids outside
/// the scheme (e.g. standalone-rig hand-rolled txn ids).
net::NodeId coordinator_of(TxnId txn, std::uint32_t num_nodes) {
  const TxnId hi = txn >> 40;
  if (hi == 0 || hi > num_nodes) return num_nodes;
  return static_cast<net::NodeId>(hi - 1);
}

/// Round-trip budget for one termination round: queries go out, then the
/// replica waits this long for TxnStatusResponse notifies before evaluating
/// the presumed-abort rule.  Backoff between rounds draws from
/// [timeout/2, ...) via core/backoff.h.
constexpr sim::Tick kTerminationTimeout = sim::msec(100);

}  // namespace

QrServer::QrServer(net::RpcEndpoint& rpc, Metrics& metrics,
                   std::shared_ptr<store::RunShelf> shelf)
    : rpc_(rpc),
      id_(rpc.id()),
      metrics_(metrics),
      log_(shelf != nullptr ? store::CommitLog(std::move(shelf))
                            : store::CommitLog()) {
  // Distinct deterministic jitter stream per replica for the termination
  // backoff (independent of the workload's Rng draws).
  term_rng_ = Rng(0x7e39a1c5u + static_cast<std::uint64_t>(id_) * 0x9e37u);
  // Replies are encoded into pooled buffers, a read is validated in place
  // in its request buffer and answered straight from the store entry, and
  // a vote or confirm reads its sets in place and logs the write-set as its
  // bytes, shared with the other voters' logs: in steady state a replica serves reads, votes and
  // confirms without touching the allocator.
  rpc.register_service(msg::kRead,
                       [this](net::NodeId, const Bytes& b) -> std::optional<Bytes> {
                         const ReadResponseView resp =
                             handle_read(ReadRequest::decode_view(b));
                         if (tracer_ != nullptr) {
                           tracer_->instant(TraceKind::kServerRead, id_,
                                            rpc_.inbound_trace(),
                                            rpc_.simulator().now(),
                                            static_cast<std::uint64_t>(resp.status));
                         }
                         Writer w(rpc_.acquire_buffer(msg::kRead));
                         encode_read_response(w, resp);
                         return std::move(w).take();
                       });
  // Per-transaction commits and QR-Q batches share one 2PC handler pair;
  // each tag replies through its own buffer-size hint.
  const auto vote_service = [this](net::MsgKind kind) {
    return [this, kind](net::NodeId, const Bytes& b) -> std::optional<Bytes> {
      const VoteResponse& vote =
          handle_commit_request(CommitRequest::decode_view(b));
      if (tracer_ != nullptr) {
        tracer_->instant(TraceKind::kServerVote, id_, rpc_.inbound_trace(),
                         rpc_.simulator().now(), vote.commit ? 1 : 0);
      }
      Writer w(rpc_.acquire_buffer(kind));
      vote.encode_into(w);
      return std::move(w).take();
    };
  };
  const auto confirm_service =
      [this](net::NodeId, const Bytes& b) -> std::optional<Bytes> {
    handle_commit_confirm(CommitConfirm::decode_view(b));
    return std::nullopt;  // one-way
  };
  rpc.register_service(msg::kCommitRequest, vote_service(msg::kCommitRequest));
  rpc.register_service(msg::kBatchCommitRequest,
                       vote_service(msg::kBatchCommitRequest));
  rpc.register_service(msg::kCommitConfirm, confirm_service);
  rpc.register_service(msg::kBatchCommitConfirm, confirm_service);
  rpc.register_service(
      msg::kSyncPull,
      [this](net::NodeId from, const Bytes& b) -> std::optional<Bytes> {
        SyncPullResponse resp =
            handle_sync_pull(from, SyncPullRequest::decode(b));
        Writer w(rpc_.acquire_buffer(msg::kSyncPull));
        resp.encode_into(w);
        return std::move(w).take();
      });
  // Cooperative termination: both directions are one-way notifies, so a
  // dead coordinator or peer simply never answers (no RPC timeout to tune).
  rpc.register_service(
      msg::kTxnStatusRequest,
      [this](net::NodeId from, const Bytes& b) -> std::optional<Bytes> {
        handle_txn_status_request(from, TxnStatusRequest::decode(b));
        return std::nullopt;  // answered with a kTxnStatusResponse notify
      });
  rpc.register_service(
      msg::kTxnStatusResponse,
      [this](net::NodeId from, const Bytes& b) -> std::optional<Bytes> {
        handle_txn_status_response(from, TxnStatusResponse::decode(b));
        return std::nullopt;  // one-way
      });
}

std::uint32_t QrServer::liveness_epoch() const {
  return rpc_.network().epoch(id_);
}

FaultAction QrServer::fault(fp::Point point) {
  return faults_ ? faults_->fire(point, id_) : FaultAction::kNone;
}

void QrServer::seed_object(ObjectId id, Bytes data, Version version) {
  log_.append_apply(id, version, data, liveness_epoch());
  store_.seed(id, std::move(data), version);
}

void QrServer::cut_checkpoint() {
  // fp::kChkCutCarry armed kSkip models the Greengage checkpoint_dtx_info
  // bug: the cut forgets prepared-but-unconfirmed transactions, so a
  // post-cut confirm resolves against nothing and its writes are lost.
  const bool carry = fault(fp::kChkCutCarry) != FaultAction::kSkip;
  log_.cut(store_, liveness_epoch(), carry);
  // The outcomes grow here, back to half full, rather than inside a 2PC
  // round (the table is built with late growth).
  outcomes_.reserve(outcomes_.size());
}

std::size_t QrServer::replay_commit_log() {
  store_.clear_all();
  // A restart forgets the volatile termination bookkeeping (protections are
  // gone with the store) but rebuilds the confirm applied-set from the log,
  // so re-driven confirms for outcomes this node already applied in a past
  // incarnation stay idempotent at the WAL level (replay pairs them).
  prepared_.clear();
  term_.clear();
  outcomes_.clear();
  return log_.replay_into(store_, &outcomes_);
}

void QrServer::maybe_autocut() {
  if (max_tail_bytes_ == 0) return;
  if (log_.tail_bytes() < max_tail_bytes_) return;
  cut_checkpoint();
  ++metrics_.log_autocuts;
  ++metrics_.checkpoint_cuts;
}

SyncPullResponse QrServer::handle_sync_pull(
    net::NodeId from, const SyncPullRequest& req) const {
  SyncPullResponse resp;
  // A replica that is itself catching up must not seed another one: its
  // store can be stale and the puller counts this reply toward a full read
  // quorum (the Q1 freshness argument needs every counted member current).
  resp.ok = !syncing_;
  if (!resp.ok) return resp;
  resp.total_objects = store_.num_objects();
  // req.have: the puller's post-replay bounds, ids ascending (none = full
  // pull).  Only strictly-newer copies ship: an object the puller already
  // holds at an equal version is pure wasted transfer.
  resp.entries.reserve(store_.num_objects());
  // Order fixed by the sort below.
  for (const auto& [id, e] : store_.entries()) {
    // Under sharded cohorts only ship what the puller replicates: seeding a
    // node with foreign-cohort objects would silently grow it back into a
    // full replica (and bloat the transfer the delta bound exists to trim).
    if (quorums_ != nullptr && !quorums_->replicates(from, id)) continue;
    const auto it = std::lower_bound(
        req.have.begin(), req.have.end(), id,
        [](const SyncBound& s, ObjectId v) { return s.id < v; });
    const Version bound =
        (it != req.have.end() && it->id == id) ? it->version : 0;
    if (e.version > bound) {
      resp.entries.push_back(SyncEntry{.id = id, .version = e.version,
                                       .data = e.data});
    }
  }
  std::sort(resp.entries.begin(), resp.entries.end(),
            [](const SyncEntry& a, const SyncEntry& b) { return a.id < b.id; });
  return resp;
}

bool QrServer::check_protected(ObjectId id, TxnId txn) {
  if (!store_.protected_against(id, txn)) return false;
  if (protection_lease_ > 0) {
    const sim::Tick now = rpc_.simulator().now();
    if (store_.expire_protection(id, now, protection_lease_)) {
      // The protector's confirm is overdue by the whole lease and the vote
      // was never made durable here: shedding cannot lose an acknowledged
      // commit, so free the object for later writers.
      ++metrics_.lease_breaks;
      return false;
    }
    // A *prepared* protection (durable yes-vote) may back an acknowledged
    // commit whose coordinator died mid-broadcast.  It must not be shed on
    // a timer; kick off the cooperative termination protocol instead and
    // keep reporting the object as protected until a decision is found.
    if (store_.prepared(id) &&
        store_.lease_expired(id, now, protection_lease_)) {
      if (const store::ReplicaEntry* e = store_.find(id)) {
        start_termination(e->protector);
      }
    }
  }
  return true;
}

bool QrServer::stale_or_protected(ObjectId id, Version seen, TxnId txn) {
  const store::ReplicaEntry* local = store_.find(id);
  if (local == nullptr) return false;  // never seen: version 0, unprotected
  if (seen < local->version) return true;
  // Unprotected or self-protected entries skip check_protected, which
  // would answer false for them without side effects.
  return local->is_protected && check_protected(id, txn);
}

std::optional<ReadResponseView> QrServer::validate(const ReadRequestView& req) {
  // No Rqv under flat QR; QR-Q also ships no data-set (batch-cache reads are
  // validated wholesale at the batch vote).
  if (req.mode == NestingMode::kFlat || req.mode == NestingMode::kQueued) {
    return std::nullopt;
  }

  // Closed nesting: the shallowest invalid owner must abort (Alg. 1).
  bool any_invalid = false;
  TxnId abort_scope = 0;
  std::uint32_t abort_depth = std::numeric_limits<std::uint32_t>::max();
  // Checkpointing: the minimum invalid checkpoint epoch (Alg. 4).
  ChkEpoch abort_chk = std::numeric_limits<ChkEpoch>::max();

  for (std::size_t i = 0; i < req.dataset.size(); ++i) {
    const DataSetEntry e = req.dataset[i];
    if (!stale_or_protected(e.id, e.version, req.root)) continue;
    any_invalid = true;
    if (req.mode == NestingMode::kClosed) {
      if (e.owner_depth < abort_depth) {
        abort_depth = e.owner_depth;
        abort_scope = e.owner;
      }
    } else {  // kCheckpoint
      if (e.owner_chk < abort_chk) abort_chk = e.owner_chk;
    }
  }

  if (!any_invalid) return std::nullopt;

  ReadResponseView resp;
  resp.status = ReadStatus::kAbort;
  if (req.mode == NestingMode::kClosed) {
    resp.abort_scope = abort_scope;
    resp.abort_depth = abort_depth;
  } else {
    resp.abort_chk = abort_chk;
  }
  return resp;
}

ReadResponseView QrServer::handle_read(const ReadRequestView& req) {
  // While catching up this replica's copies may be stale; kMissing makes the
  // reader lean on the rest of its quorum (Q1 holds -- a syncing node is not
  // yet counted live by the provider, so quorums that include it are larger
  // than needed, never smaller).  A default-constructed reply is kMissing.
  if (syncing_) return ReadResponseView{};

  if (auto abort = validate(req)) return *abort;

  const store::ReplicaEntry* e = store_.find(req.object);
  if (e == nullptr) return ReadResponseView{};
  // A protected object is mid-2PC: its next version is decided but not yet
  // applied.  Under Rqv (QR-CN / QR-CHK) serving the old copy would hand the
  // requester a doomed version, so report a conflict instead (the same rule
  // Alg. 1 applies to data-set entries).  Flat QR has no read-time conflict
  // detection: it serves the current (old) copy and lets the commit-time
  // validation catch the conflict.  QR-Q reads behave like flat -- conflicts
  // surface at the batch vote, where the stale-id reply triggers a targeted
  // re-fetch instead of a read-time abort.
  if ((req.mode == NestingMode::kClosed ||
       req.mode == NestingMode::kCheckpoint) &&
      check_protected(req.object, req.root)) {
    ReadResponseView abort;
    abort.status = ReadStatus::kAbort;
    if (req.mode == NestingMode::kClosed) {
      // The conflict is on the object being fetched: the fetching scope
      // itself retries.  The requester maps scope id 0 to "current scope".
      abort.abort_scope = 0;
      abort.abort_depth = std::numeric_limits<std::uint32_t>::max();
    } else if (req.mode == NestingMode::kCheckpoint) {
      abort.abort_chk = std::numeric_limits<ChkEpoch>::max();
    }
    return abort;
  }

  // The reply borrows the stored value; the service encodes it at once.
  return ReadResponseView{
      .status = ReadStatus::kOk, .version = e->version, .data = e->data};
}

const VoteResponse& QrServer::handle_commit_request(
    const CommitRequestView& req) {
  vote_.stale.clear();
  // A syncing replica's versions are untrustworthy in both directions: a
  // stale version would let a conflicting write pass validation.  Abort with
  // no stale report and let the coordinator retry once the quorum refreshes
  // (a QR-Q coordinator refetches everything when a vote has no diagnosis).
  if (syncing_) {
    vote_.commit = false;
    return vote_;
  }

  // Decide commit/abort from local object state (paper §II): every read-set
  // version and write-set base must still be current here, and nothing in
  // either set may be protected by a competing transaction.  Every entry is
  // checked and each failing id reported, so a QR-Q coordinator re-fetches
  // only the stale queues.  The test-only bypass votes commit
  // unconditionally -- the broken protocol the history checker must catch
  // (stale reads and competing writers both slip through).
  vote_.commit = true;
  if (!skip_commit_validation_) {
    for (std::size_t i = 0; i < req.readset.size(); ++i) {
      const CommitReadEntry e = req.readset[i];
      if (stale_or_protected(e.id, e.version, req.txn)) {
        vote_.commit = false;
        vote_.stale.push_back(e.id);
      }
    }
    for (const store::WriteView& e : req.writeset) {
      if (stale_or_protected(e.id, e.base, req.txn)) {
        vote_.commit = false;
        vote_.stale.push_back(e.id);
      }
    }
    if (!vote_.commit) return vote_;
    // Commit vote: lock the write-set (paper: object field protected =
    // true).  The test-only bypass skips the locks too: with validation off
    // two competing writers may both reach this point, and stacking
    // protections would (rightly) trip the store's single-protector
    // invariant -- the broken protocol must fail by committing conflicting
    // versions, not by crashing the replica.  unprotect() at confirm is a
    // lenient no-op.
    for (const store::WriteView& e : req.writeset) {
      // A cross-shard commit multicast reaches the union of the touched
      // cohorts' write quorums; each member only locks what it replicates.
      if (!replicated_here(e.id)) continue;
      store_.protect(e.id, req.txn, rpc_.simulator().now());
    }
  }
  // WAL discipline: the vote is durable before the reply leaves the node.
  // Read-only write-sets log nothing (there is nothing to replay).
  if (!req.writeset.empty() && fault(fp::kLogPrepare) != FaultAction::kSkip) {
    std::size_t local = 0;
    for (const store::WriteView& e : req.writeset) {
      if (replicated_here(e.id)) ++local;
    }
    if (local > 0) {
      // The protection is now prepared-backed: only a confirm or a
      // termination-round decision may release it.  Record the
      // coordinator's liveness epoch as seen at vote time so a later
      // termination round can tell "still deciding" from "restarted".
      for (const store::WriteView& e : req.writeset) {
        if (replicated_here(e.id)) store_.mark_prepared(e.id, req.txn);
      }
      const net::NodeId coord =
          coordinator_of(req.txn, rpc_.network().num_nodes());
      prepared_[req.txn] = PreparedMeta{
          coord, coord < rpc_.network().num_nodes()
                     ? rpc_.network().epoch(coord)
                     : 0};
      log_prepare(req, local);
      maybe_autocut();
    }
  }
  // Crash exactly between the durable vote and the reply (a dead sender's
  // reply is cut at send, so a kPanic here means the coordinator never
  // hears this vote).
  fault(fp::kServerVote);
  return vote_;
}

void QrServer::log_prepare(const CommitRequestView& req, std::size_t local) {
  // A commit request encodes its write-set in the log's write layout, so a
  // replica that holds every written object logs those bytes as they came.
  if (local == req.writeset.size()) {
    log_.append_encoded_prepare(req.txn, req.writeset.bytes(),
                                liveness_epoch());
    return;
  }
  // Under sharded cohorts: the run of the entries replicated here.
  Writer w(std::move(prepare_scratch_));
  w.u32(static_cast<std::uint32_t>(local));
  for (auto it = req.writeset.begin(); it != req.writeset.end(); ++it) {
    if (replicated_here(it->id)) w.raw(it.raw());
  }
  prepare_scratch_ = std::move(w).take();
  log_.append_encoded_prepare(req.txn, prepare_scratch_, liveness_epoch());
}

void QrServer::handle_commit_confirm(const CommitConfirmView& confirm) {
  // At-least-once delivery: recovered coordinators and resolving peers
  // retransmit confirms, so a repeat within the same liveness epoch is
  // counted and dropped, never double-applied.  A live local prepare
  // (protection held / pending log entry) marks the confirm as the outcome
  // of a FRESH 2PC round -- a retried root reuses its id -- so it must be
  // applied, not deduped against the previous round's outcome.
  bool live_prepare = log_.has_pending(confirm.txn);
  for (const store::WriteView& e : confirm.writeset) {
    if (store_.holds_protection(e.id, confirm.txn)) {
      live_prepare = true;
      break;
    }
  }
  if (!live_prepare && confirm_is_duplicate(confirm.txn)) return;
  // Crash (kPanic) or drop (kSkip) exactly at the confirm boundary: the
  // outcome is neither logged nor applied, and the protections stand until
  // the lease sheds them.
  const FaultAction at_apply = fault(fp::kServerConfirmApply);
  if (at_apply == FaultAction::kSkip || at_apply == FaultAction::kPanic) return;
  settle(confirm.txn, confirm.commit, confirm.writeset);
  record_outcome(confirm.txn, confirm.commit);
}

void QrServer::settle(TxnId txn, bool commit, const store::WriteRun& writes) {
  // WAL discipline: the outcome is durable before it is applied.  Only
  // transactions that logged a local prepare (some write replicated here)
  // need an outcome record.
  bool any_local = false;
  for (const store::WriteView& e : writes) {
    if (replicated_here(e.id)) any_local = true;
  }
  if (any_local && fault(fp::kLogConfirm) != FaultAction::kSkip) {
    log_.append_confirm(txn, commit, liveness_epoch());
    maybe_autocut();
  }
  for (const store::WriteView& e : writes) {
    if (!replicated_here(e.id)) continue;
    store_.unprotect(e.id, txn);
    // The writer read `base` through a read quorum, so by Q1 it was the
    // globally newest version; base+steps is therefore fresh, and every
    // write-quorum member converges on it.  A QR-Q batch's intermediate
    // versions exist only in the recorded history, where the checker
    // certifies them as a serial chain.
    if (commit) store_.apply(e.id, e.base + e.steps, e.data);
  }
}

bool QrServer::confirm_is_duplicate(TxnId txn) {
  const store::ConfirmOutcome* o = outcomes_.find(txn);
  if (o == nullptr || o->epoch != liveness_epoch()) return false;
  ++metrics_.confirm_duplicates;
  return true;
}

void QrServer::record_outcome(TxnId txn, bool commit) {
  outcomes_[txn] = store::ConfirmOutcome{liveness_epoch(), commit};
  prepared_.erase(txn);
  term_.erase(txn);
}

void QrServer::start_termination(TxnId txn) {
  if (term_.contains(txn)) return;  // already running
  const PreparedMeta* meta = prepared_.find(txn);
  if (meta == nullptr) return;  // no vote metadata here
  if (quorums_ == nullptr && meta->coordinator >= rpc_.network().num_nodes()) {
    return;  // standalone rig with hand-rolled ids: nobody to ask
  }

  Termination t;
  t.coordinator = meta->coordinator;
  t.coord_epoch = meta->coord_epoch;
  // Query targets: the coordinator plus the union of the write quorums of
  // every locally-prepared object (under sharded cohorts the in-doubt
  // transaction may span shards; any member of any touched cohort may have
  // applied the commit).  Sorted + deduped for deterministic send order.
  if (t.coordinator < rpc_.network().num_nodes()) {
    t.targets.push_back(t.coordinator);
  }
  if (quorums_ != nullptr) {
    if (const auto writes = log_.find_pending(txn)) {
      for (const store::WriteView& lw : *writes) {
        // Mid-chaos the provider may be unable to form a quorum (too many
        // members dead or syncing); ask whoever it can name and let the
        // bounded retry rounds pick up the rest after recoveries.
        try {
          for (net::NodeId n : quorums_->write_quorum(id_, lw.id)) {
            t.targets.push_back(n);
          }
        } catch (const quorum::QuorumUnavailable&) {
        }
      }
    }
  }
  std::sort(t.targets.begin(), t.targets.end());
  t.targets.erase(std::unique(t.targets.begin(), t.targets.end()),
                  t.targets.end());
  t.targets.erase(std::remove(t.targets.begin(), t.targets.end(), id_),
                  t.targets.end());
  if (t.targets.empty()) return;

  term_[txn] = std::make_unique<Termination>(std::move(t));
  rpc_.simulator().spawn(termination_task(txn));
}

sim::Task<void> QrServer::termination_task(TxnId txn) {
  // Bounded rounds: on exhaustion the in-flight state is dropped (the
  // protection stays!) so the next conflicting access starts a fresh
  // attempt -- the transaction stays in-doubt rather than guessing.
  constexpr std::uint32_t kMaxRounds = 4;
  for (std::uint32_t round = 1; round <= kMaxRounds; ++round) {
    {
      Termination* t = termination(txn);
      if (t == nullptr) co_return;  // resolved meanwhile
      t->round_no_decision.clear();
      t->coord_no_decision_newer = false;
      ++metrics_.termination_rounds;
      fault(fp::kTermQuery);
      TxnStatusRequest req{txn};
      for (net::NodeId n : t->targets) {
        Writer w(rpc_.acquire_buffer(msg::kTxnStatusRequest));
        req.encode_into(w);
        rpc_.notify(n, msg::kTxnStatusRequest, std::move(w).take());
      }
    }
    co_await rpc_.simulator().delay(kTerminationTimeout);
    {
      const Termination* t = termination(txn);
      if (t == nullptr) co_return;  // a response resolved it
      // Presumed-abort needs the FULL round to deny knowledge: every
      // queried peer answered "no decision" AND the coordinator did so from
      // a newer liveness epoch.  Its restart + empty decision log prove no
      // confirm ever left it (decisions are durable before the first
      // confirm), so aborting cannot contradict an acknowledged commit.  A
      // same-epoch coordinator answer of kUnknown means "still deciding":
      // wait.  A dead peer never answers: wait (never guess).
      if (t->coord_no_decision_newer &&
          t->round_no_decision.size() == t->targets.size()) {
        resolve_indoubt(txn, false);
        co_return;
      }
    }
    if (round < kMaxRounds) {
      co_await rpc_.simulator().delay(draw_backoff_wait(
          kTerminationTimeout, kTerminationTimeout * 8, round, term_rng_));
    }
  }
  term_.erase(txn);
}

void QrServer::handle_txn_status_request(net::NodeId from,
                                         const TxnStatusRequest& req) {
  TxnStatusResponse resp;
  resp.txn = req.txn;
  resp.epoch = liveness_epoch();
  if (const store::ConfirmOutcome* o = outcomes_.find(req.txn)) {
    // Applied here: an applied commit is proof of a commit decision.
    resp.status = o->commit ? TxnStatus::kCommitted : TxnStatus::kAborted;
  } else if (const auto verdict = log_.decision_verdict(req.txn)) {
    // This node coordinated the transaction and holds the durable decision.
    resp.status = *verdict ? TxnStatus::kCommitted : TxnStatus::kAborted;
  } else if (log_.has_pending(req.txn)) {
    resp.status = TxnStatus::kPrepared;
  } else {
    resp.status = TxnStatus::kUnknown;
  }
  Writer w(rpc_.acquire_buffer(msg::kTxnStatusResponse));
  resp.encode_into(w);
  rpc_.notify(from, msg::kTxnStatusResponse, std::move(w).take());
}

void QrServer::handle_txn_status_response(net::NodeId from,
                                          const TxnStatusResponse& resp) {
  Termination* t = termination(resp.txn);
  if (t == nullptr) return;  // resolved or never in doubt here
  switch (resp.status) {
    case TxnStatus::kCommitted:
      resolve_indoubt(resp.txn, true);
      return;
    case TxnStatus::kAborted:
      resolve_indoubt(resp.txn, false);
      return;
    case TxnStatus::kPrepared:
    case TxnStatus::kUnknown:
      if (std::find(t->round_no_decision.begin(), t->round_no_decision.end(),
                    from) == t->round_no_decision.end()) {
        t->round_no_decision.push_back(from);
      }
      // The coordinator answering from a NEWER epoch without a decision --
      // kUnknown or even kPrepared (it may be a quorum member holding its
      // own pending prepare) -- proves it restarted before logging one, so
      // no confirm was ever sent.  Same-epoch kUnknown = still deciding.
      if (from == t->coordinator && resp.epoch > t->coord_epoch) {
        t->coord_no_decision_newer = true;
      }
      return;
  }
}

void QrServer::resolve_indoubt(TxnId txn, bool commit) {
  // The confirm to retransmit is the confirm header and the pending write
  // run, verbatim.  Encode it FIRST and settle the writes read from it:
  // settle's append_confirm closes the pending entry, and a cut it triggers
  // drops the log's copy of the run.  Every write of the run is replicated
  // here (log_prepare logged only those).
  Writer w(rpc_.acquire_buffer(msg::kCommitConfirm));
  encode_commit_confirm_head(w, txn, commit);
  const std::optional<store::WriteRun> pending = log_.find_pending(txn);
  if (pending) w.raw(pending->bytes());
  Bytes encoded = std::move(w).take();
  store::WriteRun writes;
  if (pending) writes = CommitConfirm::decode_view(encoded).writeset;
  settle(txn, commit, writes);
  if (commit) {
    ++metrics_.indoubt_resolved_commit;
  } else {
    ++metrics_.indoubt_resolved_abort;
  }

  // Retransmit the confirm to the queried peers before forgetting the
  // termination state: any of them may hold the same in-doubt prepare, and
  // the original coordinator is gone.  At-least-once is safe -- receivers
  // dedupe on (txn, epoch) and apply() keeps only strictly-newer versions.
  // Under sharded cohorts the run covers only locally-replicated objects;
  // cross-cohort peers resolve their own shard by querying us (we now
  // answer kCommitted/kAborted from the applied-set).
  const Termination* t = termination(txn);
  if (t != nullptr && !writes.empty()) {
    metrics_.commit_messages += t->targets.size();
    for (net::NodeId n : t->targets) {
      Bytes copy = rpc_.acquire_buffer(msg::kCommitConfirm);
      copy.assign(encoded.begin(), encoded.end());
      rpc_.notify(n, msg::kCommitConfirm, std::move(copy));
    }
  }
  rpc_.release_buffer(std::move(encoded));
  record_outcome(txn, commit);
}

std::size_t QrServer::redrive_open_decisions() {
  // Collect first: settle_decision mutates the table the txns come from.
  const std::vector<TxnId> txns = log_.open_decisions();
  for (TxnId txn : txns) {
    const store::DecisionView d = *log_.open_decision(txn);
    for (std::size_t i = 0; i < d.members.size(); ++i) {
      Bytes copy = rpc_.acquire_buffer(msg::kCommitConfirm);
      d.payload.copy_to(copy);
      rpc_.notify(static_cast<net::NodeId>(d.members[i]), msg::kCommitConfirm,
                  std::move(copy));
    }
    metrics_.commit_messages += d.members.size();
    // The broadcast left this (live) node: settle.  A crash during the
    // sends just re-drives again next restart -- receivers dedupe.
    log_.settle_decision(txn);
  }
  return txns.size();
}

}  // namespace qrdtm::core
