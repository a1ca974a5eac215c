#include "core/txn.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "core/backoff.h"
#include "core/batch.h"
#include "core/history.h"
#include "store/commit_log.h"

namespace qrdtm::core {

namespace {
constexpr std::uint32_t kDepthMax = std::numeric_limits<std::uint32_t>::max();
constexpr ChkEpoch kChkMax = std::numeric_limits<ChkEpoch>::max();
}  // namespace

// ------------------------------------------------------------------ Txn

Txn::Txn(TxnRuntime& rt, Txn* parent)
    : rt_(rt),
      parent_(parent),
      scope_id_(rt.next_scope_id()),
      depth_(parent ? parent->depth_ + 1 : 0),
      dataset_mark_(parent ? parent->root().dataset_cache_.size() : 0) {}

Rng& Txn::rng() { return rt_.rng(); }

Txn& Txn::root() {
  Txn* t = this;
  while (t->parent_ != nullptr) t = t->parent_;
  return *t;
}

const Txn& Txn::root() const {
  const Txn* t = this;
  while (t->parent_ != nullptr) t = t->parent_;
  return *t;
}

Txn::OpToken Txn::begin_op() {
  Txn& r = root();
  const std::uint64_t idx = r.op_seq_++;
  if (++r.ops_this_attempt_ > rt_.config().max_ops_per_attempt) {
    ++rt_.metrics().step_guard_trips;
    throw AbortException{AbortTarget::kRoot, r.scope_id_, 0, "step guard"};
  }
  const bool replay = idx < r.replay_until_;
  if (rt_.config().mode == NestingMode::kCheckpoint && !replay) {
    QRDTM_CHECK_MSG(r.op_log_.size() == idx,
                    "op log out of sync with op sequence");
    r.op_log_.emplace_back();
  }
  return OpToken{idx, replay};
}

bool Txn::in_fast_forward() const {
  const Txn& r = root();
  return r.op_seq_ < r.replay_until_;
}

void Txn::log_op(const OpToken& token, Bytes data, ObjectId created) {
  if (rt_.config().mode != NestingMode::kCheckpoint) return;
  Txn& r = root();
  QRDTM_CHECK(token.idx < r.op_log_.size());
  r.op_log_[token.idx] = OpRecord{std::move(data), created};
}

const OwnedCopy* Txn::find_local(ObjectId id, bool* from_writeset) const {
  for (const Txn* t = this; t != nullptr; t = t->parent_) {
    if (auto it = t->writeset_.find(id); it != t->writeset_.end()) {
      if (from_writeset) *from_writeset = true;
      return &it->second;
    }
    if (auto it = t->readset_.find(id); it != t->readset_.end()) {
      if (from_writeset) *from_writeset = false;
      return &it->second;
    }
  }
  return nullptr;
}

sim::Task<ObjectCopy> Txn::quorum_fetch(ObjectId id, bool for_write) {
  const RuntimeConfig& cfg = rt_.config();
  Txn& r = root();

  // Encode straight from the root's materialised data-set into a pooled
  // buffer: no ReadRequest struct, no per-fetch data-set rebuild.
  // Only the Rqv modes ship the data-set; flat QR and QR-Q validate at
  // commit time (per transaction and per batch respectively).
  static const std::vector<DataSetEntry> kNoDataSet;
  const std::vector<DataSetEntry>& ds =
      cfg.mode == NestingMode::kClosed || cfg.mode == NestingMode::kCheckpoint
          ? dataset()
          : kNoDataSet;
  Writer w(rt_.rpc_.acquire_buffer(msg::kRead));
  encode_read_request(w, r.scope_id_, cfg.mode, id, for_write, ds);

  const auto& rq = rt_.read_quorum(id);
  ++rt_.metrics().remote_reads;
  rt_.metrics().read_messages += rq.size();

  Bytes encoded = std::move(w).take();
  const sim::Tick fetch_start = rt_.simulator().now();
  // Stamp the span context right before the sends; multicast issues them
  // without suspending, so no other client on this shared endpoint can
  // interleave and be mis-attributed.
  if (rt_.tracer_ != nullptr) rt_.rpc_.set_trace_context(r.scope_id_);
  auto futures = rt_.rpc_.multicast(rq, msg::kRead, encoded, cfg.rpc_timeout);
  if (rt_.tracer_ != nullptr) rt_.rpc_.set_trace_context(0);
  rt_.rpc_.release_buffer(std::move(encoded));

  bool have_best = false;
  ObjectCopy best;
  bool have_abort = false;
  TxnId abort_scope = 0;
  std::uint32_t abort_depth = kDepthMax;
  ChkEpoch abort_chk = kChkMax;
  std::size_t ok_replies = 0;

  for (auto& f : futures) {
    net::RpcResult res = co_await f;
    rt_.report_rpc_outcome(res.from, res.ok);
    if (!res.ok) continue;  // dead member or lost reply
    ++ok_replies;
    ReadResponse resp = ReadResponse::decode(res.payload);
    rt_.rpc_.release_buffer(std::move(res.payload));
    switch (resp.status) {
      case ReadStatus::kAbort:
        have_abort = true;
        if (cfg.mode == NestingMode::kClosed) {
          // Combine across replies: shallowest owner wins; the "conflict on
          // the fetched object itself" sentinel (scope 0 / depth max) only
          // applies when no data-set entry was invalid anywhere.
          if (resp.abort_depth < abort_depth ||
              (abort_depth == kDepthMax && abort_scope == 0)) {
            abort_depth = resp.abort_depth;
            abort_scope = resp.abort_scope;
          }
        } else {
          abort_chk = std::min(abort_chk, resp.abort_chk);
        }
        break;
      case ReadStatus::kOk:
        if (!have_best || resp.version > best.version) {
          best = ObjectCopy{id, resp.version, std::move(resp.data)};
          have_best = true;
        }
        break;
      case ReadStatus::kMissing:
        break;
    }
  }

  // Record the fetch before the abort checks so aborted fetches still count
  // toward read RTT (they cost the same wall-clock round trip).
  rt_.latency_.read_rtt.record(rt_.simulator().now() - fetch_start);
  if (rt_.tracer_ != nullptr) {
    rt_.tracer_->span(TraceKind::kReadFetch, rt_.node(), r.scope_id_,
                      fetch_start, rt_.simulator().now(), id, ok_replies);
  }

  if (have_abort) {
    ++rt_.metrics().validation_failures;
    if (cfg.mode == NestingMode::kClosed) {
      const TxnId target = abort_scope == 0 ? scope_id_ : abort_scope;
      throw AbortException{AbortTarget::kScope, target, 0, "rqv"};
    }
    if (cfg.mode == NestingMode::kCheckpoint) {
      const ChkEpoch target = std::min(abort_chk, r.epoch_);
      throw AbortException{AbortTarget::kCheckpoint, r.scope_id_, target,
                           "rqv"};
    }
    throw AbortException{AbortTarget::kRoot, r.scope_id_, 0, "rqv"};
  }
  if (ok_replies == 0) {
    throw AbortException{AbortTarget::kRoot, r.scope_id_, 0,
                         "read quorum unreachable"};
  }
  if (ok_replies < futures.size()) {
    // Strict gather: quorum intersection (Q1) only covers this fetch if
    // EVERY read-quorum member answered -- the member whose reply was lost
    // (dropped message, mid-fetch kill) may be exactly the one holding the
    // newest version, and a partial snapshot could commit unvalidated under
    // QR-CN's local read-only commit.  Abort and retry against the (possibly
    // reconfigured) quorum.
    throw AbortException{AbortTarget::kRoot, r.scope_id_, 0,
                         "read quorum incomplete"};
  }
  if (!have_best) {
    // No live replica holds the object: either a stale pointer chased by a
    // zombie flat transaction, or a data-structure bug.  Abort and retry.
    throw AbortException{AbortTarget::kRoot, r.scope_id_, 0,
                         "object missing on read quorum"};
  }
  co_return best;
}

sim::Task<ObjectCopy> Txn::acquire_copy(ObjectId id, bool for_write) {
  BatchPlanner* bp = root().batch_;
  if (bp != nullptr) {
    ObjectCopy cached;
    if (bp->lookup(id, &cached)) {
      // Served at the speculative head: one quorum fetch covers every later
      // touch of this object by any batch member.
      ++rt_.metrics().batch_read_hits;
      co_return cached;
    }
    ObjectCopy c = co_await quorum_fetch(id, for_write);
    bp->admit(c);
    co_return c;
  }
  co_return co_await quorum_fetch(id, for_write);
}

sim::Task<void> Txn::after_fetch_chk() {
  Txn& r = root();
  if (++r.objs_since_chk_ < rt_.config().chk_threshold) co_return;
  // Automatic checkpoint: charge creation cost (fixed + per snapshotted
  // object), snapshot the data-set and the execution cursor, open a new
  // epoch.
  const sim::Tick chk_start = rt_.simulator().now();
  const sim::Tick cost =
      rt_.config().chk_create_cost +
      rt_.config().chk_create_cost_per_obj *
          static_cast<sim::Tick>(r.readset_.size() + r.writeset_.size());
  if (cost > 0) {
    co_await rt_.simulator().delay(cost);
  }
  if (rt_.tracer_ != nullptr) {
    rt_.tracer_->span(TraceKind::kChkCreate, rt_.node(), r.scope_id_,
                      chk_start, rt_.simulator().now(), r.epoch_ + 1,
                      r.readset_.size() + r.writeset_.size());
  }
  ++r.epoch_;
  Snapshot s;
  s.epoch = r.epoch_;
  s.op_cursor = r.op_seq_;
  s.objs_since_chk = 0;
  s.dataset_len = r.dataset_cache_.size();
  s.readset = r.readset_;
  s.writeset = r.writeset_;
  r.checkpoints_.push_back(std::move(s));
  r.objs_since_chk_ = 0;
  ++rt_.metrics().checkpoints_created;
}

sim::Task<Bytes> Txn::read(ObjectId id) {
  QRDTM_CHECK_MSG(id != store::kNullObject, "read of null object id");
  const OpToken op = begin_op();
  if (op.replay) {
    // Fast-forward: the restored snapshot already contains this operation's
    // effects; just reproduce its result.
    co_return root().op_log_[op.idx].data;
  }
  if (const OwnedCopy* c = find_local(id, nullptr)) {
    ++rt_.metrics().local_read_hits;
    log_op(op, c->copy.data, store::kNullObject);
    co_return c->copy.data;
  }
  ObjectCopy c = co_await acquire_copy(id, /*for_write=*/false);
  Bytes data = c.data;
  const Version ver = c.version;
  const ChkEpoch chk = root().epoch_;
  readset_[id] = OwnedCopy{std::move(c), scope_id_, depth_, chk};
  dataset_append(id, ver, chk);
  log_op(op, data, store::kNullObject);
  if (rt_.config().mode == NestingMode::kCheckpoint) {
    co_await after_fetch_chk();
  }
  co_return data;
}

sim::Task<Bytes> Txn::read_for_write(ObjectId id) {
  QRDTM_CHECK_MSG(id != store::kNullObject, "write of null object id");
  const OpToken op = begin_op();
  if (op.replay) {
    co_return root().op_log_[op.idx].data;
  }
  if (auto it = writeset_.find(id); it != writeset_.end()) {
    ++rt_.metrics().local_read_hits;
    log_op(op, it->second.copy.data, store::kNullObject);
    co_return it->second.copy.data;
  }
  bool from_writeset = false;
  if (const OwnedCopy* c = find_local(id, &from_writeset)) {
    // Local upgrade / copy-on-write from an ancestor scope.  The base
    // version (and the QR-CHK fetch epoch) travel with the copy so commit
    // and rollback semantics are unchanged.
    OwnedCopy mine = *c;
    const bool same_scope = mine.owner == scope_id_;
    mine.owner = scope_id_;
    mine.owner_depth = depth_;
    ++rt_.metrics().local_read_hits;
    Bytes data = mine.copy.data;
    log_op(op, data, store::kNullObject);
    // A same-scope upgrade (read then read_for_write) already has its
    // data-set entry with the same id/version/owner; re-appending would
    // duplicate it.  Cross-scope upgrades append under the new owner (the
    // duplicate that leaves after a CT merge is compacted there).
    if (!same_scope) {
      dataset_append(id, mine.copy.version, mine.owner_chk);
    }
    writeset_[id] = std::move(mine);
    co_return data;
  }
  ObjectCopy c = co_await acquire_copy(id, /*for_write=*/true);
  Bytes data = c.data;
  const Version ver = c.version;
  const ChkEpoch chk = root().epoch_;
  writeset_[id] = OwnedCopy{std::move(c), scope_id_, depth_, chk};
  dataset_append(id, ver, chk);
  log_op(op, data, store::kNullObject);
  if (rt_.config().mode == NestingMode::kCheckpoint) {
    co_await after_fetch_chk();
  }
  co_return data;
}

void Txn::write(ObjectId id, Bytes data) {
  if (in_fast_forward()) {
    // Re-executed pre-checkpoint code: the restored snapshot already holds
    // this write's effect.
    return;
  }
  auto it = writeset_.find(id);
  QRDTM_CHECK_MSG(it != writeset_.end(),
                  "write() requires read_for_write() or create() first");
  it->second.copy.data = std::move(data);
}

ObjectId Txn::create(Bytes data) {
  const OpToken op = begin_op();
  Txn& r = root();
  if (op.replay) {
    return r.op_log_[op.idx].created;  // snapshot already holds the object
  }
  ObjectId id = rt_.allocate_object_id();
  log_op(op, Bytes{}, id);
  writeset_[id] = OwnedCopy{ObjectCopy{id, 0, std::move(data)}, scope_id_,
                            depth_, r.epoch_};
  dataset_append(id, 0, r.epoch_);
  return id;
}

sim::Task<void> Txn::compute(sim::Tick cost) {
  const OpToken op = begin_op();
  if (!op.replay && cost > 0) {
    co_await rt_.simulator().delay(cost);
  }
}

sim::Task<void> Txn::nested(TxnBody body) {
  if (rt_.config().mode != NestingMode::kClosed) {
    // Flat nesting ignores inner transactions; QR-CHK transactions are flat
    // with checkpoints (paper §IV-A).
    co_await body(*this);
    co_return;
  }
  for (;;) {
    Txn child(rt_, this);
    const sim::Tick scope_start = rt_.simulator().now();
    bool retry = false;
    bool do_propagate = false;
    AbortException propagate;
    try {
      co_await body(child);
    } catch (AbortException& a) {
      if (a.target == AbortTarget::kScope && a.scope_id == child.scope_id_) {
        retry = true;  // abortClosed names this CT: retry just this scope
      } else {
        propagate = a;  // abortClosed is an ancestor: keep unwinding
        do_propagate = true;
      }
    }
    if (rt_.tracer_ != nullptr) {
      rt_.tracer_->span(TraceKind::kCtScope, rt_.node(), root().scope_id_,
                        scope_start, rt_.simulator().now(), child.scope_id_,
                        retry || do_propagate ? 0 : 1);
    }
    if (do_propagate) {
      // The child's sets die with it; drop its materialised entries before
      // unwinding (ancestor frames truncate their own marks in turn).
      dataset_truncate(child.dataset_mark_);
      throw propagate;
    }
    if (retry) {
      dataset_truncate(child.dataset_mark_);
      ++rt_.metrics().ct_aborts;
      if (HistoryRecorder* rec = rt_.history_recorder()) {
        rec->record_abort(rt_.simulator().now(), rt_.node(), child.scope_id_,
                          "ct retry (abortClosed)");
      }
      const sim::Tick base = rt_.config().ct_retry_backoff;
      if (base > 0) {
        const sim::Tick wait = base / 2 + rt_.rng().below(base);
        rt_.latency_.backoff_wait.record(wait);
        const sim::Tick wait_start = rt_.simulator().now();
        co_await rt_.simulator().delay(wait);
        if (rt_.tracer_ != nullptr) {
          rt_.tracer_->span(TraceKind::kBackoff, rt_.node(), root().scope_id_,
                            wait_start, rt_.simulator().now(), 0);
        }
      }
      continue;  // paper: retry T_closed from its beginning
    }
    child.merge_into_parent();  // commitCT (Alg. 3): local, zero messages
    co_return;
  }
}

sim::Task<void> Txn::open_nested(OpenOp op) {
  QRDTM_CHECK_MSG(parent_ == nullptr,
                  "open_nested is only valid at root depth");
  QRDTM_CHECK_MSG(rt_.config().mode != NestingMode::kCheckpoint,
                  "open nesting cannot compose with checkpoint replay");
  QRDTM_CHECK_MSG(rt_.config().mode != NestingMode::kQueued,
                  "open nesting cannot compose with batched speculation");
  // Deterministic per-operation lock order; cross-operation cycles are
  // broken by acquire_abstract_lock's bounded retries (root abort +
  // compensation).
  std::sort(op.locks.begin(), op.locks.end());
  op.locks.erase(std::unique(op.locks.begin(), op.locks.end()),
                 op.locks.end());
  for (AbstractLockId lock : op.locks) {
    co_await rt_.acquire_abstract_lock(*this, lock);
  }
  // The body is an independent transaction: it commits globally NOW, while
  // this root is still running (the defining property of open nesting).
  bool ok = co_await rt_.run_txn_impl(op.body, 0, /*count_commit=*/false);
  QRDTM_CHECK(ok);
  ++rt_.metrics().open_commits;
  if (op.compensation) {
    open_log_.push_back(std::move(op.compensation));
  }
}

void Txn::merge_into_parent() {
  QRDTM_CHECK(parent_ != nullptr);
  // Ownership transfers to the parent: a later conflict on these objects
  // must abort the parent, since this CT no longer exists (Alg. 3).
  // Visit order does not matter: the merge is a keyed overwrite into the
  // parent's maps, so the result is identical under any iteration order.
  // qrdtm-lint: allow(det-unordered-iter)
  for (auto& [id, oc] : readset_) {
    oc.owner = parent_->scope_id_;
    oc.owner_depth = parent_->depth_;
    parent_->readset_[id] = std::move(oc);
  }
  // Keyed overwrite as above.  qrdtm-lint: allow(det-unordered-iter)
  for (auto& [id, oc] : writeset_) {
    oc.owner = parent_->scope_id_;
    oc.owner_depth = parent_->depth_;
    parent_->writeset_[id] = std::move(oc);
  }
  readset_.clear();
  writeset_.clear();
  // Re-home this scope's materialised entries (everything appended since the
  // scope opened, including already-merged grandchildren's).
  auto& cache = root().dataset_cache_;
  for (std::size_t i = dataset_mark_; i < cache.size(); ++i) {
    cache[i].owner = parent_->scope_id_;
    cache[i].owner_depth = parent_->depth_;
  }
  // Compact duplicates: a CT upgrade of an object already in an ancestor's
  // set appended a second entry for the same id, now identical in role to
  // the ancestor's.  Keep the ancestor's (shallower) entry -- when the
  // object is invalid, every scope holding it is doomed and abortClosed
  // must name the shallowest one.
  if (dataset_mark_ > 0) {
    std::size_t out = dataset_mark_;
    for (std::size_t i = dataset_mark_; i < cache.size(); ++i) {
      bool dup = false;
      for (std::size_t j = 0; j < dataset_mark_; ++j) {
        if (cache[j].id == cache[i].id) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        if (out != i) cache[out] = std::move(cache[i]);
        ++out;
      }
    }
    cache.resize(out);
  }
}

void Txn::reset_scope() {
  readset_.clear();
  writeset_.clear();
  dataset_truncate(dataset_mark_);
}

void Txn::reset_full() {
  QRDTM_CHECK(parent_ == nullptr);
  QRDTM_CHECK_MSG(open_log_.empty() && held_locks_.empty(),
                  "open-nesting state must be settled before a reset");
  readset_.clear();
  writeset_.clear();
  dataset_cache_.clear();
  checkpoints_.clear();
  op_log_.clear();
  epoch_ = 0;
  objs_since_chk_ = 0;
  op_seq_ = 0;
  replay_until_ = 0;
  ops_this_attempt_ = 0;
}

void Txn::rollback_to(ChkEpoch epoch) {
  QRDTM_CHECK(parent_ == nullptr);
  QRDTM_CHECK_MSG(epoch >= 1, "rollback to epoch 0 is a full abort");
  while (!checkpoints_.empty() && checkpoints_.back().epoch > epoch) {
    checkpoints_.pop_back();
  }
  QRDTM_CHECK_MSG(
      !checkpoints_.empty() && checkpoints_.back().epoch == epoch,
      "rollback target checkpoint not found");
  const Snapshot& s = checkpoints_.back();
  readset_ = s.readset;
  writeset_ = s.writeset;
  dataset_cache_.resize(s.dataset_len);
  epoch_ = s.epoch;
  objs_since_chk_ = s.objs_since_chk;
  replay_until_ = s.op_cursor;
  // Drop log entries from the abandoned suffix; the replay's fresh
  // execution appends new ones from the cursor on.
  op_log_.resize(s.op_cursor);
  op_seq_ = 0;
  ops_this_attempt_ = 0;
}

// ------------------------------------------------------------ TxnRuntime

TxnRuntime::TxnRuntime(net::RpcEndpoint& rpc, quorum::QuorumProvider& quorums,
                       Metrics& metrics, RuntimeConfig config,
                       std::uint64_t seed, store::CommitLog& local_log)
    : rpc_(rpc),
      quorums_(quorums),
      metrics_(metrics),
      local_log_(local_log),
      config_(config),
      rng_(seed),
      // Scope ids are node-prefixed so ids never collide across nodes; id 0
      // is reserved as the "current scope" sentinel in abort replies.
      next_scope_id_((static_cast<TxnId>(rpc.id()) + 1) << 40) {
  if (config_.mode == NestingMode::kQueued) {
    planner_ = std::make_unique<BatchPlanner>(*this);
  }
}

TxnRuntime::~TxnRuntime() = default;

const std::vector<net::NodeId>& TxnRuntime::cohort_read_quorum(
    std::uint32_t cohort) {
  if (rq_cache_.size() < quorums_.num_cohorts()) {
    rq_cache_.resize(quorums_.num_cohorts());
  }
  CohortQuorum& q = rq_cache_[cohort];
  const std::uint64_t g = quorums_.generation();
  if (q.gen != g) {
    // A zombie coroutine (the requester was killed mid-transaction, so the
    // provider no longer routes under it) turns an unformable quorum into
    // an infrastructure abort: bounded retry loops absorb it, and the next
    // cross-epoch send would drop anyway.  A *live* requester keeps the
    // original contract and sees QuorumUnavailable directly.
    try {
      q.nodes = quorums_.cohort_read_quorum(node(), cohort);
    } catch (const quorum::QuorumUnavailable& e) {
      if (!rpc_.network().alive(node())) {
        throw AbortException{AbortTarget::kRoot, 0, 0, e.what()};
      }
      throw;
    }
    q.gen = g;
  }
  return q.nodes;
}

const std::vector<net::NodeId>& TxnRuntime::cohort_write_quorum(
    std::uint32_t cohort) {
  if (wq_cache_.size() < quorums_.num_cohorts()) {
    wq_cache_.resize(quorums_.num_cohorts());
  }
  CohortQuorum& q = wq_cache_[cohort];
  const std::uint64_t g = quorums_.generation();
  if (q.gen != g) {
    // Same zombie-only infrastructure-abort conversion as
    // cohort_read_quorum.
    try {
      q.nodes = quorums_.cohort_write_quorum(node(), cohort);
    } catch (const quorum::QuorumUnavailable& e) {
      if (!rpc_.network().alive(node())) {
        throw AbortException{AbortTarget::kRoot, 0, 0, e.what()};
      }
      throw;
    }
    q.gen = g;
  }
  return q.nodes;
}

const std::vector<net::NodeId>& TxnRuntime::read_quorum(ObjectId id) {
  return cohort_read_quorum(quorums_.cohort_of(id));
}

std::vector<net::NodeId> TxnRuntime::union_write_quorum(
    const std::vector<ObjectId>& ids) {
  const std::uint32_t n = quorums_.num_cohorts();
  // Single cohort: the exact pre-shard behaviour (a copy of the one write
  // quorum), no per-id hashing.
  if (n <= 1) return cohort_write_quorum(0);
  std::vector<bool> seen(n, false);
  std::uint32_t distinct = 0;
  std::vector<net::NodeId> out;
  for (ObjectId id : ids) {
    const std::uint32_t c = quorums_.cohort_of(id);
    if (seen[c]) continue;
    seen[c] = true;
    ++distinct;
    const auto& wq = cohort_write_quorum(c);
    out.insert(out.end(), wq.begin(), wq.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (distinct > 1) ++metrics_.cross_shard_rounds;
  return out;
}

ObjectId TxnRuntime::allocate_object_id() {
  return ((static_cast<ObjectId>(rpc_.id()) + 1) << 40) |
         (0x8000000000ULL + next_object_seq_++);
}

sim::Task<void> TxnRuntime::run_transaction(TxnBody body) {
  bool ok = co_await run_txn_impl(std::move(body), 0, /*count_commit=*/true);
  QRDTM_CHECK(ok);
}

sim::Task<bool> TxnRuntime::run_txn_impl(TxnBody body,
                                         std::uint32_t max_attempts,
                                         bool count_commit) {
  if (config_.mode == NestingMode::kQueued) {
    // QR-Q: hand the body to the batch planner; it executes as a member of
    // a speculative batch and commits through the batch 2PC round.
    QRDTM_CHECK_MSG(count_commit,
                    "open-nested side transactions cannot run under kQueued");
    co_return co_await planner_->submit(std::move(body), max_attempts);
  }
  Txn root(*this, nullptr);
  const sim::Tick txn_start = simulator().now();
  std::uint32_t attempt = 0;
  for (;;) {
    const sim::Tick attempt_start = simulator().now();
    bool committed = false;
    bool aborted = false;
    AbortException abort;
    try {
      co_await body(root);
      co_await commit_root(root);
      committed = true;
    } catch (AbortException& a) {
      abort = a;
      aborted = true;
    } catch (const quorum::QuorumUnavailable& e) {
      // A live requester that cannot form a quorum mid-chaos: bounded
      // callers (the fuzz harness, QR-Q batch members) treat it as one
      // failed attempt and retry after membership heals.  Unbounded
      // clients keep the raw error -- a permanently lost quorum must
      // surface, not spin forever (Failures.WholeReadQuorumDead...).
      if (max_attempts == 0) throw;
      abort = AbortException{AbortTarget::kRoot, root.scope_id_, 0, e.what()};
      aborted = true;
    }
    if (tracer_ != nullptr) {
      tracer_->span(TraceKind::kAttempt, node(), root.scope_id_, attempt_start,
                    simulator().now(), attempt + 1, committed ? 1 : 0);
    }
    if (committed) {
      const sim::Tick now = simulator().now();
      latency_.commit_latency.record(now - txn_start);
      if (tracer_ != nullptr) {
        tracer_->span(TraceKind::kTxn, node(), root.scope_id_, txn_start, now,
                      attempt + 1);
      }
      if (recorder_ != nullptr) record_commit_history(root);
      co_await finish_open(root, /*committed=*/true);
      if (count_commit) ++metrics_.commits;
      co_return true;
    }
    QRDTM_CHECK(aborted);
    const sim::Tick abort_tick = simulator().now();
    if (tracer_ != nullptr) {
      tracer_->instant(TraceKind::kAbort, node(), root.scope_id_, abort_tick,
                       attempt + 1);
    }

    if (config_.mode == NestingMode::kCheckpoint &&
        abort.target == AbortTarget::kCheckpoint) {
      const ChkEpoch target = std::min(abort.chk, root.epoch_);
      if (target >= 1) {
        // Partial rollback: restore the checkpoint and resume (replay).
        // Restoring the saved continuation + transaction copy costs time.
        ++metrics_.partial_rollbacks;
        if (recorder_ != nullptr) {
          recorder_->record_rollback(simulator().now(), node(),
                                     root.scope_id_, target);
        }
        root.rollback_to(target);
        if (config_.chk_restore_cost > 0) {
          co_await rpc_.simulator().delay(config_.chk_restore_cost);
        }
        if (tracer_ != nullptr) {
          tracer_->span(TraceKind::kChkRollback, node(), root.scope_id_,
                        abort_tick, simulator().now(), target);
        }
        continue;
      }
      // Rolling back to the start is a full abort.
    }

    ++metrics_.root_aborts;
    if (recorder_ != nullptr) {
      recorder_->record_abort(simulator().now(), node(), root.scope_id_,
                              abort.reason);
    }
    // QR-ON: undo globally-committed open-nested work before retrying.
    co_await finish_open(root, /*committed=*/false);
    root.reset_full();
    ++attempt;
    if (max_attempts != 0 && attempt >= max_attempts) co_return false;
    co_await backoff(attempt, root.scope_id_);
    latency_.retry_gap.record(simulator().now() - abort_tick);
  }
}

void TxnRuntime::record_commit_history(const Txn& root) {
  CommittedTxn rec;
  rec.txn = root.scope_id_;
  rec.node = node();
  rec.commit_tick = simulator().now();
  rec.reads.reserve(root.readset_.size());
  // Collect-then-sort: the recorded order is by object id regardless of the
  // sets' hash order.  qrdtm-lint: allow(det-unordered-iter)
  for (const auto& [id, oc] : root.readset_) {
    rec.reads.push_back(HistoryRead{id, oc.copy.version});
  }
  rec.writes.reserve(root.writeset_.size());
  // Sorted below as well.  qrdtm-lint: allow(det-unordered-iter)
  for (const auto& [id, oc] : root.writeset_) {
    // QR installs base+1 (see QrServer::handle_commit_confirm).
    rec.writes.push_back(
        HistoryWrite{id, oc.copy.version, oc.copy.version + 1, oc.copy.data});
  }
  std::sort(rec.reads.begin(), rec.reads.end(),
            [](const HistoryRead& a, const HistoryRead& b) { return a.id < b.id; });
  std::sort(
      rec.writes.begin(), rec.writes.end(),
      [](const HistoryWrite& a, const HistoryWrite& b) { return a.id < b.id; });
  recorder_->record_commit(std::move(rec));
}

sim::Task<void> TxnRuntime::acquire_abstract_lock(Txn& root,
                                                  AbstractLockId lock) {
  if (std::find(root.held_locks_.begin(), root.held_locks_.end(), lock) !=
      root.held_locks_.end()) {
    co_return;  // already held by this root (reentrant)
  }
  const net::NodeId home = lock_home(lock, rpc_.network().num_nodes());
  for (std::uint32_t attempt = 0;; ++attempt) {
    Writer w(rpc_.acquire_buffer(msg::kLockAcquire));
    w.u64(lock);
    w.u64(root.scope_id_);
    ++metrics_.lock_messages;
    auto res = co_await rpc_.call(home, msg::kLockAcquire,
                                  std::move(w).take(), config_.rpc_timeout);
    report_rpc_outcome(home, res.ok);
    if (res.ok) {
      Reader r(res.payload);
      const bool granted = r.boolean();
      rpc_.release_buffer(std::move(res.payload));
      if (granted) {
        root.held_locks_.push_back(lock);
        co_return;
      }
    }
    ++metrics_.lock_conflicts;
    if (attempt + 1 >= config_.max_lock_attempts) {
      // Could not get the lock: break the (potential) cross-root cycle by
      // aborting this root, which compensates and releases what it holds.
      throw AbortException{AbortTarget::kRoot, root.scope_id_, 0,
                           "abstract lock conflict"};
    }
    co_await backoff(attempt + 1, root.scope_id_);
  }
}

sim::Task<void> TxnRuntime::finish_open(Txn& root, bool committed) {
  if (root.open_log_.empty() && root.held_locks_.empty()) co_return;
  if (!committed) {
    // Undo committed open-nested bodies, newest first.  Compensations are
    // independent committed transactions; they must not use open_nested
    // themselves (no recursion).
    for (auto it = root.open_log_.rbegin(); it != root.open_log_.rend();
         ++it) {
      bool ok = co_await run_txn_impl(*it, 0, /*count_commit=*/false);
      QRDTM_CHECK(ok);
      ++metrics_.compensations_run;
    }
  }
  for (AbstractLockId lock : root.held_locks_) {
    Writer w(rpc_.acquire_buffer(msg::kLockRelease));
    w.u64(lock);
    w.u64(root.scope_id_);
    ++metrics_.lock_messages;
    rpc_.notify(lock_home(lock, rpc_.network().num_nodes()),
                msg::kLockRelease, std::move(w).take());
  }
  root.open_log_.clear();
  root.held_locks_.clear();
}

sim::Task<void> TxnRuntime::commit_root(Txn& root) {
  // An empty transaction (no reads, no writes) has nothing to validate.
  if (root.writeset_.empty() && root.readset_.empty()) {
    ++metrics_.local_commits;
    if (tracer_ != nullptr) {
      tracer_->span(TraceKind::kCommit2pc, node(), root.scope_id_,
                    simulator().now(), simulator().now(), 0, /*local=*/1);
    }
    co_return;
  }
  // Rqv makes read-only commits free under QR-CN (paper §III-A); flat QR
  // and QR-CHK always run the 2PC (QR-CHK commit "exactly the same as flat",
  // §IV-A).
  if (root.writeset_.empty() && config_.mode == NestingMode::kClosed &&
      config_.cn_local_readonly_commit) {
    ++metrics_.local_commits;
    if (tracer_ != nullptr) {
      tracer_->span(TraceKind::kCommit2pc, node(), root.scope_id_,
                    simulator().now(), simulator().now(), 0, /*local=*/1);
    }
    co_return;
  }
  const sim::Tick commit_start = simulator().now();

  CommitRequest req;
  req.txn = root.scope_id_;
  req.readset.reserve(root.readset_.size());
  // qrdtm-lint: allow(det-unordered-iter)
  for (const auto& [id, oc] : root.readset_) {
    req.readset.push_back(CommitReadEntry{id, oc.copy.version});
  }
  req.writeset.reserve(root.writeset_.size());
  // qrdtm-lint: allow(det-unordered-iter)
  for (const auto& [id, oc] : root.writeset_) {
    req.writeset.push_back(CommitWriteEntry{id, oc.copy.version, oc.copy.data});
  }
  // The sets come straight out of hash maps: fix the wire order so the
  // encoded request bytes (and the order replicas walk the entries in when
  // voting and applying) are identical across standard-library hash
  // implementations.
  std::sort(req.readset.begin(), req.readset.end(),
            [](const CommitReadEntry& a, const CommitReadEntry& b) {
              return a.id < b.id;
            });
  std::sort(req.writeset.begin(), req.writeset.end(),
            [](const CommitWriteEntry& a, const CommitWriteEntry& b) {
              return a.id < b.id;
            });

  // Copy of the memoised quorum: a failure mid-commit may regenerate the
  // cache while we await votes, and the confirm must reach the same members
  // the request went to.  The multicast spans the write quorums of every
  // cohort the transaction touched -- the read-set cohorts included, since
  // read validation only happens on nodes replicating those objects.
  std::vector<ObjectId> touched;
  touched.reserve(req.readset.size() + req.writeset.size());
  for (const CommitReadEntry& e : req.readset) touched.push_back(e.id);
  for (const CommitWriteEntry& e : req.writeset) touched.push_back(e.id);
  const std::vector<net::NodeId> wq = union_write_quorum(touched);
  std::vector<ObjectId> stale;
  const bool all_commit =
      co_await commit_vote(req, wq, msg::kCommitRequest, &stale);

  // The confirm goes out even for a read-only round or an abort: voters
  // that protected the write-set must release it on abort.
  const bool sent = co_await commit_confirm(
      req.txn, all_commit, std::move(req.writeset), wq, msg::kCommitConfirm);
  if (!sent) {
    // Crashed before the decision was durable: no confirm left, so the
    // attempt must not be recorded as a commit (the prepared replicas will
    // presumed-abort it once the restarted coordinator answers).
    throw AbortException{AbortTarget::kRoot, root.scope_id_, 0,
                         "coordinator crashed before decision log"};
  }

  if (tracer_ != nullptr) {
    tracer_->span(TraceKind::kCommit2pc, node(), root.scope_id_, commit_start,
                  simulator().now(), root.writeset_.size(), /*local=*/0);
  }

  if (!all_commit) {
    ++metrics_.vote_aborts;
    throw AbortException{AbortTarget::kRoot, root.scope_id_, 0,
                         "commit vote failed"};
  }
}

sim::Task<bool> TxnRuntime::commit_vote(const CommitRequest& req,
                                        const std::vector<net::NodeId>& wq,
                                        net::MsgKind tag,
                                        std::vector<ObjectId>* stale) {
  ++metrics_.commit_requests;
  metrics_.commit_messages += wq.size();
  Writer reqw(rpc_.acquire_buffer(tag));
  req.encode_into(reqw);
  Bytes reqbytes = std::move(reqw).take();
  if (tracer_ != nullptr) rpc_.set_trace_context(req.txn);
  auto futures = rpc_.multicast(wq, tag, reqbytes, config_.rpc_timeout);
  if (tracer_ != nullptr) rpc_.set_trace_context(0);
  rpc_.release_buffer(std::move(reqbytes));

  bool all_commit = true;
  for (auto& f : futures) {
    net::RpcResult res = co_await f;
    report_rpc_outcome(res.from, res.ok);
    if (!res.ok) {
      all_commit = false;  // dead or unreachable member counts as abort
      continue;
    }
    VoteResponse vote = VoteResponse::decode(res.payload);
    rpc_.release_buffer(std::move(res.payload));
    if (!vote.commit) {
      all_commit = false;
      stale->insert(stale->end(), vote.stale.begin(), vote.stale.end());
    }
  }
  std::sort(stale->begin(), stale->end());
  stale->erase(std::unique(stale->begin(), stale->end()), stale->end());
  co_return all_commit;
}

sim::Task<bool> TxnRuntime::commit_confirm(
    TxnId txn, bool commit, std::vector<CommitWriteEntry> writeset,
    const std::vector<net::NodeId>& wq, net::MsgKind tag) {
  // The canonical checkpoint/recovery race window: votes are gathered (the
  // write quorum has protected + durably prepared the write-set) but the
  // confirm has not been sent.  Tests park the coordinator here, cut
  // checkpoints / crash replicas, then resume (fp::kCommitBeforeConfirm).
  if (faults_ != nullptr &&
      faults_->fire(fp::kCommitBeforeConfirm, node()) == FaultAction::kSuspend) {
    co_await faults_->suspend(fp::kCommitBeforeConfirm, node());
  }

  CommitConfirm confirm;
  confirm.txn = txn;
  confirm.commit = commit;
  confirm.writeset = std::move(writeset);
  Writer cw(rpc_.acquire_buffer(tag));
  confirm.encode_into(cw);
  Bytes encoded = std::move(cw).take();

  // Durable decision record (DESIGN.md §17): the outcome -- commit AND
  // abort, so termination rounds get authoritative abort answers too -- is
  // on the local WAL BEFORE any confirm leaves this node.  A coordinator
  // restart therefore proves: no decision in the log => no confirm was ever
  // sent => in-doubt replicas may presumed-abort safely.  Read-only rounds
  // (empty writeset) take no protections and log nothing.  One decision
  // covers a whole QR-Q batch.
  const bool log_decision = !confirm.writeset.empty();
  if (log_decision) {
    const FaultAction at_decision =
        faults_ != nullptr ? faults_->fire(fp::kDecisionBeforeLog, node())
                           : FaultAction::kNone;
    if (at_decision == FaultAction::kPanic) {
      rpc_.release_buffer(std::move(encoded));
      co_return false;
    }
    if (at_decision != FaultAction::kSkip) {
      // kSkip = the --break-termination canary: confirms go out with no
      // durable decision, so a restart presumed-aborts an acked commit.
      store::Decision d;
      d.epoch = rpc_.network().epoch(node());
      d.commit = commit;
      d.members.assign(wq.begin(), wq.end());
      d.payload = encoded;
      local_log_.append_decision(txn, std::move(d));
    }
  }

  metrics_.commit_messages += wq.size();
  if (tracer_ != nullptr) rpc_.set_trace_context(txn);
  bool died_mid_broadcast = false;
  for (net::NodeId n : wq) {
    // Coordinator crash after a strict subset of the confirms left the node
    // (arm with delay_fires=K to let K members hear the outcome).  The dead
    // node's remaining sends are cut at the network, so just keep looping.
    if (faults_ != nullptr &&
        faults_->fire(fp::kConfirmPartial, node()) == FaultAction::kPanic) {
      died_mid_broadcast = true;
    }
    Bytes copy = rpc_.acquire_buffer(tag);
    copy.assign(encoded.begin(), encoded.end());
    rpc_.notify(n, tag, std::move(copy));
  }
  if (tracer_ != nullptr) rpc_.set_trace_context(0);
  rpc_.release_buffer(std::move(encoded));
  // The broadcast completed in this incarnation: stop re-driving it.  A
  // coordinator that died mid-broadcast must NOT settle -- recovery replays
  // the decision and re-sends (receivers dedupe duplicates).
  if (log_decision && !died_mid_broadcast) {
    local_log_.settle_decision(txn);
  }

  // Charge the one-way confirm propagation (paper: commit-confirm cost is
  // the distance to the write quorum) -- once per round, so a QR-Q batch
  // pays it once for all its members.  This also keeps the client's next
  // attempt from racing its own confirms.
  if (config_.commit_settle > 0) {
    co_await rpc_.simulator().delay(config_.commit_settle);
  }
  co_return true;
}

sim::Task<void> TxnRuntime::backoff(std::uint32_t attempt, TxnId txn) {
  const sim::Tick wait = draw_backoff_wait(config_.backoff_base,
                                           config_.backoff_cap, attempt, rng_);
  latency_.backoff_wait.record(wait);
  if (wait > 0) {
    const sim::Tick start = simulator().now();
    co_await rpc_.simulator().delay(wait);
    if (tracer_ != nullptr) {
      tracer_->span(TraceKind::kBackoff, node(), txn, start, simulator().now(),
                    attempt);
    }
  }
}

}  // namespace qrdtm::core
